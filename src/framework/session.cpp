#include "framework/session.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "framework/autograd.h"

namespace mystique::fw {

DispatchProfile
DispatchProfile::eager()
{
    DispatchProfile p;
    p.op_cost_scale = 1.0;
    p.wrapper_cost_us = 1.6;
    p.kernel_launch_cpu_us = 2.4;
    return p;
}

DispatchProfile
DispatchProfile::replay()
{
    // Replay invokes compiled-IR callables with pre-instantiated tensors: no
    // wrapper frames, but each invocation pays registry/argument-binding
    // overhead on top of the framework dispatch (§5).
    DispatchProfile p;
    p.op_cost_scale = 1.35;
    p.wrapper_cost_us = 0.0;
    p.kernel_launch_cpu_us = 2.4;
    return p;
}

Session::Session(SessionOptions opts)
    : opts_(std::move(opts)),
      device_(opts_.platform, opts_.power_limit_w),
      rng_(opts_.seed + 0x9E37 * static_cast<uint64_t>(opts_.rank + 1)),
      arena_(std::make_shared<StorageArena>()),
      engine_(std::make_unique<autograd::Engine>())
{
    ensure_ops_registered();
}

Session::~Session() = default;

void
Session::reset_for_replay()
{
    main_clock_.reset();
    autograd_clock_.reset();
    tid_ = kMainThread;
    next_node_id_ = 0;
    next_tensor_uid_ = 0;
    call_stack_.clear();
    stream_override_.reset();
    clock_override_ = nullptr;
    node_reseed_mode_ = false;
    current_pg_id_ = -1;
    grad_enabled_ = true;
    process_groups_.clear();
    device_.reset();
    // Reseed exactly as construction does, so a reset session replays a plan
    // bit-identically to a freshly built one; the arena is deliberately NOT
    // touched — its cached buffers are the cross-group recycling win.
    rng_ = Rng(opts_.seed + 0x9E37 * static_cast<uint64_t>(opts_.rank + 1));
    engine_ = std::make_unique<autograd::Engine>();
    grad_hooks_.clear();
    // Observers are caller-owned stack objects; construction leaves them
    // null and so must a reset (a stale pointer here would dangle).
    et_observer_ = nullptr;
    profiler_ = nullptr;
}

sim::VirtualClock&
Session::clock()
{
    if (clock_override_ != nullptr)
        return *clock_override_;
    return tid_ == kAutogradThread ? autograd_clock_ : main_clock_;
}

const sim::VirtualClock&
Session::clock() const
{
    if (clock_override_ != nullptr)
        return *clock_override_;
    return tid_ == kAutogradThread ? autograd_clock_ : main_clock_;
}

sim::TimeUs
Session::cpu_now() const
{
    return clock().now();
}

void
Session::cpu_advance(sim::TimeUs us)
{
    clock().advance(us);
}

void
Session::cpu_advance_to(sim::TimeUs t)
{
    clock().advance_to(t);
}

void
Session::reseed_for_node(int64_t node_id)
{
    Fnv1a h;
    h.mix_pod(opts_.seed);
    h.mix_pod(static_cast<int64_t>(opts_.rank));
    h.mix_pod(node_id);
    rng_ = Rng(h.value());
}

sim::TimeUs
Session::sync_device()
{
    clock().advance_to(device_.sync_all());
    return clock().now();
}

void
Session::set_tid(int tid)
{
    MYST_CHECK_MSG(tid == kMainThread || tid == kAutogradThread, "bad tid " << tid);
    tid_ = tid;
}

void
Session::switch_thread(int tid)
{
    if (tid == tid_)
        return;
    // Under a clock override the per-thread clocks are not in use: the async
    // executor's lane clock carries the time, and tid is only a trace label.
    if (clock_override_ == nullptr) {
        if (tid == kAutogradThread)
            autograd_clock_.advance_to(main_clock_.now());
        else
            main_clock_.advance_to(autograd_clock_.now());
    }
    set_tid(tid);
}

std::vector<IValue>
Session::call(OpId op, std::vector<IValue> inputs)
{
    return dispatch(OpRegistry::instance().at(op), std::move(inputs));
}

std::vector<IValue>
Session::call(const std::string& op_name, std::vector<IValue> inputs)
{
    const OpDef& def = OpRegistry::instance().at(op_name);
    return dispatch(def, std::move(inputs));
}

Tensor
Session::call_t(OpId op, std::vector<IValue> inputs)
{
    auto outs = call(op, std::move(inputs));
    MYST_CHECK_MSG(!outs.empty() && outs[0].is_tensor(),
                   OpRegistry::instance().name(op) << " did not produce a tensor output");
    return outs[0].tensor();
}

Tensor
Session::call_t(const std::string& op_name, std::vector<IValue> inputs)
{
    auto outs = call(op_name, std::move(inputs));
    MYST_CHECK_MSG(!outs.empty() && outs[0].is_tensor(),
                   op_name << " did not produce a tensor output");
    return outs[0].tensor();
}

std::vector<IValue>
Session::call_dynamic(const OpDef& def, std::vector<IValue> inputs)
{
    return dispatch(def, std::move(inputs));
}

int64_t
Session::tensor_uid(const Tensor& t)
{
    MYST_CHECK(t.defined());
    if (t.impl()->uid < 0)
        t.impl()->uid = next_tensor_uid_++;
    return t.impl()->uid;
}

et::TensorMeta
Session::tensor_meta(const Tensor& t)
{
    et::TensorMeta m;
    m.tensor_id = tensor_uid(t);
    m.storage_id = t.impl()->storage ? t.impl()->storage->id() : -1;
    m.offset = 0;
    m.numel = t.numel();
    m.itemsize = t.itemsize();
    m.device = t.impl()->device;
    m.shape = t.shape();
    m.dtype = dtype_name(t.dtype());
    return m;
}

et::Argument
Session::ivalue_to_argument(const IValue& v)
{
    switch (v.tag()) {
      case IValue::Tag::kNone:
        return et::Argument::none();
      case IValue::Tag::kTensor:
        return et::Argument::from_tensor(tensor_meta(v.tensor()));
      case IValue::Tag::kTensorList: {
        std::vector<et::TensorMeta> metas;
        metas.reserve(v.tensor_list().size());
        for (const auto& t : v.tensor_list())
            metas.push_back(tensor_meta(t));
        return et::Argument::from_tensor_list(std::move(metas));
      }
      case IValue::Tag::kInt:
        return et::Argument::from_int(v.to_int());
      case IValue::Tag::kDouble:
        return et::Argument::from_double(v.to_double());
      case IValue::Tag::kBool:
        return et::Argument::from_bool(v.to_bool());
      case IValue::Tag::kIntList:
        return et::Argument::from_int_list(v.int_list());
      case IValue::Tag::kString:
        return et::Argument::from_string(v.str());
    }
    return et::Argument::none();
}

std::vector<IValue>
Session::dispatch(const OpDef& def, std::vector<IValue> inputs)
{
    const int64_t node_id = next_node_id_++;
    const int64_t parent = call_stack_.empty() ? -1 : call_stack_.back().node_id;
    const sim::TimeUs start = clock().now();

    // Host-side dispatch cost.
    cpu_advance(opts_.platform.dispatch_us * opts_.dispatch.op_cost_scale + def.extra_cpu_us);

    const bool observing = et_observer_ != nullptr && et_observer_->active();
    std::vector<et::Argument> in_args;
    if (observing) {
        in_args.reserve(inputs.size());
        for (const auto& v : inputs)
            in_args.push_back(ivalue_to_argument(v));
    }

    call_stack_.push_back({node_id, def.name, start, tid_, /*is_wrapper=*/false});
    const int64_t saved_pg = current_pg_id_;
    current_pg_id_ = -1;

    std::vector<IValue> outputs = def.fn(*this, inputs);

    const int64_t node_pg = current_pg_id_;
    current_pg_id_ = saved_pg;
    call_stack_.pop_back();
    const sim::TimeUs end = clock().now();

    if (observing) {
        et::Node node;
        node.id = node_id;
        node.name = def.name;
        node.op_id.store(def.id);
        node.parent = parent;
        node.kind = et::NodeKind::kOperator;
        node.category = def.category;
        node.op_schema = def.schema;
        node.tid = tid_;
        node.inputs = std::move(in_args);
        node.outputs.reserve(outputs.size());
        for (const auto& v : outputs)
            node.outputs.push_back(ivalue_to_argument(v));
        node.pg_id = node_pg;
        et_observer_->record(std::move(node));
    }

    if (profiler_ != nullptr && profiler_->active()) {
        prof::CpuOpEvent ev;
        ev.name = def.name;
        ev.tid = tid_;
        ev.ts = start;
        ev.dur = end - start;
        ev.node_id = node_id;
        ev.category = def.category;
        ev.is_wrapper = false;
        profiler_->record_cpu_op(std::move(ev));
    }

    maybe_record_tape(def, inputs, outputs);
    return outputs;
}

void
Session::maybe_record_tape(const OpDef& def, const std::vector<IValue>& inputs,
                           const std::vector<IValue>& outputs)
{
    if (!grad_enabled_ || !def.backward || def.composite)
        return;
    bool any_requires = false;
    for (const auto& v : inputs) {
        for (const auto& t : v.referenced_tensors()) {
            if (t.requires_grad()) {
                any_requires = true;
                break;
            }
        }
        if (any_requires)
            break;
    }
    if (!any_requires)
        return;

    autograd::TapeNode node;
    node.op_id = def.id;
    if (def.id == kInvalidOpId) {
        node.dynamic_backward = def.backward;
        node.dynamic_grad_name = def.grad_name.empty() ? def.name : def.grad_name;
    }
    node.ctx.inputs = inputs;
    node.ctx.outputs = outputs;
    for (const auto& v : outputs) {
        for (const auto& t : v.referenced_tensors())
            node.output_tensors.push_back(t.impl_ptr());
    }
    engine_->record(std::move(node));
}

void
Session::push_scope(const std::string& name)
{
    const int64_t node_id = next_node_id_++;
    const sim::TimeUs start = clock().now();
    cpu_advance(opts_.dispatch.wrapper_cost_us);
    call_stack_.push_back({node_id, name, start, tid_, /*is_wrapper=*/true});
}

void
Session::pop_scope()
{
    MYST_CHECK_MSG(!call_stack_.empty() && call_stack_.back().is_wrapper,
                   "pop_scope without matching push_scope");
    const ScopeFrame frame = call_stack_.back();
    call_stack_.pop_back();
    const sim::TimeUs end = clock().now();
    const int64_t parent = call_stack_.empty() ? -1 : call_stack_.back().node_id;

    if (et_observer_ != nullptr && et_observer_->active()) {
        et::Node node;
        node.id = frame.node_id;
        node.name = frame.name;
        node.parent = parent;
        node.kind = et::NodeKind::kWrapper;
        node.category = dev::OpCategory::kOther;
        node.tid = frame.tid;
        et_observer_->record(std::move(node));
    }
    if (profiler_ != nullptr && profiler_->active()) {
        prof::CpuOpEvent ev;
        ev.name = frame.name;
        ev.tid = frame.tid;
        ev.ts = frame.start_us;
        ev.dur = end - frame.start_us;
        ev.node_id = frame.node_id;
        ev.category = dev::OpCategory::kOther;
        ev.is_wrapper = true;
        profiler_->record_cpu_op(std::move(ev));
    }
}

Tensor
Session::alloc(Shape shape, DType dtype, bool force_materialize)
{
    const bool mat = numeric() || force_materialize || dtype != DType::kFloat32;
    Tensor t = Tensor::create(std::move(shape), dtype, mat, arena_);
    t.impl()->device =
        opts_.platform.is_gpu ? "cuda:" + std::to_string(opts_.rank) : "cpu";
    t.set_ready_us(clock().now());
    return t;
}

const dev::KernelRecord&
Session::launch(dev::KernelDesc desc, int stream, const std::vector<Tensor>& inputs,
                const std::vector<Tensor>& outputs, std::optional<double> fixed_duration_us,
                std::optional<double> start_at_us)
{
    MYST_CHECK_MSG(!call_stack_.empty(), "kernel launch outside of an operator");
    const int actual_stream = stream_override_.value_or(stream);

    // Host pays the launch call.
    cpu_advance(opts_.dispatch.kernel_launch_cpu_us);

    sim::TimeUs ready = clock().now();
    for (const auto& t : inputs) {
        if (t.defined())
            ready = std::max(ready, t.ready_us());
    }
    if (start_at_us.has_value())
        ready = std::max(ready, *start_at_us);

    const auto& rec =
        device_.launch(desc, actual_stream, ready, &rng_, fixed_duration_us);
    for (const auto& t : outputs) {
        if (t.defined())
            t.impl()->ready_us = rec.interval.end;
    }

    // CPU-style platforms execute synchronously: the host blocks.
    if (!opts_.platform.is_gpu)
        clock().advance_to(rec.interval.end);

    if (profiler_ != nullptr && profiler_->active()) {
        prof::KernelEvent ev;
        ev.name = rec.desc.name;
        ev.stream = actual_stream;
        ev.ts = rec.interval.start;
        ev.dur = rec.interval.duration();
        ev.correlation = call_stack_.back().node_id;
        ev.category = rec.desc.category;
        ev.kind = rec.desc.kind;
        ev.flops = rec.desc.flops;
        ev.bytes = rec.desc.bytes;
        ev.micro = rec.micro;
        profiler_->record_kernel(std::move(ev));
    }
    return rec;
}

void
Session::backward(const Tensor& loss)
{
    // The autograd thread starts when backward() is invoked and the main
    // thread blocks until it completes (PyTorch eager semantics).
    autograd_clock_.advance_to(main_clock_.now());
    engine_->run_backward(*this, loss, grad_hooks_);
    main_clock_.advance_to(autograd_clock_.now());
}

void
Session::add_post_grad_hook(GradHook hook)
{
    grad_hooks_.push_back(std::move(hook));
}

std::size_t
Session::tape_size() const
{
    return engine_->size();
}

void
Session::add_process_group(int64_t pg_id, std::shared_ptr<comm::ProcessGroup> pg)
{
    MYST_CHECK(pg != nullptr);
    process_groups_[pg_id] = std::move(pg);
}

const std::shared_ptr<comm::ProcessGroup>&
Session::process_group(int64_t pg_id) const
{
    auto it = process_groups_.find(pg_id);
    if (it == process_groups_.end())
        MYST_THROW(ConfigError, "no process group registered under id " << pg_id);
    return it->second;
}

bool
Session::has_process_group(int64_t pg_id) const
{
    return process_groups_.count(pg_id) != 0;
}

std::map<int64_t, std::vector<int>>
Session::process_group_defs() const
{
    std::map<int64_t, std::vector<int>> defs;
    for (const auto& [id, pg] : process_groups_)
        defs[id] = pg->ranks();
    return defs;
}

} // namespace mystique::fw
