#pragma once

/// @file
/// Session: the per-process (per-rank) execution context.
///
/// Every operator invocation flows through Session::call(), which
///  1. assigns the node ID (increasing in execution order, §3.1),
///  2. charges host-side dispatch cost to the current virtual CPU thread,
///  3. records the ET node (when an observer is active) with schema-ordered
///     argument metadata and tensor IDs,
///  4. records profiler CPU-op and kernel events (when profiling),
///  5. pushes an autograd tape entry for differentiable ops.
///
/// Leaf operator bodies launch device kernels via Session::launch(); the
/// kernel start honours the host launch time, the destination stream's FIFO
/// tail, and input-tensor readiness (cross-stream dependencies), which is
/// how compute/communication overlap and exposed time emerge.
///
/// Replay runs use the same Session machinery with a different
/// DispatchProfile and with per-op stream overrides taken from the profiler
/// trace — replay differences are emergent, not injected.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "common/rng.h"
#include "device/device.h"
#include "et/trace.h"
#include "framework/ivalue.h"
#include "framework/op_registry.h"
#include "framework/types.h"
#include "profiler/profiler.h"

namespace mystique::fw {

/// Host-side overhead constants for a dispatch path.
///
/// The eager path pays per-op Python/framework overhead on every node,
/// including wrapper frames; the replay path pays a slightly higher per-op
/// constant (compiled-IR callable invocation + tensor-registry lookups) but
/// no wrapper frames.  This asymmetry reproduces the paper's error pattern:
/// replay is slightly *faster* for deeply-nested few-op models and slightly
/// *slower* for many-small-op models like ResNet (Table 4).
struct DispatchProfile {
    double op_cost_scale = 1.0;
    double wrapper_cost_us = 1.6;
    double kernel_launch_cpu_us = 2.4;

    /// Eager-mode constants.
    static DispatchProfile eager();
    /// Replay-mode constants (§5: single generated program, direct calls).
    static DispatchProfile replay();

    bool operator==(const DispatchProfile&) const = default;
};

/// Session construction options.
struct SessionOptions {
    dev::PlatformSpec platform = dev::a100();
    ExecMode mode = ExecMode::kNumeric;
    uint64_t seed = 0x5eed;
    int rank = 0;
    int world_size = 1;
    std::optional<double> power_limit_w;
    DispatchProfile dispatch = DispatchProfile::eager();

    bool operator==(const SessionOptions&) const = default;
};

/// Thread IDs used in traces (Figure 4 shows these two).
inline constexpr int kMainThread = 1;
inline constexpr int kAutogradThread = 2;

namespace autograd {
class Engine;
struct TapeNode;
} // namespace autograd

/// The per-rank execution context.  Not thread-safe; in distributed runs
/// each rank thread owns one Session.
class Session {
  public:
    explicit Session(SessionOptions opts);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    // ------------------------------------------------------------------ ops

    /// Invokes a registered operator with schema-ordered arguments.
    /// The OpId overloads are the hot path (O(1) flat-vector resolution);
    /// the string overloads resolve the name once and delegate.
    std::vector<IValue> call(OpId op, std::vector<IValue> inputs);
    std::vector<IValue> call(const std::string& op_name, std::vector<IValue> inputs);

    /// Convenience: call and return the single tensor output.
    Tensor call_t(OpId op, std::vector<IValue> inputs);
    Tensor call_t(const std::string& op_name, std::vector<IValue> inputs);

    /// Invokes a *dynamic* (non-registered) operator — used for JIT-fused
    /// kernels, which have no schema in the ET (§4.3.4).
    std::vector<IValue> call_dynamic(const OpDef& def, std::vector<IValue> inputs);

    // --------------------------------------------------------------- scopes

    /// Opens a wrapper node (record_function scope, autograd frame, module
    /// annotation).  Pair with pop_scope(); prefer the RecordFunction RAII.
    void push_scope(const std::string& name);
    void pop_scope();

    // ------------------------------------------- leaf-op execution services

    /// True when real numerics should run.
    bool numeric() const { return opts_.mode == ExecMode::kNumeric; }

    /// Allocates an output tensor (materialized in numeric mode, or when
    /// @p force_materialize is set — small index tensors are always real).
    /// Buffers come from the session's StorageArena: a recycled buffer keeps
    /// its previous contents, so kernels must fully write their outputs.
    Tensor alloc(Shape shape, DType dtype = DType::kFloat32, bool force_materialize = false);

    /// Launches a kernel for the currently-executing op.
    ///
    /// Ready time = max(current thread clock, inputs' ready times).  On GPU
    /// platforms the host thread only pays the launch cost and continues; on
    /// CPU platforms the host blocks for the kernel duration.
    /// @param fixed_duration_us  overrides the modeled duration (collectives,
    ///   injected scale-down delays)
    /// @param start_at_us  additional lower bound on the kernel start (used
    ///   by collectives whose rendezvous decided a global start time)
    /// @return the device record (interval, metrics).
    const dev::KernelRecord& launch(dev::KernelDesc desc, int stream,
                                    const std::vector<Tensor>& inputs,
                                    const std::vector<Tensor>& outputs,
                                    std::optional<double> fixed_duration_us = std::nullopt,
                                    std::optional<double> start_at_us = std::nullopt);

    /// Stream override for the current op (set by the replayer from the
    /// profiler trace, §4.5); empty = use the op's requested stream.
    void set_stream_override(std::optional<int> stream) { stream_override_ = stream; }

    // ----------------------------------------------------------------- time

    /// Current virtual time of the active CPU thread.
    sim::TimeUs cpu_now() const;
    /// Charges CPU time to the active thread.
    void cpu_advance(sim::TimeUs us);
    /// Blocks the active CPU thread until all device streams drain;
    /// returns the post-sync time.
    sim::TimeUs sync_device();

    /// Charges CPU time by jumping the active clock forward to @p t (no-op
    /// when @p t is in the past).
    void cpu_advance_to(sim::TimeUs t);

    /// Installs @p clk as the active CPU clock (nullptr restores the normal
    /// per-thread clocks).  The async executor gives every stream lane its
    /// own virtual clock and installs it around each unit's execution, so
    /// independent streams accumulate host time independently.  While an
    /// override is installed, switch_thread() only relabels tid — the
    /// handoff semantics belong to the serial two-thread walk.
    void set_clock_override(sim::VirtualClock* clk) { clock_override_ = clk; }

    /// Active thread (kMainThread or kAutogradThread).
    int tid() const { return tid_; }
    void set_tid(int tid);

    /// Switches the active thread with handoff clock semantics, as the
    /// replayer walks a trace whose ops interleave both threads: entering the
    /// autograd thread pulls its clock up to "now" (it starts when backward
    /// is invoked); returning to the main thread joins on the autograd
    /// thread's completion time (backward blocks the caller).
    void switch_thread(int tid);

    // ------------------------------------------------------------- autograd

    bool grad_enabled() const { return grad_enabled_; }
    void set_grad_enabled(bool v) { grad_enabled_ = v; }

    /// Runs reverse-mode autograd from @p loss on the autograd thread,
    /// blocking the main thread until completion (PyTorch semantics).
    void backward(const Tensor& loss);

    /// Hook fired when a leaf parameter's gradient is finalized during
    /// backward (DDP uses this for bucketed all-reduce overlap).
    using GradHook = std::function<void(Session&, const Tensor& param)>;
    void add_post_grad_hook(GradHook hook);

    /// The autograd tape (exposed for tests).
    std::size_t tape_size() const;

    // ---------------------------------------------------------------- comms

    /// Registers a process group under the given ET pg ID.
    void add_process_group(int64_t pg_id, std::shared_ptr<comm::ProcessGroup> pg);
    /// Lookup; throws ConfigError when absent.
    const std::shared_ptr<comm::ProcessGroup>& process_group(int64_t pg_id) const;
    bool has_process_group(int64_t pg_id) const;
    /// All registered groups: ET pg id → member ranks (stored in TraceMeta).
    std::map<int64_t, std::vector<int>> process_group_defs() const;

    // ------------------------------------------------------------ observers

    void attach_et_observer(et::ExecutionTraceObserver* obs) { et_observer_ = obs; }
    void attach_profiler(prof::ProfilerSession* p) { profiler_ = p; }

    // ------------------------------------------------------------ accessors

    const SessionOptions& options() const { return opts_; }
    dev::Device& device() { return device_; }
    const dev::Device& device() const { return device_; }
    Rng& rng() { return rng_; }
    int rank() const { return opts_.rank; }

    /// Reseeds the RNG as a pure function of (session seed, rank, node id).
    /// The async executor calls this before every unit so jitter draws stop
    /// depending on global execution order — each op's randomness becomes a
    /// function of its identity, identical at every parallelism level.
    void reseed_for_node(int64_t node_id);

    /// When set, fused-chain execution reseeds per member stage the same way
    /// (fused_chain.cpp checks it); the serial path leaves it off and keeps
    /// the sequential draw order byte-for-byte.
    bool node_reseed_mode() const { return node_reseed_mode_; }
    void set_node_reseed_mode(bool v) { node_reseed_mode_ = v; }

    /// The session's caching tensor-storage allocator (see storage_arena.h).
    StorageArena& arena() { return *arena_; }
    const StorageArena& arena() const { return *arena_; }

    /// Rewinds the session to its just-constructed state — clocks at zero,
    /// RNG reseeded, device and counters cleared, process groups dropped —
    /// while KEEPING the storage arena's cached buffers.  ReplayDriver calls
    /// this between groups so every replay starts from identical state (the
    /// parallel sweep's bit-identity depends on it) yet still recycles the
    /// previous group's tensor buffers.
    void reset_for_replay();

    /// Assigns a unique tensor ID on first observation (external tensors
    /// get theirs when first used as inputs, §4.4).
    int64_t tensor_uid(const Tensor& t);

  private:
    friend class autograd::Engine;

    struct ScopeFrame {
        int64_t node_id;
        std::string name;
        sim::TimeUs start_us;
        int tid;
        bool is_wrapper;
    };

    et::Argument ivalue_to_argument(const IValue& v);
    et::TensorMeta tensor_meta(const Tensor& t);
    std::vector<IValue> dispatch(const OpDef& def, std::vector<IValue> inputs);
    sim::VirtualClock& clock();
    const sim::VirtualClock& clock() const;
    void maybe_record_tape(const OpDef& def, const std::vector<IValue>& inputs,
                           const std::vector<IValue>& outputs);

    SessionOptions opts_;
    dev::Device device_;
    Rng rng_;
    std::shared_ptr<StorageArena> arena_;

    sim::VirtualClock main_clock_;
    sim::VirtualClock autograd_clock_;
    int tid_ = kMainThread;

    int64_t next_node_id_ = 0;
    int64_t next_tensor_uid_ = 0;
    std::vector<ScopeFrame> call_stack_;
    std::optional<int> stream_override_;
    sim::VirtualClock* clock_override_ = nullptr;
    bool node_reseed_mode_ = false;
    /// pg ID the currently-executing comm op should use (set by comm ExecFns
    /// from their arguments; recorded into the ET node).
    int64_t current_pg_id_ = -1;

    bool grad_enabled_ = true;
    std::unique_ptr<autograd::Engine> engine_;
    std::vector<GradHook> grad_hooks_;

    std::map<int64_t, std::shared_ptr<comm::ProcessGroup>> process_groups_;

    et::ExecutionTraceObserver* et_observer_ = nullptr;
    prof::ProfilerSession* profiler_ = nullptr;

  public:
    /// Set by comm ExecFns so the ET node records its process group.
    void set_current_pg(int64_t pg_id) { current_pg_id_ = pg_id; }
};

/// RAII wrapper scope, the record_function analogue (§7.1):
///
///   { fw::RecordFunction rf(sess, "## forward:z ##"); ... }
class RecordFunction {
  public:
    RecordFunction(Session& sess, const std::string& name) : sess_(sess)
    {
        sess_.push_scope(name);
    }
    ~RecordFunction() { sess_.pop_scope(); }
    RecordFunction(const RecordFunction&) = delete;
    RecordFunction& operator=(const RecordFunction&) = delete;

  private:
    Session& sess_;
};

/// RAII guard for disabling autograd (torch.no_grad()).
class NoGradGuard {
  public:
    explicit NoGradGuard(Session& sess) : sess_(sess), prev_(sess.grad_enabled())
    {
        sess_.set_grad_enabled(false);
    }
    ~NoGradGuard() { sess_.set_grad_enabled(prev_); }
    NoGradGuard(const NoGradGuard&) = delete;
    NoGradGuard& operator=(const NoGradGuard&) = delete;

  private:
    Session& sess_;
    bool prev_;
};

} // namespace mystique::fw
