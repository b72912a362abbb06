#include "core/replayer.h"

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/plan_cache.h"
#include "framework/fused_chain.h"
#include "sim/timeline.h"

namespace mystique::core {

namespace {

/// Weight of the cross-stream contention penalty applied at the end of each
/// async iteration: the iteration clock advances by
/// `alpha * MultiStreamTimeline::overlap_excess()` after the device drains.
/// alpha = 0 would model perfectly free overlap; a small positive value
/// reflects that concurrent streams share SMs and memory bandwidth, so
/// overlapped busy time is slightly slower than the sum of its parts.
constexpr double kStreamContentionAlpha = 0.05;

/// Immutable per-run scheduling state derived from a plan's DepGraph: the
/// per-stream FIFO lanes (ascending stream id, units in program order) and
/// the reverse dependency adjacency used to retire edges as units finish.
struct AsyncSchedule {
    struct Lane {
        int stream = 0;
        std::vector<int> units; ///< unit indices, program order
    };
    std::vector<Lane> lanes;
    std::vector<std::vector<int>> dependents; ///< unit → later dependent units
    std::vector<int> base_indegree;           ///< unit → number of deps
};

AsyncSchedule
build_schedule(const DepGraph& graph)
{
    AsyncSchedule sched;
    const std::size_t n = graph.units.size();
    sched.dependents.resize(n);
    sched.base_indegree.resize(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
        const DepUnit& unit = graph.units[u];
        sched.base_indegree[u] = static_cast<int>(unit.deps.size());
        for (int d : unit.deps)
            sched.dependents[static_cast<std::size_t>(d)].push_back(static_cast<int>(u));
        auto it = std::find_if(sched.lanes.begin(), sched.lanes.end(),
                               [&](const AsyncSchedule::Lane& l) {
                                   return l.stream >= unit.stream;
                               });
        if (it == sched.lanes.end() || it->stream != unit.stream)
            it = sched.lanes.insert(it, AsyncSchedule::Lane{unit.stream, {}});
        it->units.push_back(static_cast<int>(u));
    }
    return sched;
}

/// Executes one fused group: resolves the chain input and operands, runs the
/// loop-fused interpreter kernel, binds the final output.
void
execute_fused_group(fw::Session& session, const FusedGroup& group, TensorManager& tm)
{
    thread_local fw::FusedChainCall call; // reused: vectors keep capacity
    call.stages = group.stages.data();
    call.n_stages = group.stages.size();
    call.dead = group.dead;
    call.input = tm.resolve(group.input_meta);
    call.operands.clear();
    for (const auto& m : group.operand_metas)
        call.operands.push_back(tm.resolve(m));
    if (!group.dead)
        call.out_shape = call.input.shape(); // what each verbatim link allocs

    fw::run_fused_chain(session, call);

    if (!group.dead)
        tm.bind_output(group.output_meta, call.out);
    call.input = fw::Tensor();
    call.out = fw::Tensor();
    call.operands.clear();
}

/// Runs one plan unit on its recorded thread and stream: a whole fused group
/// as one loop-fused interpreter call issued at its head, or one standalone
/// op.  The only dispatcher of plan units; both walks call it.  Under node
/// reseeding (the async lanes) a standalone op's randomness is keyed on its
/// node, and fused groups reseed per stage inside run_fused_chain; otherwise
/// draws follow the sequential order byte-for-byte.
void
run_unit(fw::Session& session, const ReplayPlan& plan, const DepUnit& unit, TensorManager& tm)
{
    if (unit.group >= 0) {
        const FusedGroup& group = plan.fused_groups()[static_cast<std::size_t>(unit.group)];
        session.switch_thread(group.tid);
        session.set_stream_override(group.stream);
        execute_fused_group(session, group, tm);
    } else {
        const ReconstructedOp& op = plan.ops()[static_cast<std::size_t>(unit.head)];
        if (session.node_reseed_mode())
            session.reseed_for_node(op.node->id);
        session.switch_thread(op.node->tid);
        session.set_stream_override(op.stream);
        execute_reconstructed(session, op, tm);
    }
    session.set_stream_override(std::nullopt);
}

/// Runs one iteration of the dependency-tracked multi-stream executor.
///
/// The scheduler is deterministic and cooperative: every stream is a FIFO
/// lane with its own virtual clock (reset to @p iter_start), and the next
/// unit executed is always the eligible lane head with the earliest lane
/// clock (ties broken by ascending stream id).  Eligible means every
/// dependency edge has retired.  Because per-node reseeding makes each
/// unit's randomness a pure function of its identity, and each kernel's
/// start time is a pure function of its lane clock, stream FIFO tail and
/// input readiness, the resulting timeline and numerics are independent of
/// the interleaving — async replay is bit-identical per stream to any other
/// schedule of the same graph.
///
/// @return the iteration end time: all lanes joined, device drained, plus
///         the cross-stream contention penalty.
sim::TimeUs
run_async_iteration(fw::Session& session, const ReplayPlan& plan, TensorManager& tm,
                    const AsyncSchedule& sched, const CancelToken* cancel,
                    sim::TimeUs iter_start)
{
    const DepGraph& graph = plan.dep_graph();
    const std::size_t n_units = graph.units.size();
    const std::size_t first_record = session.device().records().size();

    std::vector<int> indegree = sched.base_indegree;
    std::vector<std::size_t> next(sched.lanes.size(), 0);
    std::vector<sim::VirtualClock> clocks(sched.lanes.size());
    for (auto& clk : clocks)
        clk.reset(iter_start);

    session.set_node_reseed_mode(true);

    std::size_t executed = 0;
    while (executed < n_units) {
        // Pick the eligible lane head with the earliest clock.  Every edge
        // build_dep_graph emits points to an earlier unit, so the earliest
        // remaining unit in program order is always an eligible lane head;
        // a stall (no eligible head while work remains) is a bug, so fail
        // loudly.
        std::size_t pick = sched.lanes.size();
        for (std::size_t li = 0; li < sched.lanes.size(); ++li) {
            if (next[li] >= sched.lanes[li].units.size())
                continue;
            const int u = sched.lanes[li].units[next[li]];
            if (indegree[static_cast<std::size_t>(u)] != 0)
                continue;
            if (pick == sched.lanes.size() || clocks[li].now() < clocks[pick].now())
                pick = li;
        }
        MYST_CHECK_MSG(pick < sched.lanes.size(),
                       "async executor stalled: no eligible stream head");

        // Same cooperative cancel contract as the serial walk: between
        // units, never inside one.
        if (cancel != nullptr)
            cancel->throw_if_expired("replay cancelled between units");

        const int u = sched.lanes[pick].units[next[pick]];
        // Under the lane clock, switch_thread only relabels tid.
        session.set_clock_override(&clocks[pick]);
        run_unit(session, plan, graph.units[static_cast<std::size_t>(u)], tm);

        ++next[pick];
        ++executed;
        for (int v : sched.dependents[static_cast<std::size_t>(u)])
            --indegree[static_cast<std::size_t>(v)];
    }

    // Join: the main clock resumes at the latest lane time, then blocks on
    // the device drain, then pays the contention penalty for busy time that
    // ran concurrently across streams this iteration.
    sim::TimeUs lanes_end = iter_start;
    for (const auto& clk : clocks)
        lanes_end = std::max(lanes_end, clk.now());
    session.set_clock_override(nullptr);
    session.set_node_reseed_mode(false);
    session.set_tid(fw::kMainThread);
    session.cpu_advance_to(lanes_end);
    session.sync_device();

    sim::MultiStreamTimeline timeline;
    const std::vector<dev::KernelRecord>& records = session.device().records();
    for (std::size_t i = first_record; i < records.size(); ++i)
        timeline.add(records[i].stream_id, records[i].interval);
    session.cpu_advance(kStreamContentionAlpha * timeline.overlap_excess());
    return session.cpu_now();
}

/// Process-wide executor state for run_distributed: one shared ThreadPool
/// (grown to the largest world size seen, then reused) plus one cached
/// Session per rank slot.  Repeated distributed replays — the §7.3 scale-down
/// sweeps and every bench that replays the same job N times — stop paying
/// one OS-thread spawn and one cold Session (device tables, arena, autograd
/// engine) per rank per call: sessions are rewound with reset_for_replay(),
/// which deliberately keeps each rank's StorageArena, so rank r's second
/// replay recycles rank r's buffers.
///
/// Sessions are exclusive state, so concurrent run_distributed calls
/// serialize on `mu` (they used to interleave on private ad-hoc threads; a
/// distributed replay saturates the host anyway, so back-to-back is the
/// faster schedule for the calls too).  Rank tasks rendezvous inside
/// collectives, which means every rank of a call MUST run concurrently —
/// the pool is therefore never smaller than the current world size.
class DistributedReplayPool {
  public:
    static DistributedReplayPool& instance()
    {
        static DistributedReplayPool pool;
        return pool;
    }

    /// Guards the session slots across whole run_distributed calls.
    std::mutex mu;

    /// The shared pool, grown (never shrunk) to hold @p world concurrent
    /// rank tasks.  Growth rebuilds the pool; the common repeated-replay
    /// case reuses the existing threads untouched.
    ThreadPool& thread_pool(std::size_t world)
    {
        if (pool_ == nullptr || pool_->size() < world)
            pool_ = std::make_unique<ThreadPool>(world);
        return *pool_;
    }

    /// The cached session for @p rank, rewound for a fresh replay.  Rebuilt
    /// only when the slot's session options differ from the ones @p cfg
    /// gives for (rank, world); a rebuild drops that rank's arena, a reuse
    /// keeps it.
    fw::Session& rank_session(int rank, int world, const ReplayConfig& cfg)
    {
        fw::SessionOptions opts = cfg.session_options(rank, world);
        if (sessions_.size() < static_cast<std::size_t>(world))
            sessions_.resize(static_cast<std::size_t>(world));
        std::unique_ptr<fw::Session>& slot = sessions_[static_cast<std::size_t>(rank)];
        if (slot == nullptr || slot->options() != opts)
            slot = std::make_unique<fw::Session>(std::move(opts));
        else
            slot->reset_for_replay();
        return *slot;
    }

  private:
    DistributedReplayPool() = default;

    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::unique_ptr<fw::Session>> sessions_;
};

} // namespace

Replayer::Replayer(const et::ExecutionTrace& trace, const prof::ProfilerTrace* original_prof,
                   ReplayConfig cfg)
    : plan_(ReplayPlan::build_borrowing(trace, original_prof, cfg)), cfg_(std::move(cfg))
{
}

Replayer::Replayer(std::shared_ptr<const ReplayPlan> plan, ReplayConfig cfg)
    : plan_(std::move(plan)), cfg_(std::move(cfg))
{
    MYST_CHECK(plan_ != nullptr);
    // Executing a plan under a config it was not built for silently replays
    // the wrong selection/embedding/mode; the key makes the misuse loud.
    MYST_CHECK_MSG(plan_->key().config_fp == cfg_.fingerprint(),
                   "ReplayConfig does not match the config the plan was built under");
}

void
Replayer::register_process_groups(fw::Session& session,
                                  const std::shared_ptr<comm::CommFabric>& fabric)
{
    for (const auto& [pg_id, orig_ranks] : plan_->trace().meta().process_groups) {
        // Map the original group onto the replay world: members beyond the
        // replay world size exist only in the emulated dimension (§7.3).
        std::vector<int> ranks;
        for (int r : orig_ranks) {
            if (r < fabric->world_size())
                ranks.push_back(r);
        }
        if (ranks.empty() ||
            std::find(ranks.begin(), ranks.end(), session.rank()) == ranks.end())
            continue;
        const int64_t new_gid = fabric->new_group(ranks);
        auto pg = std::make_shared<comm::ProcessGroup>(fabric, new_gid, session.rank());
        if (cfg_.emulate_world_size > 0) {
            pg->set_emulated_world_size(cfg_.emulate_world_size);
        } else if (cfg_.emulate_world_size == -1) {
            pg->set_emulated_world_size(static_cast<int>(orig_ranks.size()));
        }
        session.add_process_group(pg_id, pg);
    }
}

ReplayResult
Replayer::run(const CancelToken* cancel)
{
    fw::Session session(cfg_.session_options(0, 1));
    auto fabric = std::make_shared<comm::CommFabric>(1);
    return run_with(session, fabric, cancel);
}

ReplayResult
Replayer::run_with(fw::Session& session, const std::shared_ptr<comm::CommFabric>& fabric,
                   const CancelToken* cancel)
{
    register_process_groups(session, fabric);

    // Replay executes recorded backward ops explicitly; no taping.
    session.set_grad_enabled(false);

    const std::vector<ReconstructedOp>& ops = plan_->ops();

    TensorManager tm(session, cfg_.embedding);
    std::vector<const et::Node*> selected_nodes;
    selected_nodes.reserve(ops.size());
    for (const auto& op : ops) {
        if (op.kind != ReconstructedOp::Kind::kSkipped)
            selected_nodes.push_back(op.node);
    }
    tm.analyze(selected_nodes);
    tm.instantiate_externals();

    // The profiler is a stack local, and the async walk installs lane clocks,
    // node reseeding and stream overrides.  Undo all of it on every exit
    // path of either walk (a CancelledError between units included), so a
    // reused session never holds a dangling pointer or a sticky mode.
    prof::ProfilerSession profiler;
    session.attach_profiler(&profiler);
    struct ExitGuard {
        fw::Session& session;
        ~ExitGuard()
        {
            session.attach_profiler(nullptr);
            session.set_clock_override(nullptr);
            session.set_node_reseed_mode(false);
            session.set_stream_override(std::nullopt);
        }
    } exit_guard{session};

    ReplayResult result;
    result.coverage = plan_->coverage();

    // Both walks run the plan's dependency-graph units through run_unit.
    // The serial walk takes them in program order on the session's own
    // clocks; the multi-stream executor (MYST_ASYNC, §4.5's stream semantics
    // taken to their concurrent conclusion) schedules them over per-stream
    // lanes.  The schedule skeleton is built once per replay; per-iteration
    // state (lane clocks, retired-edge counters) is local to
    // run_async_iteration.
    const bool async_mode = cfg_.async_level > 0;
    AsyncSchedule sched;
    if (async_mode)
        sched = build_schedule(plan_->dep_graph());

    const int total_iters = cfg_.warmup_iterations + cfg_.iterations;
    sim::TimeUs timed_start = 0.0;
    for (int iter = 0; iter < total_iters; ++iter) {
        // Profile exactly one iteration, mirroring the original-run harness
        // (so similarity compares like for like).
        const bool profiled = cfg_.collect_profiler && iter == cfg_.warmup_iterations;
        if (profiled)
            profiler.start();
        const sim::TimeUs iter_start = session.sync_device();
        if (iter == cfg_.warmup_iterations)
            timed_start = iter_start;

        sim::TimeUs iter_end = iter_start;
        if (async_mode) {
            iter_end = run_async_iteration(session, *plan_, tm, sched, cancel, iter_start);
        } else {
            for (const DepUnit& unit : plan_->dep_graph().units) {
                // Cooperative deadline/cancel point: between units, never
                // inside one — a kernel that started always completes, so
                // cancellation can never tear the simulated device state.
                if (cancel != nullptr)
                    cancel->throw_if_expired("replay cancelled between units");
                run_unit(session, *plan_, unit, tm);
            }
            session.switch_thread(fw::kMainThread);
            iter_end = session.sync_device();
        }
        if (iter >= cfg_.warmup_iterations)
            result.iter_us.push_back(iter_end - iter_start);
        if (profiled)
            profiler.stop();
    }

    RunningStat stat;
    for (double t : result.iter_us)
        stat.add(t);
    result.mean_iter_us = stat.mean();
    result.metrics = session.device().metrics(timed_start, session.cpu_now());
    result.prof = profiler.take_trace();
    result.numeric_digest = tm.digest();
    return result;
}

std::vector<ReplayResult>
Replayer::run_distributed(const std::vector<const et::ExecutionTrace*>& traces,
                          const std::vector<const prof::ProfilerTrace*>& profs,
                          ReplayConfig cfg, comm::Topology topo)
{
    MYST_CHECK(!traces.empty());
    MYST_CHECK(profs.size() == traces.size());
    const int world = static_cast<int>(traces.size());
    auto fabric = std::make_shared<comm::CommFabric>(world, comm::NetworkModel(topo));

    // Exclusive use of the shared pool and its per-rank sessions for the
    // whole call; concurrent run_distributed calls queue here.
    DistributedReplayPool& shared = DistributedReplayPool::instance();
    std::lock_guard<std::mutex> lock(shared.mu);
    ThreadPool& pool = shared.thread_pool(static_cast<std::size_t>(world));

    // Sessions are prepared (reused + reset, or rebuilt) on the caller's
    // thread — the rank tasks then each own exactly one session, as before.
    std::vector<fw::Session*> sessions(static_cast<std::size_t>(world));
    for (int rank = 0; rank < world; ++rank)
        sessions[static_cast<std::size_t>(rank)] = &shared.rank_session(rank, world, cfg);

    std::vector<ReplayResult> results(static_cast<std::size_t>(world));
    std::vector<std::string> errors(static_cast<std::size_t>(world));
    std::vector<std::future<void>> done;
    done.reserve(static_cast<std::size_t>(world));
    for (int rank = 0; rank < world; ++rank) {
        done.push_back(pool.submit([&, rank] {
            try {
                // Each rank fetches its plan through the process-wide cache
                // *inside* its task: equivalent ranks — all of them, in the
                // §7.3 scale-down and data-parallel cases — share one plan
                // built exactly once (the cache's per-key future serializes
                // same-key builds), while ranks with structurally distinct
                // traces build their plans in parallel.
                const std::shared_ptr<const ReplayPlan> plan =
                    PlanCache::instance().get_or_build(
                        *traces[static_cast<std::size_t>(rank)],
                        profs[static_cast<std::size_t>(rank)], cfg);
                Replayer replayer(plan, cfg);
                results[static_cast<std::size_t>(rank)] = replayer.run_with(
                    *sessions[static_cast<std::size_t>(rank)], fabric);
            } catch (const std::exception& e) {
                errors[static_cast<std::size_t>(rank)] = e.what();
            }
        }));
    }
    for (auto& f : done)
        f.get(); // rank errors are reported below; the tasks never throw
    for (int rank = 0; rank < world; ++rank) {
        if (!errors[static_cast<std::size_t>(rank)].empty())
            MYST_THROW(ReplayError,
                       "rank " << rank << " replay failed: "
                               << errors[static_cast<std::size_t>(rank)]);
    }
    return results;
}

} // namespace mystique::core
