#pragma once

/// @file
/// Simulated c10d: a shared fabric with rendezvous semantics, and per-rank
/// process-group handles.
///
/// Each simulated rank runs on its own OS thread with a private virtual
/// clock.  A collective rendezvouses: every member posts its arrival time
/// (host launch time, input readiness and its comm-stream tail, max-combined
/// by the caller); the last arrival computes
///
///     end = max(arrivals) + NetworkModel::collective_us(...)
///
/// and all members place a kernel of that duration ending at `end` on their
/// comm streams.  Ranks issuing mismatched collectives at the same sequence
/// number are detected and reported — the deadlock hazard §4.1 warns about
/// when ETs are captured from different iterations.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/network_model.h"
#include "sim/timeline.h"

namespace mystique::comm {

/// Result of one collective for one rank.
struct CollectiveResult {
    sim::TimeUs start_us = 0.0; ///< end - duration
    sim::TimeUs end_us = 0.0;
    double duration_us = 0.0;
};

/// Shared state for a communicator world; one instance per simulated job,
/// shared by all rank threads.  Thread-safe.
class CommFabric {
  public:
    /// @param world_size  number of ranks in the job
    /// @param model       collective cost model
    explicit CommFabric(int world_size, NetworkModel model = NetworkModel{});

    int world_size() const { return world_size_; }
    const NetworkModel& model() const { return model_; }

    /// Registers a process group over @p ranks; returns its group ID.
    /// Idempotent for identical rank sets: returns the existing ID.
    int64_t new_group(std::vector<int> ranks);

    /// Ranks of a group; throws ConfigError for unknown IDs.
    const std::vector<int>& group_ranks(int64_t group_id) const;

    /// Group containing all ranks (created on construction, ID 0).
    int64_t world_group() const { return 0; }

    /// Blocks the calling rank thread until all group members arrive at the
    /// same sequence number, then returns the shared timing.
    ///
    /// @param signature  op identity (kind + bytes); mismatches across ranks
    ///                   at one sequence number throw ReplayError everywhere.
    /// @param fixed_duration_us  when >= 0, overrides the modeled duration
    ///                   (scale-down emulation injects delays this way)
    CollectiveResult rendezvous(int64_t group_id, int rank, CollectiveKind kind,
                                double bytes, sim::TimeUs arrival_us,
                                const std::string& signature,
                                double fixed_duration_us = -1.0);

  private:
    struct Slot {
        int arrived = 0;
        int departed = 0;
        sim::TimeUs max_arrival = 0.0;
        std::string signature;
        bool mismatch = false;
        CollectiveResult result;
        bool complete = false;
    };

    int world_size_;
    NetworkModel model_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<int64_t, std::vector<int>> groups_;
    int64_t next_group_id_ = 0;
    /// Rendezvous slots keyed by (group, per-group sequence number).
    std::map<std::pair<int64_t, int64_t>, Slot> slots_;
    std::map<int64_t, std::map<int, int64_t>> next_seq_; // group → rank → seq
};

/// Per-rank handle over a fabric group (the c10d ProcessGroup analogue).
class ProcessGroup {
  public:
    ProcessGroup(std::shared_ptr<CommFabric> fabric, int64_t group_id, int rank);

    int rank() const { return rank_; }
    int size() const;
    int64_t group_id() const { return group_id_; }
    const std::vector<int>& ranks() const;
    CommFabric& fabric() { return *fabric_; }

    /// Executes one collective; blocks (on the OS thread, not in virtual
    /// time) until all members arrive.
    CollectiveResult collective(CollectiveKind kind, double bytes, sim::TimeUs arrival_us);

    /// When set, collective durations are computed by the cost model for
    /// @p world_size ranks instead of rendezvousing at the modeled size —
    /// the paper's scaled-down performance emulation (§7.3).
    void set_emulated_world_size(int world_size) { emulated_world_size_ = world_size; }

  private:
    std::shared_ptr<CommFabric> fabric_;
    int64_t group_id_;
    int rank_;
    int emulated_world_size_ = 0; // 0 = off
};

} // namespace mystique::comm
