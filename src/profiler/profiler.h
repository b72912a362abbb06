#pragma once

/// @file
/// Profiler trace container, session, and timeline analysis.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "profiler/events.h"

namespace mystique::prof {

/// Aggregate timing by operator category (drives Figure 2).
struct CategoryBreakdown {
    int64_t count = 0;
    double cpu_time_us = 0.0;
    double gpu_time_us = 0.0;
    double exposed_gpu_time_us = 0.0;
};

/// A complete per-process profiler trace.
class ProfilerTrace {
  public:
    void add_cpu_op(CpuOpEvent ev) { cpu_ops_.push_back(std::move(ev)); }
    void add_kernel(KernelEvent ev)
    {
        kernels_.push_back(std::move(ev));
        rfp_.reset();
    }

    const std::vector<CpuOpEvent>& cpu_ops() const { return cpu_ops_; }
    const std::vector<KernelEvent>& kernels() const { return kernels_; }

    /// Wall-clock span of all activity (first start to last end).
    sim::Interval span() const;

    /// Kernels launched by a given ET node.
    std::vector<const KernelEvent*> kernels_for_node(int64_t node_id) const;

    /// Stream(s) used by a given ET node's kernels, deduplicated in launch
    /// order — the op→stream mapping of §4.5.
    std::vector<int> streams_for_node(int64_t node_id) const;

    /// Per-category operator counts, CPU time, GPU time, and *exposed* GPU
    /// time (portion not overlapped by kernels of other categories), as in
    /// Figure 2.  CPU time counts only operator nodes (wrappers excluded)
    /// and excludes double-counting of nested ops via self-time attribution.
    std::map<dev::OpCategory, CategoryBreakdown> category_breakdown() const;

    /// Total device time per kernel name, descending — Figure 6's "top-10
    /// kernels by runtime" selection.
    std::vector<std::pair<std::string, double>> top_kernels_by_time(std::size_t k) const;

    /// Chrome-trace ("chrome://tracing") JSON export, viewable alongside the
    /// paper's Figures 4 and 9.
    Json to_chrome_trace() const;
    void save_chrome_trace(const std::string& path) const;

    /// Structured (lossless) serialization: from_json(to_json()) restores
    /// every field of every event.  from_json requires every member to_json
    /// writes and throws ParseError on a missing or mistyped member or an
    /// unknown category or kernel kind name.
    Json to_json() const;
    static ProfilerTrace from_json(const Json& j);

    /// Stable hash over the kernel fields that determine replay *behavior*:
    /// the per-kernel (correlation, stream) pairs in launch order — the
    /// op→stream mapping of §4.5.  Two profiler traces with equal replay
    /// fingerprints produce plans with identical stream assignments, so this
    /// is the PlanCache's prof key component.  Timestamps and durations are
    /// deliberately excluded: they carry per-rank simulation jitter that
    /// never matches across equivalent runs, and they only feed the plan's
    /// *coverage statistics*, which are representative-level by the §8.2
    /// grouping semantics anyway.  Lazily computed and cached (CachedHash),
    /// invalidated by add_kernel; cpu-op events are not hashed because plan
    /// building never reads them.
    uint64_t replay_fingerprint() const;

  private:
    std::vector<CpuOpEvent> cpu_ops_;
    std::vector<KernelEvent> kernels_;

    CachedHash rfp_;
};

/// Active recording handle attached to a Session (torch.profiler.profile).
class ProfilerSession {
  public:
    void start() { active_ = true; trace_ = ProfilerTrace{}; }
    void stop() { active_ = false; }
    bool active() const { return active_; }

    void record_cpu_op(CpuOpEvent ev);
    void record_kernel(KernelEvent ev);

    const ProfilerTrace& trace() const { return trace_; }
    ProfilerTrace take_trace() { return std::move(trace_); }

  private:
    bool active_ = false;
    ProfilerTrace trace_;
};

} // namespace mystique::prof
