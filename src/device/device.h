#pragma once

/// @file
/// Virtual device runtime: FIFO streams, kernel placement, metric windows.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "device/cost_model.h"
#include "device/kernel.h"
#include "device/platform.h"
#include "device/power_model.h"
#include "sim/timeline.h"

namespace mystique::dev {

/// Conventional stream IDs, mirroring the paper's profiler screenshots
/// (compute on stream 7, collectives on 20, memcpy on 22).
inline constexpr int kComputeStream = 7;
inline constexpr int kCommStream = 20;
inline constexpr int kMemcpyStream = 22;

/// One executed kernel with its placement and derived metrics.
struct KernelRecord {
    KernelDesc desc;
    int stream_id = kComputeStream;
    sim::Interval interval;
    /// Links the kernel to the launching CPU op in the profiler trace.
    uint64_t correlation = 0;
    MicroMetrics micro;
    double dynamic_energy = 0.0; ///< W·us dissipated by this kernel
};

/// Aggregated device metrics over a time window (Figure 5 / Table 5 rows).
struct DeviceMetrics {
    double window_us = 0.0;
    double sm_util_pct = 0.0;   ///< mean SM activity, percent
    double hbm_gbps = 0.0;      ///< mean DRAM traffic, GB/s
    double power_w = 0.0;       ///< mean board power, W
    double busy_pct = 0.0;      ///< fraction of window with ≥1 kernel resident
    double kernel_time_us = 0.0;///< Σ kernel durations (overlap counted twice)
};

/// A virtual accelerator (or CPU socket) owning FIFO streams.
///
/// Thread-compatible, not thread-safe: in distributed runs each rank owns a
/// private Device.
class Device {
  public:
    /// Creates a device; @p power_limit_w defaults to the platform TDP.
    explicit Device(PlatformSpec spec, std::optional<double> power_limit_w = std::nullopt);

    const PlatformSpec& spec() const { return spec_; }
    const PowerModel& power_model() const { return power_; }

    /// Current DVFS frequency scale implied by the power limit.
    double freq_scale() const { return freq_scale_; }
    double power_limit_w() const { return power_limit_w_; }

    /// Changes the power limit (Figure 8 sweeps); affects future launches.
    void set_power_limit(double watts);

    /// Places a kernel on a stream.
    ///
    /// @param desc       work descriptor
    /// @param stream_id  target stream (created on demand)
    /// @param ready_us   earliest legal start (host launch time and input
    ///                   dependency readiness, already max-combined by caller)
    /// @param jitter     optional RNG for multiplicative duration noise
    /// @param fixed_duration_us  when set, overrides the modeled duration
    ///                   (used by collectives whose cost a rendezvous decides,
    ///                   and by the scale-down emulator's injected delays)
    /// @return the record, including the placed interval
    const KernelRecord& launch(const KernelDesc& desc, int stream_id, sim::TimeUs ready_us,
                               Rng* jitter = nullptr,
                               std::optional<double> fixed_duration_us = std::nullopt);

    /// Time at which a given stream drains (its tail), or 0 if untouched.
    sim::TimeUs stream_tail(int stream_id) const;

    /// Time at which every stream has drained.
    sim::TimeUs sync_all() const;

    /// All kernels launched so far, in launch order.
    const std::vector<KernelRecord>& records() const { return records_; }

    /// Aggregates metrics over [window_start, window_end); kernels partially
    /// inside the window contribute pro-rata.
    DeviceMetrics metrics(sim::TimeUs window_start, sim::TimeUs window_end) const;

    /// Forgets all records and stream state (between measurement phases).
    void reset();

  private:
    PlatformSpec spec_;
    PowerModel power_;
    double power_limit_w_ = 0.0;
    double freq_scale_ = 1.0;
    std::map<int, sim::TimeUs> stream_tails_;
    std::vector<KernelRecord> records_;
    uint64_t next_correlation_ = 1;
};

} // namespace mystique::dev
