#pragma once

/// @file
/// Platform descriptions for the analytic device model.
///
/// These stand in for the paper's evaluation hardware: NVIDIA A100, NVIDIA
/// V100, an Intel Xeon Platinum CPU, and the anonymous "new, experimental
/// platform" of Figure 10.  Parameters are set from public datasheets with
/// derating factors so relative behaviour (A100 vs V100 vs CPU) is realistic;
/// absolute times are a property of this model, not of the paper's testbed.

#include <string>
#include <vector>

namespace mystique::dev {

/// Static description of an execution platform.
struct PlatformSpec {
    std::string name;
    /// False for CPU-style platforms: ops execute synchronously on the host
    /// thread and there is no stream-level concurrency.
    bool is_gpu = true;

    double peak_gflops = 0.0;      ///< achievable fp32 GFLOP/s at full clocks
    double mem_bw_gbps = 0.0;      ///< achievable DRAM/HBM bandwidth, GB/s
    double kernel_launch_us = 0.0; ///< device-side fixed cost per kernel
    double dispatch_us = 0.0;      ///< host-side framework cost per op issue

    int num_sms = 1;               ///< SMs (GPU) or cores (CPU)
    double l1_kb_per_sm = 0.0;     ///< L1/shared-memory capacity per SM
    double l2_mb = 0.0;            ///< shared L2 capacity
    double ipc_peak = 4.0;         ///< peak sustained IPC per SM

    double idle_power_w = 0.0;     ///< power at zero utilization
    double max_dynamic_power_w = 0.0; ///< additional power at full utilization
    double tdp_w = 0.0;            ///< board power limit ceiling
    double min_power_limit_w = 0.0;///< lowest settable power limit
    double min_freq_scale = 0.25;  ///< DVFS floor (fraction of max clocks)
    double alpha_power = 2.2;      ///< dynamic power ∝ freq_scale^alpha

    bool operator==(const PlatformSpec&) const = default;
};

/// Returns the built-in platform with the given name
/// ("A100", "V100", "CPU", "NewPlatform"); throws ConfigError otherwise.
PlatformSpec platform(const std::string& name);

/// Names of all built-in platforms.
std::vector<std::string> builtin_platforms();

/// NVIDIA A100-SXM-80GB-like accelerator (the paper's primary platform).
PlatformSpec a100();
/// NVIDIA V100-SXM2-like accelerator.
PlatformSpec v100();
/// Intel Xeon Platinum-like CPU host (eager-mode effective throughput).
PlatformSpec cpu();
/// Hypothetical next-generation accelerator used for early-stage platform
/// evaluation (Figure 10's "New plat.").
PlatformSpec new_platform();

} // namespace mystique::dev
