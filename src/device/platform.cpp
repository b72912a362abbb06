#include "device/platform.h"

#include "common/error.h"
#include "device/kernel.h"

namespace mystique::dev {

const char*
to_string(OpCategory c)
{
    switch (c) {
      case OpCategory::kATen: return "ATen";
      case OpCategory::kComm: return "Comms";
      case OpCategory::kFused: return "Fused";
      case OpCategory::kCustom: return "Custom";
      case OpCategory::kOther: return "Other";
    }
    return "?";
}

OpCategory
op_category_from_string(std::string_view name)
{
    for (OpCategory c : {OpCategory::kATen, OpCategory::kComm, OpCategory::kFused,
                         OpCategory::kCustom, OpCategory::kOther}) {
        if (name == to_string(c))
            return c;
    }
    MYST_THROW(ParseError, "unknown op category '" << name << "'");
}

const char*
to_string(KernelKind k)
{
    switch (k) {
      case KernelKind::kGemm: return "gemm";
      case KernelKind::kConv: return "conv";
      case KernelKind::kPointwise: return "pointwise";
      case KernelKind::kReduction: return "reduction";
      case KernelKind::kNorm: return "norm";
      case KernelKind::kPool: return "pool";
      case KernelKind::kEmbedding: return "embedding";
      case KernelKind::kSoftmax: return "softmax";
      case KernelKind::kLoss: return "loss";
      case KernelKind::kMemcpy: return "memcpy";
      case KernelKind::kComm: return "comm";
      case KernelKind::kFusedPointwise: return "fused_pointwise";
      case KernelKind::kLstm: return "lstm";
      case KernelKind::kOptimizer: return "optimizer";
      case KernelKind::kOther: return "other";
    }
    return "?";
}

KernelKind
kernel_kind_from_string(std::string_view name)
{
    for (int k = 0; k <= static_cast<int>(KernelKind::kOther); ++k) {
        if (name == to_string(static_cast<KernelKind>(k)))
            return static_cast<KernelKind>(k);
    }
    MYST_THROW(ParseError, "unknown kernel kind '" << name << "'");
}

PlatformSpec
a100()
{
    PlatformSpec p;
    p.name = "A100";
    p.is_gpu = true;
    p.peak_gflops = 19500.0;
    p.mem_bw_gbps = 1555.0;
    p.kernel_launch_us = 2.0;
    p.dispatch_us = 4.0;
    p.num_sms = 108;
    p.l1_kb_per_sm = 192.0;
    p.l2_mb = 40.0;
    p.ipc_peak = 4.0;
    p.idle_power_w = 55.0;
    p.max_dynamic_power_w = 345.0;
    p.tdp_w = 400.0;
    p.min_power_limit_w = 100.0;
    p.min_freq_scale = 0.30;
    p.alpha_power = 2.2;
    return p;
}

PlatformSpec
v100()
{
    PlatformSpec p;
    p.name = "V100";
    p.is_gpu = true;
    p.peak_gflops = 15700.0;
    p.mem_bw_gbps = 900.0;
    p.kernel_launch_us = 2.6;
    p.dispatch_us = 4.2;
    p.num_sms = 80;
    p.l1_kb_per_sm = 128.0;
    p.l2_mb = 6.0;
    p.ipc_peak = 3.6;
    p.idle_power_w = 45.0;
    p.max_dynamic_power_w = 255.0;
    p.tdp_w = 300.0;
    p.min_power_limit_w = 100.0;
    p.min_freq_scale = 0.30;
    p.alpha_power = 2.2;
    return p;
}

PlatformSpec
cpu()
{
    PlatformSpec p;
    p.name = "CPU";
    p.is_gpu = false;
    // Effective eager-mode throughput of a dual-socket Xeon Platinum, not the
    // AVX-512 theoretical peak: framework overhead dominates small ops and
    // GEMM libraries reach ~50% peak on large ones.
    p.peak_gflops = 450.0;
    p.mem_bw_gbps = 95.0;
    p.kernel_launch_us = 0.0;
    p.dispatch_us = 3.6;
    p.num_sms = 28;
    p.l1_kb_per_sm = 32.0;
    p.l2_mb = 38.5; // aggregate L2+L3 proxy
    p.ipc_peak = 4.0;
    p.idle_power_w = 90.0;
    p.max_dynamic_power_w = 180.0;
    p.tdp_w = 270.0;
    p.min_power_limit_w = 120.0;
    p.min_freq_scale = 0.40;
    p.alpha_power = 2.0;
    return p;
}

PlatformSpec
new_platform()
{
    PlatformSpec p;
    p.name = "NewPlatform";
    p.is_gpu = true;
    // An aggressive next-generation part: ~2x A100 compute, ~1.9x bandwidth,
    // leaner launch path.  Used only through replay in Figure 10 — by
    // construction the "full software stack" (our custom ops) is absent.
    p.peak_gflops = 40000.0;
    p.mem_bw_gbps = 2900.0;
    p.kernel_launch_us = 1.4;
    p.dispatch_us = 3.2;
    p.num_sms = 144;
    p.l1_kb_per_sm = 256.0;
    p.l2_mb = 64.0;
    p.ipc_peak = 4.4;
    p.idle_power_w = 60.0;
    p.max_dynamic_power_w = 440.0;
    p.tdp_w = 500.0;
    p.min_power_limit_w = 120.0;
    p.min_freq_scale = 0.30;
    p.alpha_power = 2.2;
    return p;
}

PlatformSpec
platform(const std::string& name)
{
    if (name == "A100")
        return a100();
    if (name == "V100")
        return v100();
    if (name == "CPU")
        return cpu();
    if (name == "NewPlatform")
        return new_platform();
    MYST_THROW(ConfigError, "unknown platform '" << name
                            << "' (expected A100, V100, CPU or NewPlatform)");
}

std::vector<std::string>
builtin_platforms()
{
    return {"A100", "V100", "CPU", "NewPlatform"};
}

} // namespace mystique::dev
