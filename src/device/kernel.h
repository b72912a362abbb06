#pragma once

/// @file
/// Device-side work descriptors.
///
/// A KernelDesc is the hardware-agnostic summary of one GPU kernel (or one
/// CPU compute region): how much arithmetic it does, how much memory it
/// moves, and how its accesses behave.  The cost and metric models consume
/// only this descriptor plus a PlatformSpec — mirroring the paper's premise
/// that operator metadata (shapes/dtypes), not tensor *values*, determines
/// performance, with the embedding-lookup locality knob as the documented
/// exception (§4.4).

#include <cstdint>
#include <string>
#include <string_view>

namespace mystique::dev {

/// Operator category, following the paper's taxonomy (§3.3, Figure 2).
enum class OpCategory {
    kATen,   ///< default compute backend ops
    kComm,   ///< c10d collective / P2P ops
    kFused,  ///< JIT-fused pointwise ops
    kCustom, ///< user-registered out-of-source ops
    kOther,  ///< wrappers / annotations (never replayed as work)
};

/// Returns the display name used in traces and reports.
const char* to_string(OpCategory c);
/// The category whose to_string() is @p name; throws ParseError otherwise.
OpCategory op_category_from_string(std::string_view name);

/// Broad kernel families with distinct efficiency/locality behaviour.
enum class KernelKind {
    kGemm,
    kConv,
    kPointwise,
    kReduction,
    kNorm,
    kPool,
    kEmbedding,
    kSoftmax,
    kLoss,
    kMemcpy,
    kComm,
    kFusedPointwise,
    kLstm,
    kOptimizer,
    kOther, ///< last: kernel_kind_from_string walks the kinds up to it
};

/// Returns the display name of a kernel kind.
const char* to_string(KernelKind k);
/// The kind whose to_string() is @p name; throws ParseError otherwise.
KernelKind kernel_kind_from_string(std::string_view name);

/// Hardware-agnostic description of one kernel's work.
struct KernelDesc {
    /// Synthetic kernel name (stable across original and replay runs so the
    /// micro-level comparison of Figure 6 can match kernels by name).
    std::string name;
    KernelKind kind = KernelKind::kOther;
    OpCategory category = OpCategory::kATen;

    /// Floating-point operations performed.
    double flops = 0.0;
    /// Total DRAM traffic in bytes (reads + writes, post-cache estimate).
    double bytes = 0.0;
    /// Footprint actively reused, for the cache-hit model.
    double working_set_bytes = 0.0;
    /// Access locality in [0,1]; 1 = perfectly cache-friendly.  For embedding
    /// lookups this is derived from the actual index distribution.
    double locality = 0.5;
    /// Number of independent work items (drives SM occupancy).
    double parallelism = 1 << 16;
};

/// Per-kernel microarchitectural metrics (Figure 6 quantities).
struct MicroMetrics {
    double ipc = 0.0;            ///< instructions per cycle (per SM, issued)
    double l1_hit_rate = 0.0;    ///< [0,1]
    double l2_hit_rate = 0.0;    ///< [0,1]
    double sm_throughput = 0.0;  ///< fraction of peak SM issue bandwidth [0,1]
};

} // namespace mystique::dev
