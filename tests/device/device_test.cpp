/// Tests for the device model: roofline cost, stream FIFO placement, metric
/// windows, microarchitectural metrics, and power/DVFS behaviour.

#include <gtest/gtest.h>

#include "common/error.h"

#include "device/cost_model.h"
#include "device/device.h"
#include "device/platform.h"
#include "device/power_model.h"

namespace mystique::dev {
namespace {

KernelDesc
gemm_desc(double gflops)
{
    KernelDesc d;
    d.name = "test_gemm";
    d.kind = KernelKind::kGemm;
    d.flops = gflops * 1e9;
    d.bytes = 50e6;
    d.working_set_bytes = 50e6;
    d.parallelism = 1e6;
    return d;
}

KernelDesc
memcpy_desc(double mb)
{
    KernelDesc d;
    d.name = "test_memcpy";
    d.kind = KernelKind::kMemcpy;
    d.flops = 0;
    d.bytes = mb * 1e6;
    d.working_set_bytes = d.bytes;
    d.parallelism = 1e6;
    return d;
}

TEST(Platform, BuiltinsResolve)
{
    for (const auto& name : builtin_platforms()) {
        const PlatformSpec p = platform(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.peak_gflops, 0.0);
        EXPECT_GT(p.mem_bw_gbps, 0.0);
    }
    EXPECT_THROW(platform("H100"), ConfigError);
}

TEST(Platform, RelativeCapabilities)
{
    // Expected orderings drive the cross-platform figures.
    EXPECT_GT(a100().peak_gflops, v100().peak_gflops);
    EXPECT_GT(a100().mem_bw_gbps, v100().mem_bw_gbps);
    EXPECT_GT(v100().peak_gflops, cpu().peak_gflops);
    EXPECT_GT(new_platform().peak_gflops, a100().peak_gflops);
    EXPECT_FALSE(cpu().is_gpu);
}

TEST(CostModel, ComputeBoundScalesWithFlops)
{
    const PlatformSpec p = a100();
    const double t1 = kernel_time(gemm_desc(10), p).total_us(1.0);
    const double t2 = kernel_time(gemm_desc(20), p).total_us(1.0);
    EXPECT_GT(t2, t1 * 1.8);
}

TEST(CostModel, MemoryBoundScalesWithBytes)
{
    const PlatformSpec p = a100();
    const double t1 = kernel_time(memcpy_desc(100), p).total_us(1.0);
    const double t2 = kernel_time(memcpy_desc(200), p).total_us(1.0);
    EXPECT_NEAR(t2 - p.kernel_launch_us, 2.0 * (t1 - p.kernel_launch_us), 1e-6);
}

TEST(CostModel, FasterPlatformIsFaster)
{
    const KernelDesc d = gemm_desc(50);
    EXPECT_LT(kernel_time(d, a100()).total_us(1.0), kernel_time(d, v100()).total_us(1.0));
    EXPECT_LT(kernel_time(d, v100()).total_us(1.0), kernel_time(d, cpu()).total_us(1.0));
}

TEST(CostModel, FreqScaleAffectsComputeOnly)
{
    const PlatformSpec p = a100();
    const KernelTime compute = kernel_time(gemm_desc(100), p);
    EXPECT_NEAR(compute.total_us(0.5) - p.kernel_launch_us,
                2.0 * (compute.total_us(1.0) - p.kernel_launch_us), 1e-6);
    const KernelTime mem = kernel_time(memcpy_desc(500), p);
    EXPECT_DOUBLE_EQ(mem.total_us(0.5), mem.total_us(1.0));
}

TEST(CostModel, SmallKernelPenalty)
{
    const PlatformSpec p = a100();
    KernelDesc small = gemm_desc(0.01);
    small.parallelism = 64; // far below one wave
    KernelDesc big = small;
    big.parallelism = 1e6;
    EXPECT_GT(kernel_time(small, p).compute_us, kernel_time(big, p).compute_us);
}

TEST(CostModel, EmbeddingLocalityImprovesBandwidth)
{
    EXPECT_GT(memory_efficiency(KernelKind::kEmbedding, 0.9),
              memory_efficiency(KernelKind::kEmbedding, 0.1));
}

TEST(CostModel, EfficienciesBounded)
{
    for (int k = 0; k <= static_cast<int>(KernelKind::kOther); ++k) {
        const auto kind = static_cast<KernelKind>(k);
        EXPECT_GT(compute_efficiency(kind), 0.0);
        EXPECT_LE(compute_efficiency(kind), 1.0);
        EXPECT_GT(memory_efficiency(kind, 0.5), 0.0);
        EXPECT_LE(memory_efficiency(kind, 0.5), 1.0);
    }
}

TEST(MicroMetrics, Bounded)
{
    const PlatformSpec p = a100();
    for (double gf : {0.001, 0.1, 10.0, 1000.0}) {
        const MicroMetrics m = micro_metrics(gemm_desc(gf), p);
        EXPECT_GE(m.ipc, 0.0);
        EXPECT_LE(m.ipc, p.ipc_peak);
        EXPECT_GE(m.l1_hit_rate, 0.0);
        EXPECT_LE(m.l1_hit_rate, 1.0);
        EXPECT_GE(m.l2_hit_rate, 0.0);
        EXPECT_LE(m.l2_hit_rate, 1.0);
        EXPECT_GE(m.sm_throughput, 0.0);
        EXPECT_LE(m.sm_throughput, 1.0);
    }
}

TEST(MicroMetrics, ComputeBoundHasHigherIpc)
{
    const PlatformSpec p = a100();
    const MicroMetrics compute = micro_metrics(gemm_desc(500), p);
    const MicroMetrics memory = micro_metrics(memcpy_desc(500), p);
    EXPECT_GT(compute.ipc, memory.ipc);
}

TEST(MicroMetrics, SmallerWorkingSetHitsCaches)
{
    const PlatformSpec p = a100();
    KernelDesc small = gemm_desc(1);
    small.working_set_bytes = 1e5;
    KernelDesc large = gemm_desc(1);
    large.working_set_bytes = 1e10;
    EXPECT_GT(micro_metrics(small, p).l2_hit_rate, micro_metrics(large, p).l2_hit_rate);
}

TEST(MicroMetrics, Deterministic)
{
    const PlatformSpec p = a100();
    const MicroMetrics a = micro_metrics(gemm_desc(3), p);
    const MicroMetrics b = micro_metrics(gemm_desc(3), p);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.l1_hit_rate, b.l1_hit_rate);
}

TEST(Device, StreamFifoOrdering)
{
    Device dev(a100());
    const auto& k1 = dev.launch(gemm_desc(10), kComputeStream, 0.0);
    const double k1_end = k1.interval.end;
    const auto& k2 = dev.launch(gemm_desc(10), kComputeStream, 0.0);
    EXPECT_GE(k2.interval.start, k1_end); // FIFO: no overlap within a stream
}

TEST(Device, StreamsOverlap)
{
    Device dev(a100());
    // A copy: the second launch may reallocate the record storage that
    // launch()'s returned reference points into.
    const KernelRecord k1 = dev.launch(gemm_desc(100), kComputeStream, 0.0);
    const auto& k2 = dev.launch(memcpy_desc(100), kMemcpyStream, 0.0);
    EXPECT_TRUE(k1.interval.overlaps(k2.interval));
}

TEST(Device, ReadyTimeHonoured)
{
    Device dev(a100());
    const auto& k = dev.launch(gemm_desc(1), kComputeStream, 500.0);
    EXPECT_DOUBLE_EQ(k.interval.start, 500.0);
}

TEST(Device, FixedDurationOverride)
{
    Device dev(a100());
    const auto& k = dev.launch(gemm_desc(100), kCommStream, 0.0, nullptr, 123.0);
    EXPECT_DOUBLE_EQ(k.interval.duration(), 123.0);
}

TEST(Device, SyncAllIsMaxTail)
{
    Device dev(a100());
    dev.launch(gemm_desc(10), kComputeStream, 0.0);
    dev.launch(memcpy_desc(1), kMemcpyStream, 0.0);
    EXPECT_DOUBLE_EQ(dev.sync_all(),
                     std::max(dev.stream_tail(kComputeStream), dev.stream_tail(kMemcpyStream)));
}

TEST(Device, JitterVariesButBounded)
{
    Rng rng(5);
    Device dev(a100());
    const double base = kernel_time(gemm_desc(10), a100()).total_us(1.0);
    for (int i = 0; i < 50; ++i) {
        const auto& k = dev.launch(gemm_desc(10), kComputeStream, 1e9 * i);
        (void)k;
    }
    dev.reset();
    double min_d = 1e18, max_d = 0.0;
    for (int i = 0; i < 50; ++i) {
        const auto& k = dev.launch(gemm_desc(10), kComputeStream, 0.0, &rng);
        min_d = std::min(min_d, k.interval.duration());
        max_d = std::max(max_d, k.interval.duration());
    }
    EXPECT_LT(max_d, base * 1.12);
    EXPECT_GT(min_d, base * 0.88);
    EXPECT_NE(min_d, max_d);
}

TEST(Device, MetricsWindowProRata)
{
    Device dev(a100());
    const auto& k = dev.launch(memcpy_desc(100), kComputeStream, 0.0);
    const double end = k.interval.end;
    const DeviceMetrics full = dev.metrics(0.0, end);
    const DeviceMetrics half = dev.metrics(0.0, end / 2.0);
    // Bandwidth sustained over the kernel is flat, so window halving keeps
    // GB/s roughly constant while total bytes halve.
    EXPECT_NEAR(half.hbm_gbps, full.hbm_gbps, full.hbm_gbps * 0.1);
    EXPECT_GT(full.kernel_time_us, half.kernel_time_us);
}

TEST(Device, EmptyWindowIsIdle)
{
    Device dev(a100());
    const DeviceMetrics m = dev.metrics(0.0, 0.0);
    EXPECT_DOUBLE_EQ(m.sm_util_pct, 0.0);
}

TEST(Device, PowerIncludesIdle)
{
    Device dev(a100());
    dev.launch(gemm_desc(100), kComputeStream, 0.0);
    const DeviceMetrics m = dev.metrics(0.0, dev.sync_all());
    EXPECT_GT(m.power_w, a100().idle_power_w);
    EXPECT_LT(m.power_w, a100().tdp_w * 1.05);
}

TEST(PowerModel, FreqScaleMonotoneInLimit)
{
    const PowerModel pm(a100());
    double prev = 0.0;
    for (double limit : {100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0}) {
        const double s = pm.freq_scale_for_limit(limit);
        EXPECT_GE(s, prev);
        EXPECT_GE(s, a100().min_freq_scale);
        EXPECT_LE(s, 1.0);
        prev = s;
    }
    EXPECT_DOUBLE_EQ(pm.freq_scale_for_limit(a100().tdp_w), 1.0);
}

TEST(PowerModel, LowPowerLimitSlowsComputeKernels)
{
    Device fast(a100(), 400.0);
    Device slow(a100(), 150.0);
    const double tf = fast.launch(gemm_desc(100), kComputeStream, 0.0).interval.duration();
    const double ts = slow.launch(gemm_desc(100), kComputeStream, 0.0).interval.duration();
    EXPECT_GT(ts, tf * 1.2);
}

TEST(PowerModel, SetPowerLimitUpdatesFreqScale)
{
    Device dev(a100());
    EXPECT_DOUBLE_EQ(dev.freq_scale(), 1.0);
    dev.set_power_limit(150.0);
    EXPECT_LT(dev.freq_scale(), 1.0);
    EXPECT_THROW(dev.set_power_limit(0.0), InternalError);
}

class PowerSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerSweepTest, EnergyPerKernelDecreasesWithLimit)
{
    // Dynamic energy of a compute kernel should not increase as the power
    // limit drops (frequency scaling trades time for power superlinearly).
    const double limit = GetParam();
    Device dev(a100(), limit);
    const auto& k = dev.launch(gemm_desc(100), kComputeStream, 0.0);
    const double avg_power = k.dynamic_energy / k.interval.duration();
    EXPECT_LE(avg_power, a100().max_dynamic_power_w + 1e-9);
    EXPECT_GE(avg_power, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Limits, PowerSweepTest,
                         ::testing::Values(100.0, 150.0, 200.0, 250.0, 300.0, 350.0,
                                           400.0));

} // namespace
} // namespace mystique::dev
