#include "device/device.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mystique::dev {

Device::Device(PlatformSpec spec, std::optional<double> power_limit_w)
    : spec_(std::move(spec)), power_(spec_)
{
    set_power_limit(power_limit_w.value_or(spec_.tdp_w));
}

void
Device::set_power_limit(double watts)
{
    MYST_CHECK_MSG(watts > 0.0, "power limit must be positive");
    power_limit_w_ = watts;
    freq_scale_ = power_.freq_scale_for_limit(watts);
}

const KernelRecord&
Device::launch(const KernelDesc& desc, int stream_id, sim::TimeUs ready_us, Rng* jitter,
               std::optional<double> fixed_duration_us)
{
    double duration;
    if (fixed_duration_us.has_value()) {
        // Externally decided (collective rendezvous / injected delay):
        // no model evaluation and no per-rank jitter, so symmetric
        // collectives stay consistent across ranks.
        duration = *fixed_duration_us;
    } else {
        const KernelTime t = kernel_time(desc, spec_);
        duration = t.total_us(freq_scale_);
        if (jitter != nullptr) {
            // ~±1.5% multiplicative noise, clamped to stay positive and sane.
            const double noise = std::clamp(1.0 + 0.015 * jitter->normal(), 0.90, 1.10);
            duration *= noise;
        }
    }
    MYST_CHECK_MSG(duration >= 0.0, "negative kernel duration for '" << desc.name << "'");

    sim::TimeUs& tail = stream_tails_[stream_id];
    const sim::TimeUs start = std::max(ready_us, tail);
    const sim::TimeUs end = start + duration;
    tail = end;

    KernelRecord rec;
    rec.desc = desc;
    rec.stream_id = stream_id;
    rec.interval = {start, end};
    rec.correlation = next_correlation_++;
    rec.micro = micro_metrics(desc, spec_);
    rec.dynamic_energy = power_.kernel_dynamic_energy(desc, duration, freq_scale_);
    records_.push_back(std::move(rec));
    return records_.back();
}

sim::TimeUs
Device::stream_tail(int stream_id) const
{
    auto it = stream_tails_.find(stream_id);
    return it == stream_tails_.end() ? 0.0 : it->second;
}

sim::TimeUs
Device::sync_all() const
{
    sim::TimeUs t = 0.0;
    for (const auto& [id, tail] : stream_tails_)
        t = std::max(t, tail);
    return t;
}

DeviceMetrics
Device::metrics(sim::TimeUs window_start, sim::TimeUs window_end) const
{
    DeviceMetrics m;
    m.window_us = std::max(0.0, window_end - window_start);
    if (m.window_us <= 0.0)
        return m;

    double weighted_sm = 0.0;
    double total_bytes = 0.0;
    double total_energy = 0.0;
    std::vector<sim::Interval> busy;
    busy.reserve(records_.size());

    for (const auto& rec : records_) {
        const sim::Interval win{window_start, window_end};
        if (!rec.interval.overlaps(win))
            continue;
        const double overlap = std::min(rec.interval.end, window_end) -
                               std::max(rec.interval.start, window_start);
        const double frac =
            rec.interval.duration() > 0.0 ? overlap / rec.interval.duration() : 0.0;
        weighted_sm += overlap * rec.micro.sm_throughput;
        total_bytes += rec.desc.bytes * frac;
        total_energy += rec.dynamic_energy * frac;
        m.kernel_time_us += overlap;
        busy.push_back({std::max(rec.interval.start, window_start),
                        std::min(rec.interval.end, window_end)});
    }

    // Concurrent kernels on different streams contend for the same SMs, so
    // aggregate activity saturates at 100%.
    m.sm_util_pct = std::min(100.0, 100.0 * weighted_sm / m.window_us);
    m.hbm_gbps = total_bytes / (m.window_us * 1e3); // bytes/us → GB/s
    m.power_w = power_.average_power(total_energy, m.window_us);
    m.busy_pct = std::min(100.0, 100.0 * sim::union_length(std::move(busy)) / m.window_us);
    return m;
}

void
Device::reset()
{
    stream_tails_.clear();
    records_.clear();
    next_correlation_ = 1;
}

} // namespace mystique::dev
