#pragma once

/// @file
/// Host-time span recorder for the pipeline benchmark.
///
/// Spans are recorded by the benchmark itself around the public calls it
/// makes into each layer (nothing inside the library is instrumented), kept
/// in memory, and written at the end as Chrome trace events — the same
/// `traceEvents` format `prof::ProfilerTrace::to_chrome_trace` writes for the
/// simulated device, so host and device timelines open side by side in
/// chrome://tracing or Perfetto.  The benchmark calls the library from its
/// main thread only, so there is one track; the library's own worker threads
/// are inside the spans that wait for them.
///
/// Per-name totals keep both the inclusive duration and the self time (the
/// duration minus what directly nested spans cover), which is what the
/// per-layer metrics are read from.  Not thread-safe.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace pipebench {

/// Host wall-clock seconds on the steady clock.
inline double
now_s()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer {
  public:
    /// Closes its span on destruction.  A null tracer makes every span a
    /// no-op, so untimed and traced jobs share one code path.
    class Span {
      public:
        Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
        ~Span()
        {
            if (tracer_ != nullptr)
                tracer_->close(index_);
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer* tracer_;
        std::size_t index_;
    };

    struct Total {
        std::size_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };

    Tracer() : origin_s_(now_s()) {}

    /// Opens a span nested under the innermost open span.
    std::size_t open(std::string name, mystique::Json args)
    {
        Event ev;
        ev.name = std::move(name);
        ev.args = std::move(args);
        ev.parent = open_.empty() ? kNone : open_.back();
        ev.t0_s = now_s();
        events_.push_back(std::move(ev));
        open_.push_back(events_.size() - 1);
        return events_.size() - 1;
    }

    /// Adds (or overwrites) an argument on the innermost open span.
    void arg(std::string_view key, mystique::Json value)
    {
        if (!open_.empty())
            events_[open_.back()].args.set(key, std::move(value));
    }

    const std::map<std::string, Total>& totals() const { return totals_; }

    /// Inclusive milliseconds recorded under @p name (0 when never opened).
    double total_ms(const std::string& name) const
    {
        auto it = totals_.find(name);
        return it == totals_.end() ? 0.0 : it->second.total_s * 1e3;
    }

    /// Share of the most recent closed @p name span that its direct children
    /// cover (0 when there is none).
    double child_coverage(const std::string& name) const
    {
        for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
            if (it->name == name && it->t1_s > it->t0_s)
                return it->child_s / (it->t1_s - it->t0_s);
        }
        return 0.0;
    }

    /// `{"traceEvents": [...]}`: one complete ("X") event per span, in
    /// microseconds since the tracer was created.
    mystique::Json to_chrome_trace() const
    {
        using mystique::Json;
        Json events = Json::array();
        Json meta = Json::object();
        meta.set("name", Json("thread_name"));
        meta.set("ph", Json("M"));
        meta.set("pid", Json(1));
        meta.set("tid", Json(0));
        Json meta_args = Json::object();
        meta_args.set("name", Json("benchmark main thread"));
        meta.set("args", std::move(meta_args));
        events.push_back(std::move(meta));
        for (const Event& ev : events_) {
            Json e = Json::object();
            e.set("name", Json(ev.name));
            e.set("cat", Json(ev.name.substr(0, ev.name.find('.'))));
            e.set("ph", Json("X"));
            e.set("ts", Json((ev.t0_s - origin_s_) * 1e6));
            e.set("dur", Json((ev.t1_s - ev.t0_s) * 1e6));
            e.set("pid", Json(1));
            e.set("tid", Json(0));
            e.set("args", ev.args);
            events.push_back(std::move(e));
        }
        Json doc = Json::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", Json("ms"));
        return doc;
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    struct Event {
        std::string name;
        mystique::Json args;
        std::size_t parent = kNone;
        double t0_s = 0.0;
        double t1_s = -1.0;
        double child_s = 0.0; ///< time covered by direct children
    };

    void close(std::size_t index)
    {
        Event& ev = events_[index];
        ev.t1_s = now_s();
        open_.pop_back();
        const double dur = ev.t1_s - ev.t0_s;
        if (ev.parent != kNone)
            events_[ev.parent].child_s += dur;
        Total& t = totals_[ev.name];
        ++t.count;
        t.total_s += dur;
        t.self_s += dur - ev.child_s;
    }

    double origin_s_;
    std::vector<Event> events_;
    std::vector<std::size_t> open_; ///< stack of open span indices
    std::map<std::string, Total> totals_;
};

/// Opens a span on @p tracer, or nothing when it is null.
inline Tracer::Span
span(Tracer* tracer, std::string name, mystique::Json args = mystique::Json::object())
{
    if (tracer == nullptr)
        return Tracer::Span(nullptr, 0);
    return Tracer::Span(tracer, tracer->open(std::move(name), std::move(args)));
}

} // namespace pipebench
