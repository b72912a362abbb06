#pragma once

/// @file
/// Trace database: the "ET analyzer" and "ET builder" stages of Figure 3.
///
/// Production deployments collect ETs from the whole fleet into trace
/// databases; the analyzer groups equivalent traces (same operator mix) and
/// selects replay samples by population weight (§8.2), and the builder
/// normalizes raw traces before replay.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "et/trace.h"

namespace mystique::et {

/// A group of traces that share an operator-mix fingerprint.
///
/// Batched replay of a whole database — one cached plan per group, replayed
/// representatives weighted by population — lives above this layer in
/// core::ReplayDriver::replay_groups (core/replay_driver.h).
struct TraceGroup {
    uint64_t fingerprint = 0;
    std::string representative_workload;
    /// Indices into the database's trace list.
    std::vector<std::size_t> members;
    /// Fraction of the database population this group represents.
    double population_weight = 0.0;

    /// The replay sample for this group — the paper's "select the most
    /// commonly-occurring" policy picks one representative per group.
    std::size_t representative() const { return members.front(); }
};

/// An in-memory collection of execution traces with selection support.
class TraceDatabase {
  public:
    /// Adds one trace; returns its index.
    std::size_t add(ExecutionTrace trace);

    /// Loads every "*.json" ET file in a directory (non-recursive).
    /// Returns the number of traces loaded.
    ///
    /// Files are parsed on min(file count, hardware threads) workers: the
    /// calling thread plus pool threads that live for this call only, so an
    /// empty or one-file directory starts no thread.  The result is the
    /// serial loop's, whatever the worker count:
    ///  - traces are appended in sorted path order;
    ///  - a file that throws a std::exception (unreadable, malformed) is
    ///    skipped, and the `skipping unreadable trace` warnings come out in
    ///    sorted order after every worker is done; any other exception
    ///    propagates to the caller;
    ///  - files are read one at a time in sorted order (read_file in
    ///    common/fs_util.h), so the nth `fs.read` fault-site hit falls on the
    ///    nth sorted file that opens, and each worker holds at most one
    ///    file's text;
    ///  - each trace's fingerprint() is computed on its worker, so analyze()
    ///    finds it cached.  Nothing here interns op names.
    std::size_t load_directory(const std::string& dir);

    std::size_t size() const { return traces_.size(); }
    const ExecutionTrace& trace(std::size_t index) const;

    /// Shared handle to a trace — replay plans built over it share ownership
    /// instead of deep-copying (the PlanCache's zero-copy get_or_build).
    std::shared_ptr<const ExecutionTrace> trace_handle(std::size_t index) const;

    /// Groups traces by fingerprint and computes population weights,
    /// sorted by weight descending.
    std::vector<TraceGroup> analyze() const;

    /// Indices of representative traces for the @p top_k most common groups
    /// (one representative per group) — the paper's "select the most
    /// commonly-occurring" policy.
    std::vector<std::size_t> select_top(std::size_t top_k) const;

  private:
    /// Traces live behind shared_ptr so plans can share them (and so the
    /// vector can grow without invalidating outstanding handles).
    std::vector<std::shared_ptr<const ExecutionTrace>> traces_;
};

/// Normalization applied by the ET builder before replay.
struct BuilderOptions {
    /// Renumber node IDs to be dense starting at 0 (preserving order).
    bool renumber_ids = true;
    /// Drop nodes with kind kRoot that have no children.
    bool drop_empty_roots = true;
};

/// Preprocesses a raw trace into replayable form:
///  - validates parent links and ID monotonicity,
///  - optionally renumbers IDs densely,
///  - verifies operator nodes carry schemas (except Fused, which legitimately
///    lack them, §4.3.4).
/// Throws ParseError on malformed traces.
ExecutionTrace build_trace(const ExecutionTrace& raw, const BuilderOptions& opts = {});

} // namespace mystique::et
