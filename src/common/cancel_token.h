#pragma once

/// @file
/// Cooperative cancellation at a soft deadline.
///
/// The fleet-sweep resilience layer (core/replay_driver.h) must be able to
/// bound how long one trace group may replay without ever interrupting a
/// kernel mid-flight — the simulator's determinism depends on every issued op
/// completing.  A CancelToken is the cooperative half of that contract: the
/// driver arms a deadline, threads the token into the Replayer, and the
/// Replayer polls `expired()` *between* ops — never inside one — throwing
/// CancelledError at the next safe point.
///
/// A token without a deadline never expires; one with a deadline pays one
/// steady_clock read per poll.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/error.h"

namespace mystique {

/// Thrown (by CancelToken::throw_if_expired) when a cooperative cancellation
/// point observes an expired token.  Subclasses MystiqueError so generic
/// failure isolation still catches it, while callers that care — the sweep
/// driver distinguishing `timed_out` from `failed` — can catch it first.
class CancelledError : public MystiqueError {
  public:
    explicit CancelledError(const std::string& msg) : MystiqueError("cancelled: " + msg) {}
};

class CancelToken {
  public:
    /// Arms a soft deadline @p ms milliseconds from now (0: already expired).
    /// Arm before handing the token to the worker.
    void set_deadline_after_ms(uint64_t ms)
    {
        deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
        deadline_ms_ = ms;
    }

    /// True once the armed deadline has passed.
    bool expired() const
    {
        return deadline_ms_.has_value() && std::chrono::steady_clock::now() >= deadline_;
    }

    /// The cooperative cancellation point: throws CancelledError carrying
    /// @p what and the deadline once it has passed; no-op otherwise.
    void throw_if_expired(const char* what) const
    {
        if (expired())
            MYST_THROW(CancelledError,
                       what << ": deadline of " << *deadline_ms_ << " ms exceeded");
    }

  private:
    std::optional<uint64_t> deadline_ms_; ///< nullopt: no deadline armed
    std::chrono::steady_clock::time_point deadline_;
};

} // namespace mystique
