/**
 * @file
 * Persistence for tuned configurations and exploration checkpoints.
 *
 * The custom wirer spends a few thousand mini-batches finding the best
 * configuration; a restarted job should not repeat that. These
 * helpers serialize a ScheduleConfig to a small line-oriented text
 * format and load it back, so steady-state training resumes at the
 * tuned schedule immediately (profiling keys are transient and not
 * persisted).
 *
 * A WirerCheckpoint goes further: it is the wirer's measurement
 * journal — every dispatched mini-batch's raw timing, profile samples
 * and fault outcome, per strategy shard, in dispatch order. Resuming
 * from it replays the journal instead of re-dispatching, then
 * continues live, and because the journal holds the *raw* (pre
 * clock-normalization) values in hexfloat, a resumed exploration is
 * bit-identical to one that never stopped. All doubles round-trip
 * through hexfloat for exactly that reason.
 *
 * Every reader takes an optional error slot: on malformed input it
 * fills *error with "line N: reason" so a corrupt on-disk entry is
 * diagnosable (which file, where, why) instead of silently falling
 * back to a cold start. Tokens, diagnostics and number formatting are
 * the record layer's (support/record.h).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace astra {

/** Serialize the adapted dimensions of a configuration. */
void write_config(std::ostream& os, const ScheduleConfig& config);

/**
 * Parse a configuration written by write_config.
 * @return false (leaving *config untouched) on malformed input; when
 *         `error` is non-null it receives "line N: reason".
 */
bool read_config(std::istream& is, ScheduleConfig* config,
                 std::string* error = nullptr);

/** Convenience: round-trip through a string. */
std::string config_to_string(const ScheduleConfig& config);
bool config_from_string(std::string_view text, ScheduleConfig* config,
                        std::string* error = nullptr);

/**
 * One dispatched mini-batch as journaled by the custom wirer: the raw
 * measurement (before any clock normalization) plus its fault outcome.
 * Replaying the record through the wirer's accounting reproduces the
 * exact state the live dispatch produced.
 */
struct DispatchRecord
{
    double total_ns = 0.0;
    double clock_multiplier = 1.0;
    bool faulted = false;
    int fault_attempts = 0;
    int64_t faults_seen = 0;
    int64_t straggler_events = 0;
    double backoff_ns = 0.0;

    /** Raw per-key profile samples, in profile_ns iteration order. */
    std::vector<std::pair<std::string, double>> profile;
};

/** Exploration state: one dispatch journal per strategy shard. */
struct WirerCheckpoint
{
    std::vector<std::vector<DispatchRecord>> strategies;

    bool
    empty() const
    {
        for (const auto& s : strategies)
            if (!s.empty())
                return false;
        return true;
    }
};

/** Serialize a checkpoint (hexfloat doubles: bit-exact round-trip). */
void write_checkpoint(std::ostream& os, const WirerCheckpoint& cp);

/** Convenience: write_checkpoint into a string. */
std::string checkpoint_to_string(const WirerCheckpoint& cp);

/**
 * Parse a checkpoint written by write_checkpoint.
 * @return false (leaving *cp untouched) on malformed input; `error`
 *         receives "line N: reason" when non-null.
 */
bool checkpoint_from_string(std::string_view text, WirerCheckpoint* cp,
                            std::string* error = nullptr);

}  // namespace astra
