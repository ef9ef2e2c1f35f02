/**
 * @file
 * Persistence for tuned configurations.
 *
 * The custom wirer spends a few thousand mini-batches finding the best
 * configuration; a restarted job should not repeat that. These
 * helpers serialize a ScheduleConfig to a small line-oriented text
 * format and load it back, so steady-state training resumes at the
 * tuned schedule immediately (profiling keys are transient and not
 * persisted). The plan store (core/plan_store.h) embeds the same text
 * in its entries.
 *
 * The reader takes an optional error slot: on malformed input it
 * fills *error with "line N: reason" so a corrupt on-disk entry is
 * diagnosable (which file, where, why) instead of silently falling
 * back to a cold start. Tokens, diagnostics and number formatting are
 * the record layer's (support/record.h).
 */
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

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

}  // namespace astra
