/**
 * @file
 * Exporters for the observability recorder (obs/obs.h).
 *
 * Chrome trace-event JSON places host-side spans (pid 1, one track
 * per thread) and simulated-device kernel spans (pid 0, one track per
 * stream) on a single timeline, viewable in chrome://tracing or
 * Perfetto. Device spans carry simulated time shifted to the host
 * clock of the dispatch that produced them, so each mini-batch's
 * kernels appear under its dispatch span.
 *
 * The kernel-span-only overload renders device kernel spans alone and
 * is kept for single-run schedule dumps.
 */
#pragma once

#include <iosfwd>
#include <vector>

#include "obs/obs.h"

namespace astra {

/** Render device kernel spans alone (legacy sim-trace format). */
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceSpan>& spans);

namespace obs {

/** Render host + device spans as one Chrome trace-event document. */
void write_chrome_trace(std::ostream& os, const std::vector<Span>& host,
                        const std::vector<TraceSpan>& kernels);

/** Render the global recorder's current contents. */
void write_chrome_trace(std::ostream& os);

/**
 * Plain-text report: span time per category, counters, histograms.
 * Reads the global recorder.
 */
void write_text_summary(std::ostream& os);

}  // namespace obs
}  // namespace astra
