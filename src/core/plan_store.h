/**
 * @file
 * Persistent plan knowledge base (ROADMAP "wiring as a service"): an
 * on-disk store of winning configurations, shared across processes.
 *
 * Astra's bet is that DL jobs are predictable across mini-batches; the
 * store extends that predictability across *process lifetimes*. A fleet
 * that has wired a workload once should not pay thousands of measured
 * mini-batches the next time the same workload — or a near neighbor —
 * shows up on the same device class.
 *
 * Entries are keyed by four canonical 64-bit hashes (a word mixer over
 * the facts, not FNV-1a):
 *
 *   graph_sig    every structural fact of the DFG a plan depends on
 *                (op kinds, edges, full shapes, dtypes, attributes,
 *                scope provenance, pass) — two graphs with equal
 *                signatures converge to the same plan on the same
 *                device;
 *   shape_class  the same walk with dimension *values* masked to rank,
 *                so jobs differing only in batch/hidden width share a
 *                class (a different seq_len unrolls to a different node
 *                count and so a different class — a known limit);
 *   gpu_sig      the GpuConfig timing model (SMs, flops, HBM,
 *                launch/event overheads). Measurement-affecting noise
 *                knobs (autoboost, faults, tracing) are excluded: they
 *                perturb the journey, not the converged answer;
 *   lib_sig      the kernel-library set the plan chose from.
 *
 * Lookup walks a two-tier ladder, L1 -> L2 (the memory -> knowledge
 * rungs of AMOS's SubScheduler):
 *
 *   L1  exact match on all four hashes: reuse the stored config
 *       outright — no wiring, one measured mini-batch to verify;
 *   L2  same (shape_class, gpu_sig, lib_sig), different graph_sig: a
 *       shape neighbor. Its config pre-binds the transferable
 *       variables and seeds the wirer's best-so-far; only the residual
 *       space is explored.
 *
 * Anything else is a miss and wires cold: the winning GEMM library
 * depends on the shape (paper Table 1), so entries for other shape
 * classes say nothing about this graph (DESIGN.md §5.10).
 *
 * Changing the GPU timing model or the library set changes gpu_sig /
 * lib_sig, so stale knowledge invalidates by key mismatch — the same
 * key-mangling-as-invalidation discipline the profile index uses for
 * its contexts (§5.1).
 *
 * An entry holds exactly what the ladder reads: the key, the flops
 * distance, the stored best time (L1's drift check) and the config.
 * On disk, each entry is one file framed by a versioned header carrying
 * the payload length and an FNV-1a checksum; truncated or corrupted
 * files are rejected with a "line N" diagnosis and never silently
 * accepted. The writer emits v2; v1 entries, which also carried the
 * exploration's statistics, still load (tests/data/plan_store_v1 and
 * plan_store_v2 are the compatibility fixtures CI replays). Writes go
 * to a temp file then rename, so concurrent readers see only whole
 * entries.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_io.h"
#include "core/scheduler.h"
#include "graph/graph.h"
#include "sim/gpu.h"

namespace astra {

/** FNV-1a 64-bit offset basis: the hash of no bytes. */
constexpr uint64_t kFnvOffset = 14695981039346656037ull;

/** FNV-1a 64-bit over a byte string (entry checksums and file names). */
uint64_t fnv1a64(std::string_view bytes);
uint64_t fnv1a64(const void* data, size_t len, uint64_t seed);

/** Fixed-width lowercase hex of a 64-bit hash (filenames, headers). */
std::string hash_hex(uint64_t h);

/** Canonical identity of one (workload, device, library-set) sighting. */
struct PlanStoreKey
{
    uint64_t graph_sig = 0;
    uint64_t shape_class = 0;
    uint64_t gpu_sig = 0;
    uint64_t lib_sig = 0;

    /**
     * Static matmul flop estimate of the graph — the L2 neighbor
     * distance (closest |log flops ratio| wins; deterministic filename
     * tie-break). Not part of the identity.
     */
    double total_flops = 0.0;

    bool
    operator==(const PlanStoreKey& o) const
    {
        return graph_sig == o.graph_sig && shape_class == o.shape_class &&
               gpu_sig == o.gpu_sig && lib_sig == o.lib_sig;
    }
};

/** Canonicalize a graph + device into a store key (see file header). */
PlanStoreKey make_plan_store_key(const Graph& graph,
                                 const GpuConfig& gpu);

/** One persisted wiring outcome. */
struct PlanStoreEntry
{
    PlanStoreKey key;

    /** The winning configuration. */
    ScheduleConfig config;

    /** Measured end-to-end time of the winner when stored (ns). */
    double best_ns = 0.0;
};

/**
 * How far a plan's measured time may stray from the time it was stored
 * or installed with, relative to that time, before the plan counts as
 * stale for this device. An L1 verification mini-batch beyond it
 * demotes the hit to an L2 warm start; the serving drift watcher fires
 * a re-wire past it, so online detection and offline verification
 * agree on what "stale" means.
 */
constexpr double kStoreDriftRel = 0.25;

/** Which rung of the lookup ladder answered (report labels). */
enum class StoreTier
{
    Miss,  ///< cold: nothing reusable, full exploration
    L2,    ///< shape-neighbor transfer (partial reuse)
    L1,    ///< exact hit (no wiring)
};

/** Stable string name ("miss", "l2", "l1") for reports. */
const char* store_tier_name(StoreTier t);

/** Outcome of one ladder walk. */
struct StoreLookup
{
    StoreTier tier = StoreTier::Miss;

    /** Valid when tier is L1 or L2 (the exact or neighbor entry). */
    PlanStoreEntry entry;

    /**
     * Diagnoses of entries that were present but rejected (corrupt,
     * truncated, wrong version) during the walk — surfaced to the
     * convergence report so a decaying store is visible, not silent.
     */
    std::vector<std::string> errors;
};

/**
 * Directory-backed knowledge base. Thread-compatible (distinct
 * instances may share a directory across processes; writes are atomic
 * via temp-file + rename).
 */
class PlanStore
{
  public:
    explicit PlanStore(std::filesystem::path dir);

    const std::filesystem::path& dir() const { return dir_; }

    /**
     * Persist one wiring outcome (overwriting any entry under the same
     * key).
     * @return false (with *error filled when non-null) on I/O failure.
     */
    bool put(const PlanStoreEntry& entry, std::string* error = nullptr);

    /** Walk the L1 -> L2 ladder for a key. */
    StoreLookup lookup(const PlanStoreKey& key) const;

    /** Entry filename for a key ("<shape>.<gpu>.<lib>.<graph>.plan"). */
    static std::string entry_filename(const PlanStoreKey& key);

    /**
     * Serialize one entry with the versioned/checksummed framing.
     * Exposed (with read_entry) so tests can build golden fixtures and
     * corrupt them deliberately.
     */
    static std::string entry_to_string(const PlanStoreEntry& entry);

    /**
     * Parse a framed v2 or v1 entry; rejects other versions, truncation
     * (payload shorter than the declared length) and checksum failures.
     * @return false (leaving *entry untouched) on malformed input;
     *         *error receives "line N: reason" when non-null.
     */
    static bool entry_from_string(std::string_view text,
                                  PlanStoreEntry* entry,
                                  std::string* error = nullptr);

  private:
    /** Load + verify one entry file. */
    bool read_entry_file(const std::filesystem::path& path,
                         PlanStoreEntry* entry, std::string* error) const;

    /** Atomically write `text` to `path` (temp + rename). */
    bool write_file(const std::filesystem::path& path,
                    const std::string& text, std::string* error) const;

    std::filesystem::path dir_;
};

/**
 * The ASTRA_PLAN_STORE environment variable, or "" when unset — the
 * default for AstraOptions::plan_store, so any driver joins the fleet
 * knowledge base without a flag.
 */
std::string plan_store_dir_from_env();

}  // namespace astra
