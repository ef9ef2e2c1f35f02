/**
 * @file
 * Simulated HBM device memory.
 *
 * Allocations have real device addresses inside one contiguous pool, so
 * "are these tensors adjacent?" is a meaningful question — GEMM fusion
 * without copies requires operand tensors to be allocated contiguously
 * (paper §3.2), and the memory planner decides placement. Host storage
 * backs the pool so kernels compute actual values; the pool gets it on
 * the first f32()/i32() call, so a timing-only session, which never
 * reads its tensors' bytes, holds none.
 *
 * Allocation failure is a *recoverable* condition (MemoryError), not a
 * process abort: the session layer reacts by degrading to a more
 * conservative allocation strategy (liveness-based buffer reuse, then a
 * recompute-rewritten graph — core/astra.h's graceful-degradation
 * ladder) the way a training framework falls back when cudaMalloc
 * fails. Injected allocation faults (sim/faults.h) exercise the same
 * path without actually shrinking the pool.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "sim/faults.h"
#include "support/logging.h"

namespace astra {

/** Device address within the simulated HBM pool (byte offset). */
using DevPtr = int64_t;

/** Sentinel for "not allocated". */
constexpr DevPtr kNullDev = -1;

/** Recoverable device-memory failure (the cudaError of this testbed). */
class MemoryError : public std::runtime_error
{
  public:
    enum class Kind
    {
        Exhausted,   ///< the request does not fit the pool
        BadPointer,  ///< a device address outside the pool
        Injected,    ///< a fault-plan allocation failure
    };

    MemoryError(Kind kind, int64_t requested, int64_t capacity);

    Kind kind() const { return kind_; }

    /** Bytes requested (Exhausted/Injected) or the offending address. */
    int64_t requested() const { return requested_; }

    /** Pool capacity at the time of the failure. */
    int64_t capacity() const { return capacity_; }

  private:
    Kind kind_;
    int64_t requested_;
    int64_t capacity_;
};

/** A bump allocator over one simulated HBM pool. */
class SimMemory
{
  public:
    /**
     * @param bytes pool capacity (default 512 MiB).
     * @param zero zero-fill the host storage when it is first backed
     *        (value-executing runs want deterministic contents;
     *        timing-only sweeps skip the cost and never read it).
     */
    explicit SimMemory(int64_t bytes = 512ll * 1024 * 1024,
                       bool zero = true);

    /**
     * Allocate `bytes` with the given alignment. Throws MemoryError on
     * exhaustion or when an armed fault plan injects a failure — the
     * caller degrades (core/astra.h) instead of the process dying.
     */
    DevPtr allocate(int64_t bytes, int64_t align = 256);

    /**
     * Arm fault injection on this pool: Alloc-kind specs can fail
     * individual allocations, and the largest Alloc factor models
     * fragmentation by dividing the effective capacity. The plan must
     * outlive the pool. Sequence state survives reset(), so a one-shot
     * `at=N` fault does not re-fire when the caller retries after
     * degrading.
     */
    void arm_faults(const FaultPlan* plan, uint64_t salt);

    /** Reset the allocator (invalidates all previous allocations). */
    void reset() { next_ = 0; }

    /** Bytes currently allocated. */
    int64_t used() const { return next_; }

    /** Pool capacity in bytes. */
    int64_t capacity() const { return capacity_; }

    /** Capacity after the armed plan's fragmentation headroom. */
    int64_t effective_capacity() const;

    /** Host pointer backing a device address (fp32 view). */
    float*
    f32(DevPtr p)
    {
        return reinterpret_cast<float*>(host(p));
    }
    const float*
    f32(DevPtr p) const
    {
        return reinterpret_cast<const float*>(host(p));
    }

    /** Host pointer backing a device address (i32 view). */
    int32_t*
    i32(DevPtr p)
    {
        return reinterpret_cast<int32_t*>(host(p));
    }

    /** True when b starts exactly where a (of `a_bytes` bytes) ends. */
    static bool
    adjacent(DevPtr a, int64_t a_bytes, DevPtr b)
    {
        return a >= 0 && b >= 0 && a + a_bytes == b;
    }

  private:
    /** Host byte backing `p`; the first call from any thread backs
        the pool (TensorMaps are read through const references). */
    uint8_t* host(DevPtr p) const;

    int64_t capacity_;
    int64_t next_ = 0;
    bool zero_;
    mutable std::once_flag backed_;
    mutable std::unique_ptr<uint8_t[]> pool_;
    FaultInjector injector_;
};

}  // namespace astra
