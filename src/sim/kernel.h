/**
 * @file
 * Kernel descriptor consumed by the GPU simulator.
 *
 * A kernel is (a) a cost shape — how many parallel blocks of work it
 * carries and how long one block takes on one SM — and (b) a host-side
 * compute callback that produces the kernel's real FP32 result. The
 * callback runs when the kernel *starts* executing on the device, so a
 * schedule with a missing dependency reads stale producer data and is
 * caught by the value-preservation tests, exactly like a real data race.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>


namespace astra {

/** One device kernel launch. */
struct KernelDesc
{
    /** Debug/trace label, e.g. "mm.%42.cublas". */
    std::string name;

    /**
     * Number of thread blocks (units of parallel work). Must be >= 0;
     * 0 means the kernel holds no SMs and is pure setup time — how
     * copy-engine/NIC transfers (comm_transfer_cost) are modelled.
     */
    int64_t blocks = 1;

    /** Time for one block on one SM, in nanoseconds. */
    double block_ns = 0.0;

    /** Serial on-device setup (pipeline fill) before blocks start. */
    double setup_ns = 0.0;

    /**
     * Occupancy cap: at most this many SMs may run this kernel's blocks
     * concurrently (register/shared-memory pressure). 0 = no cap.
     */
    int max_sms = 0;

    /** Host-side computation of the kernel's actual result. */
    std::function<void()> compute;
};

}  // namespace astra
