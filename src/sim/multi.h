/**
 * @file
 * Conservative multi-device co-simulation.
 *
 * MultiSim steps N SimGpu instances in lockstep against a shared
 * horizon so cross-device signals (mirrored events — the simulator's
 * stand-in for NCCL's device-to-device synchronization) are delivered
 * in causal order. Each device advances only to the global minimum
 * next-event time, so no device can run past the moment a peer's
 * record becomes visible to it.
 *
 * The interconnect itself is not a separate entity: each device's comm
 * stream is its link endpoint (a FIFO queue serializes transfers, as a
 * full-duplex ring link does), and transfer latency/bandwidth is
 * charged by the comm kernels the dispatcher enqueues (see
 * kernels/cost.h comm_transfer_cost).
 */
#pragma once

#include <memory>
#include <vector>

#include "sim/gpu.h"

namespace astra {

/**
 * One ring-interconnect link (defaults approximate a single-lane
 * NVLink-class pipe with software latency).
 *
 * NOTE: link_gbps is giga*bits* per second — the unit networks are
 * quoted in — not gigabytes. 1 Gbit/s moves one bit per nanosecond,
 * so transferring B bytes takes B * 8 / link_gbps ns plus latency.
 */
struct LinkConfig
{
    double link_gbps = 12.0;   ///< gigabits per second, per link
    double latency_us = 10.0;  ///< per-message software + wire latency
};

/** Co-simulates a group of SimGpu devices with cross-device events. */
class MultiSim
{
  public:
    /** Create `count` devices, all with the same config. */
    MultiSim(int count, const GpuConfig& config);

    int num_devices() const { return static_cast<int>(devices_.size()); }

    SimGpu& device(int i) { return *devices_[static_cast<size_t>(i)]; }
    const SimGpu& device(int i) const
    {
        return *devices_[static_cast<size_t>(i)];
    }

    /**
     * Mirror: when `src_event` on device `src` is recorded, record
     * `dst_event` on device `dst` at the same timestamp. This is how a
     * ring-allreduce step on one device gates its neighbour: the
     * receiver waits on its local dst_event, which fires only once the
     * sender's record executes. Both events must be unrecorded when
     * the mirror is registered.
     */
    void mirror(int src, EventId src_event, int dst, EventId dst_event);

    /**
     * Run every device to completion, delivering mirrors in causal
     * order. Panics on deadlock (a device blocked on a cross-device
     * event whose source chain can never fire).
     */
    void run();

    /** Max simulated time across devices; meaningful after run(). */
    double now_ns() const;

  private:
    struct Mirror
    {
        int src = -1;
        EventId src_event = -1;
        int dst = -1;
        EventId dst_event = -1;
        bool delivered = false;
    };

    /** Deliver newly-recorded mirrors; true if anything was delivered. */
    bool deliver_mirrors();

    std::vector<std::unique_ptr<SimGpu>> devices_;
    std::vector<Mirror> mirrors_;
};

}  // namespace astra
