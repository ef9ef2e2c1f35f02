#include "sim/gpu.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

bool
sim_autoboost_env()
{
    static const bool on = [] {
        const char* v = std::getenv("ASTRA_SIM_AUTOBOOST");
        if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0)
            return false;
        if (std::strcmp(v, "1") == 0)
            return true;
        // Not a boolean: stay off (the deterministic default), but say
        // so — "false" or "off" must not silently mean on.
        std::fprintf(stderr,
                     "ASTRA_SIM_AUTOBOOST ignored (want 0 or 1): '%s'\n",
                     v);
        return false;
    }();
    return on;
}

SimGpu::SimGpu(GpuConfig config)
    : config_(std::move(config)),
      injector_(&config_.faults, config_.fault_salt),
      boost_rng_(config_.autoboost_seed)
{
    streams_.emplace_back();  // default stream 0
}

StreamId
SimGpu::create_stream()
{
    streams_.emplace_back();
    return static_cast<StreamId>(streams_.size() - 1);
}

EventId
SimGpu::create_event()
{
    event_times_.push_back(-1.0);
    return static_cast<EventId>(event_times_.size() - 1);
}

void
SimGpu::launch(StreamId stream, KernelDesc kernel, ProfileKey key)
{
    owned_.push_back(std::move(kernel));
    launch_ref(stream, owned_.back(), key);
}

void
SimGpu::launch_ref(StreamId stream, const KernelDesc& kernel, ProfileKey key)
{
    ASTRA_ASSERT(stream >= 0 && stream < num_streams(), "bad stream");
    ASTRA_ASSERT(kernel.blocks >= 0 && kernel.block_ns >= 0.0,
                 "bad kernel cost for ", kernel.name);
    Command cmd;
    cmd.type = CmdType::Launch;
    cmd.kernel = &kernel;
    cmd.key = key;
    if (injector_.armed()) {
        const KernelFault fault = injector_.on_kernel(kernel.name);
        if (fault.fail) {
            cmd.faulted = true;
            ++stats_.faults_injected;
        }
        if (fault.slowdown > 1.0) {
            // A straggler spike stretches the kernel's own execution;
            // the launch front-end is unaffected.
            cmd.slowdown = fault.slowdown;
            ++stats_.straggler_events;
        }
    }
    // Launches are consumed sequentially by the device front-end; a
    // kernel may not begin before its command is through the pipe.
    // When kernels are long the pipe runs ahead and the overhead
    // disappears; when they are tiny the SMs starve on it
    // (launch-bound regime, §2.3). The front-end rides the same clock
    // as the SMs, so the whole timeline scales with DVFS state.
    host_time_ += config_.launch_overhead_ns * begin_command();
    cmd.ready_at = host_time_;
    streams_[static_cast<size_t>(stream)].queue.push_back(std::move(cmd));
    if (obs::enabled()) {
        static obs::Counter& launches =
            obs::counter("sim.kernels_launched");
        launches.add();
        // Per-stream tallies: launch() is the hottest simulator entry
        // point (every kernel of every mini-batch), so the string-keyed
        // registry lookup — and the name formatting feeding it — must
        // not run per launch. Cache resolved handles for the small
        // stream ids; counters are never destroyed, so a published
        // pointer stays valid for the process lifetime.
        static constexpr int kCachedStreams = 16;
        static std::array<std::atomic<obs::Counter*>, kCachedStreams>
            per_stream{};
        obs::Counter* sc = nullptr;
        if (stream >= 0 && stream < kCachedStreams) {
            sc = per_stream[static_cast<size_t>(stream)].load(
                std::memory_order_acquire);
            if (sc == nullptr) {
                sc = &obs::counter("sim.kernels_launched.stream" +
                                   std::to_string(stream));
                per_stream[static_cast<size_t>(stream)].store(
                    sc, std::memory_order_release);
            }
        } else {
            sc = &obs::counter("sim.kernels_launched.stream" +
                               std::to_string(stream));
        }
        sc->add();
    }
}

void
SimGpu::record_event(StreamId stream, EventId event)
{
    ASTRA_ASSERT(stream >= 0 && stream < num_streams(), "bad stream");
    ASTRA_ASSERT(event >= 0 &&
                 event < static_cast<EventId>(event_times_.size()));
    Command cmd;
    cmd.type = CmdType::Record;
    cmd.event = event;
    // Event commands share the sequential front-end pipe with kernel
    // launches — cheaper per command, but fine-grained profiling is
    // not free (§5.1).
    host_time_ += config_.event_enqueue_ns * begin_command();
    cmd.ready_at = host_time_;
    streams_[static_cast<size_t>(stream)].queue.push_back(std::move(cmd));
}

void
SimGpu::wait_event(StreamId stream, EventId event)
{
    ASTRA_ASSERT(stream >= 0 && stream < num_streams(), "bad stream");
    ASTRA_ASSERT(event >= 0 &&
                 event < static_cast<EventId>(event_times_.size()));
    Command cmd;
    cmd.type = CmdType::Wait;
    cmd.event = event;
    host_time_ += config_.event_enqueue_ns * begin_command();
    cmd.ready_at = host_time_;
    streams_[static_cast<size_t>(stream)].queue.push_back(std::move(cmd));
}

double
SimGpu::boost_factor() const
{
    return 1.0 / clock_m_;
}

double
SimGpu::begin_command()
{
    // DVFS state is re-evaluated between launch sequences (the
    // governor reacts far slower than a mini-batch): the first command
    // after a drain samples the clock, which then holds until the next
    // synchronize. Every timed quantity — front-end command cost,
    // kernel setup, block time, event record — scales by the same
    // factor, exactly like a core-clock change on hardware. A forced
    // multiplier (set per dispatch by a ClockDomain owner) replaces
    // the draw but keeps the same hold-until-drain dynamics.
    if (!clock_sampled_) {
        if (config_.forced_clock_multiplier > 0.0) {
            clock_m_ = config_.forced_clock_multiplier;
            clock_sampled_ = true;
        } else if (config_.autoboost) {
            clock_m_ = 1.0 + kAutoboostAmplitude * boost_rng_.next_double();
            clock_sampled_ = true;
        }
    }
    return boost_factor();
}

bool
SimGpu::activate_ready()
{
    bool any = false;
    for (size_t s = 0; s < streams_.size(); ++s) {
        Stream& stream = streams_[s];
        while (stream.active < 0 && !stream.queue.empty()) {
            Command& head = stream.queue.front();
            // Every command waits for its host enqueue to complete.
            if (head.ready_at > now_)
                break;
            if (head.type == CmdType::Wait) {
                const double t =
                    event_times_[static_cast<size_t>(head.event)];
                if (t < 0.0 || t > now_)
                    break;  // not recorded yet: stream stalls
                stream.queue.pop_front();
                any = true;
                continue;
            }
            if (head.type == CmdType::Record) {
                Running r;
                r.stream = static_cast<int>(s);
                // Event records are device-side command processing and
                // ride the clock like any other work.
                r.serial_left = config_.event_record_ns * boost_factor();
                r.blocks_left = 0.0;
                r.is_event = true;
                r.event = head.event;
                stream.active = static_cast<int>(running_.size());
                running_.push_back(r);
                stream.queue.pop_front();
                any = true;
                break;
            }
            // The kernel's host-visible effects (its compute) happen
            // as it begins executing; a consumer scheduled without the
            // proper event dependency therefore reads stale data.
            const KernelDesc& k = *head.kernel;
            const double boost = boost_factor();
            Running r;
            r.stream = static_cast<int>(s);
            r.serial_left = (k.setup_ns * head.slowdown) * boost;
            r.blocks_left = static_cast<double>(k.blocks);
            r.blocks_total = r.blocks_left;
            r.block_ns = std::max((k.block_ns * head.slowdown) * boost,
                                  1e-9);
            r.max_sms = k.max_sms > 0 ? std::min(k.max_sms, config_.num_sms)
                                      : config_.num_sms;
            if (config_.execute_kernels && k.compute && !head.faulted)
                k.compute();
            r.started_at = now_;
            r.kernel = &k;
            r.key = head.key;
            ++stats_.kernels_launched;
            stream.active = static_cast<int>(running_.size());
            running_.push_back(r);
            stream.queue.pop_front();
            any = true;
            break;
        }
    }
    return any;
}

void
SimGpu::waterfill()
{
    // Kernels still in their serial phase hold no SMs. The rest share
    // the pool: repeatedly grant each unsatisfied kernel an equal share,
    // capped by its own demand, until the pool or the demand runs out.
    size_t remaining = 0;
    for (Running& r : running_) {
        r.alloc = 0.0;
        r.filling = r.serial_left <= 0.0 && r.blocks_left > 0.0;
        if (r.filling) {
            // A kernel's resident footprint is its total block count
            // (its final wave holds the SMs until the blocks drain),
            // capped by its occupancy limit.
            r.demand = std::min(static_cast<double>(r.max_sms),
                                std::ceil(r.blocks_total));
            ++remaining;
        }
    }
    double free = static_cast<double>(config_.num_sms);
    while (remaining > 0 && free > 1e-12) {
        const double share = free / static_cast<double>(remaining);
        bool capped_any = false;
        for (Running& r : running_) {
            if (!r.filling)
                continue;
            const double want = r.demand - r.alloc;
            if (want <= share + 1e-12) {
                r.alloc += want;
                free -= want;
                r.filling = false;
                --remaining;
                capped_any = true;
            }
        }
        if (!capped_any) {
            for (Running& r : running_) {
                if (r.filling) {
                    r.alloc += share;
                    free -= share;
                }
            }
            break;
        }
    }
}

void
SimGpu::synchronize()
{
    const RunState state =
        run_until(std::numeric_limits<double>::infinity());
    if (state == RunState::Blocked)
        panic("SimGpu deadlock: streams stalled on events that will "
              "never be recorded");
}

SimGpu::RunState
SimGpu::run_until(double t_stop)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    next_event_ = kInf;
    while (true) {
        activate_ready();

        // Idle streams bound the next event time: a head command still
        // being enqueued by the host, or a wait on an event recorded
        // (externally) at a future timestamp.
        double next_ready = kInf;
        for (const Stream& s : streams_) {
            if (s.active >= 0 || s.queue.empty())
                continue;
            const Command& head = s.queue.front();
            if (head.ready_at > now_) {
                next_ready = std::min(next_ready, head.ready_at);
            } else if (head.type == CmdType::Wait) {
                const double t =
                    event_times_[static_cast<size_t>(head.event)];
                if (t > now_)
                    next_ready = std::min(next_ready, t);
            }
        }

        if (running_.empty()) {
            bool pending = false;
            for (const Stream& s : streams_)
                pending |= !s.queue.empty();
            if (!pending) {
                stats_.elapsed_ns = now_;
                // Pipeline drained: the next launch sequence re-samples
                // the clock (clock_multiplier() keeps reporting this
                // sequence's value until then — successive mini-batches
                // measuring differently is the §7 repeatability
                // violation).
                clock_sampled_ = false;
                // No command or running kernel points at a by-value
                // descriptor any more.
                owned_.clear();
                return RunState::Drained;
            }
            if (next_ready < kInf) {
                if (next_ready > t_stop) {
                    next_event_ = next_ready;
                    now_ = t_stop;
                    stats_.elapsed_ns = now_;
                    return RunState::Paused;
                }
                now_ = next_ready;  // device idles until the host catches up
                continue;
            }
            stats_.elapsed_ns = now_;
            return RunState::Blocked;
        }

        waterfill();

        // Time to the next phase boundary or completion.
        double dt = next_ready - now_;
        for (const Running& r : running_) {
            if (r.serial_left > 0.0) {
                dt = std::min(dt, r.serial_left);
            } else if (r.blocks_left > 0.0) {
                if (r.alloc > 0.0)
                    dt = std::min(dt, r.blocks_left * r.block_ns / r.alloc);
            } else {
                dt = 0.0;  // already complete (e.g., zero-block kernel)
            }
        }
        ASTRA_ASSERT(dt < kInf, "no runnable kernel can make progress");

        // Horizon clipping: kernel progress is linear within a phase
        // (dt never crosses a phase boundary), so a partial advance to
        // the horizon composes exactly with the resumed run.
        bool clipped = false;
        if (now_ + dt > t_stop) {
            next_event_ = now_ + dt;
            dt = t_stop - now_;
            clipped = true;
        }

        // Advance.
        now_ += dt;
        for (Running& r : running_) {
            if (r.serial_left > 0.0) {
                r.serial_left = std::max(0.0, r.serial_left - dt);
            } else if (r.blocks_left > 0.0 && r.alloc > 0.0) {
                r.blocks_left =
                    std::max(0.0, r.blocks_left - dt * r.alloc / r.block_ns);
                stats_.busy_sm_ns += r.alloc * dt;
            }
        }
        if (clipped) {
            now_ = t_stop;
            stats_.elapsed_ns = now_;
            return RunState::Paused;
        }

        // Retire finished kernels, compacting the rest in place.
        size_t kept = 0;
        for (const Running& r : running_) {
            const bool finished = r.serial_left <= 1e-12 &&
                                  r.blocks_left <= 1e-9;
            if (!finished) {
                running_[kept++] = r;
            } else if (r.is_event) {
                event_times_[static_cast<size_t>(r.event)] = now_;
                ++stats_.events_recorded;
            } else if (config_.collect_trace) {
                trace_.push_back({r.kernel->name, r.stream, r.started_at,
                                  now_, r.key});
            }
        }
        running_.resize(kept);
        // Re-link stream -> running index after compaction.
        for (Stream& s : streams_)
            s.active = -1;
        for (size_t i = 0; i < running_.size(); ++i)
            streams_[static_cast<size_t>(running_[i].stream)].active =
                static_cast<int>(i);
    }
}

void
SimGpu::record_external(EventId event, double t)
{
    ASTRA_ASSERT(event >= 0 &&
                 event < static_cast<EventId>(event_times_.size()));
    ASTRA_ASSERT(event_times_[static_cast<size_t>(event)] < 0.0,
                 "external record of an already-recorded event ", event);
    ASTRA_ASSERT(t >= 0.0);
    event_times_[static_cast<size_t>(event)] = t;
}

double
SimGpu::event_time_ns(EventId event) const
{
    ASTRA_ASSERT(event >= 0 &&
                 event < static_cast<EventId>(event_times_.size()));
    const double t = event_times_[static_cast<size_t>(event)];
    if (t < 0.0)
        fatal("querying unrecorded event ", event);
    return t;
}

bool
SimGpu::event_recorded(EventId event) const
{
    ASTRA_ASSERT(event >= 0 &&
                 event < static_cast<EventId>(event_times_.size()));
    return event_times_[static_cast<size_t>(event)] >= 0.0;
}

double
SimGpu::elapsed_ns(EventId start, EventId end) const
{
    return event_time_ns(end) - event_time_ns(start);
}

double
SimGpu::utilization() const
{
    if (now_ <= 0.0)
        return 0.0;
    return stats_.busy_sm_ns / (now_ * config_.num_sms);
}

}  // namespace astra
