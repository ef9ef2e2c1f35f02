/**
 * @file
 * Fork-join over an index range, for deterministic fan-out.
 *
 * The parallel wirer (core/wirer.cc) runs its per-allocation-strategy
 * exploration pipelines concurrently, but every ordered reduction
 * happens after the join, so the fan-out only needs to guarantee that
 * every task of a batch completes, never anything about ordering.
 * With one thread it is exactly the serial loop: callers use one code
 * path for both regimes, which is what makes "bit-identical results at
 * any thread count" a reviewable property instead of a hope.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace astra {

/**
 * Run fn(i) for every i in [0, n), returning when all have completed.
 *
 * With threads <= 1 or n <= 1 this is the inline loop in index order.
 * Otherwise it starts min(threads, n) - 1 threads, which claim indices
 * from one shared counter together with the calling thread, so tasks
 * run in any order and concurrently; fn must be safe for that. A
 * throwing task does not stop the others: the first exception is
 * rethrown once every thread has been joined.
 */
template <typename Fn>
void
parallel_for(int threads, int64_t n, const Fn& fn)
{
    if (threads <= 1 || n <= 1) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::exception_ptr error;  // first failure (guarded by mu)
    const auto drain = [&] {
        for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    const int64_t spawn = std::min<int64_t>(threads, n) - 1;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(spawn));
    try {
        for (int64_t t = 0; t < spawn; ++t)
            workers.emplace_back(drain);
    } catch (...) {
        // A thread failed to start: the ones started and the caller
        // drain the rest, which leaves every result unchanged, and
        // the started ones are still joined below.
    }
    drain();
    for (std::thread& w : workers)
        w.join();
    if (error)
        std::rethrow_exception(error);
}

}  // namespace astra
