/**
 * @file
 * Wall-clock timing helpers for benchmarks and the runtime's per-worker
 * work/scheduling/idle accounting.
 */
#ifndef NUMAWS_SUPPORT_TIMING_H
#define NUMAWS_SUPPORT_TIMING_H

#include <chrono>
#include <cstdint>

#include "support/relaxed.h"

namespace numaws {

/** Monotonic nanosecond timestamp. */
inline int64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now().time_since_epoch())
        .count();
}

/** Simple start/stop stopwatch reporting seconds. */
class WallTimer
{
  public:
    WallTimer() : _start(nowNs()) {}

    void reset() { _start = nowNs(); }

    /** Seconds since construction or the last reset(). */
    double
    seconds() const
    {
        return static_cast<double>(nowNs() - _start) * 1e-9;
    }

    int64_t nanoseconds() const { return nowNs() - _start; }

  private:
    int64_t _start;
};

/**
 * Accumulator that splits a worker's lifetime into named buckets
 * (work / scheduling / idle), mirroring the paper's Figure 3 and 8
 * decomposition. The caller brackets each activity with enter/exit.
 * Each bucket is a single-writer word (support/relaxed.h): the owning
 * worker adds, and merge() may read a live owner's split.
 */
class TimeSplit
{
  public:
    enum Bucket { Work = 0, Scheduling = 1, Idle = 2, NumBuckets = 3 };

    void add(Bucket b, int64_t ns) { relaxedAdd(_ns[b], ns); }

    int64_t ns(Bucket b) const { return relaxedLoad(_ns[b]); }
    double seconds(Bucket b) const { return 1e-9 * ns(b); }

    void
    merge(const TimeSplit &other)
    {
        for (int b = 0; b < NumBuckets; ++b)
            _ns[b] += other.ns(static_cast<Bucket>(b));
    }

    /** Remove a baseline taken earlier from the same split. */
    void
    subtract(const TimeSplit &base)
    {
        for (int b = 0; b < NumBuckets; ++b)
            _ns[b] -= base._ns[b];
    }

  private:
    int64_t _ns[NumBuckets] = {0, 0, 0};
};

} // namespace numaws

#endif // NUMAWS_SUPPORT_TIMING_H
