/**
 * @file
 * Fixed-bucket log-scale latency histogram for the serving front door.
 *
 * Per-job latencies span six orders of magnitude (microsecond fib jobs to
 * second-long batch DAGs), so linear buckets are useless and exact
 * reservoirs allocate. This is the standard HDR-style layout: exact unit
 * buckets below 2^kSubBits, then kSub sub-buckets per power of two, giving
 * a bounded 1/kSub (12.5%) relative bucket width everywhere. record() is
 * two array ops and a bit scan — no allocation, fit for a worker's
 * job-completion path — and histograms merge by bucket-wise addition, so
 * Runtime::stats() can fold per-worker instances without locks, while
 * their owners record.
 */
#ifndef NUMAWS_SUPPORT_LATENCY_HIST_H
#define NUMAWS_SUPPORT_LATENCY_HIST_H

#include <cstdint>

#include "support/relaxed.h"

namespace numaws {

/** Mergeable log-scale histogram of non-negative integer samples
 * (nanoseconds by convention). */
class LatencyHist
{
  public:
    static constexpr int kSubBits = 3;
    static constexpr int kSub = 1 << kSubBits; ///< sub-buckets per octave
    /** Largest major covered exactly; larger samples clamp into the top
     * bucket. 2^42 ns is ~73 minutes — far beyond any job latency. */
    static constexpr int kMaxMajor = 42;
    static constexpr int kBuckets = (kMaxMajor - kSubBits + 2) * kSub;

    void
    record(uint64_t v)
    {
        relaxedAdd(_counts[indexOf(v)]);
        relaxedAdd(_total);
        relaxedAdd(_sum, v);
        if (_total == 1 || v < _min)
            relaxedStore(_min, v);
        if (v > _max)
            relaxedStore(_max, v);
    }

    void
    merge(const LatencyHist &o)
    {
        for (int i = 0; i < kBuckets; ++i)
            _counts[i] += relaxedLoad(o._counts[i]);
        const uint64_t total = relaxedLoad(o._total);
        if (total > 0) {
            const uint64_t lo = relaxedLoad(o._min);
            const uint64_t hi = relaxedLoad(o._max);
            if (_total == 0 || lo < _min)
                _min = lo;
            if (hi > _max)
                _max = hi;
        }
        _total += total;
        _sum += relaxedLoad(o._sum);
    }

    uint64_t count() const { return _total; }
    uint64_t min() const { return _total == 0 ? 0 : _min; }
    uint64_t max() const { return _max; }

    double
    mean() const
    {
        return _total == 0 ? 0.0
                           : static_cast<double>(_sum)
                                 / static_cast<double>(_total);
    }

    /**
     * Value at quantile @p q in [0, 1]: the midpoint of the bucket
     * holding the ceil(q * count)-th smallest sample, clamped into
     * [min, max] so exact extremes survive. Error is bounded by the
     * 12.5% bucket width (exact below 2^kSubBits).
     */
    double
    quantile(double q) const
    {
        if (_total == 0)
            return 0.0;
        if (q <= 0.0)
            return static_cast<double>(_min);
        uint64_t target = static_cast<uint64_t>(
            q * static_cast<double>(_total) + 0.5);
        if (target < 1)
            target = 1;
        if (target > _total)
            target = _total;
        uint64_t cum = 0;
        for (int i = 0; i < kBuckets; ++i) {
            cum += _counts[i];
            if (cum >= target) {
                const uint64_t lo = lowerBound(i);
                const uint64_t hi = lowerBound(i + 1);
                double v = static_cast<double>(lo)
                           + static_cast<double>(hi - lo) / 2.0;
                if (v < static_cast<double>(_min))
                    v = static_cast<double>(_min);
                if (v > static_cast<double>(_max))
                    v = static_cast<double>(_max);
                return v;
            }
        }
        return static_cast<double>(_max);
    }

    /** Inclusive lower bound of bucket @p idx (test hook; bucket idx
     * holds samples in [lowerBound(idx), lowerBound(idx + 1))). */
    static constexpr uint64_t
    lowerBound(int idx)
    {
        if (idx < kSub)
            return static_cast<uint64_t>(idx);
        const int major = idx / kSub - 1 + kSubBits;
        const int sub = idx % kSub;
        return static_cast<uint64_t>(kSub + sub) << (major - kSubBits);
    }

    /** Bucket index of sample @p v (test hook). */
    static constexpr int
    indexOf(uint64_t v)
    {
        if (v < kSub)
            return static_cast<int>(v);
        int major = 63;
        while ((v >> major) == 0)
            --major;
        if (major > kMaxMajor)
            major = kMaxMajor; // clamp: top bucket absorbs the tail
        const int sub = static_cast<int>(
            (v >> (major - kSubBits)) & (kSub - 1));
        return (major - kSubBits + 1) * kSub + sub;
    }

  private:
    uint64_t _counts[kBuckets] = {};
    uint64_t _total = 0;
    uint64_t _sum = 0;
    uint64_t _min = 0;
    uint64_t _max = 0;
};

} // namespace numaws

#endif // NUMAWS_SUPPORT_LATENCY_HIST_H
