/**
 * @file
 * The fork-join workloads (fib, cilksort, heat): TP on P = host-CPU
 * workers, T1 on one worker, TS as the serial elision, all through the
 * library's own workload functions.
 *
 * A run is a sequence of rounds until the time budget is spent. Each
 * round builds a fresh 1-worker runtime (one untimed warm rep, then T1
 * and TS reps on the same memory) and then a fresh P-worker runtime
 * (setup timed, one untimed warm rep, then TP reps). Reps are never
 * discarded or retried: a runtime stuck in a slow scheduling mode keeps
 * its reps in the sample and shows in sched.stuck_runtime_frac. Every
 * rep, warm reps included, has its output checked.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mem/parted_vec.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using numaws::nowNs;
using numaws::PartedVec;
using numaws::Runtime;
using numaws::RuntimeOptions;
using numaws::RuntimeStats;
using numaws::TimeSplit;
namespace wl = numaws::workloads;

/** One workload's data on one runtime. */
class Instance
{
  public:
    virtual ~Instance() = default;
    /** Restore the seeded input (untimed, before every rep). */
    virtual void restore() = 0;
    virtual void parallel(Runtime &rt) = 0;
    /** The serial elision, on the same memory as parallel(). */
    virtual void serial() = 0;
    /** Verify the output of the last rep. */
    virtual bool check() = 0;
};

using Factory = std::function<std::unique_ptr<Instance>(
    Runtime &, Trace &, uint64_t parent)>;

struct Plan
{
    int tpPerRuntime = 8; ///< timed TP reps per fresh P-worker runtime
    int t1PerRound = 2;
    int tsPerRound = 2;
    /** Serial-elision solves per TS sample. A TS sample must span about
     * as long as a T1 rep: on a shared VM single-thread speed can swing
     * by 2x over milliseconds (seen on a 4-vCPU guest), so a lone 3 ms
     * solve samples the swing instead of averaging it the way a 0.4 s
     * T1 rep does. */
    int tsBatch = 1;
    /** Bytes one rep moves by the workload's own count (0: no model). */
    double computedBytes = 0;
    Factory make;
};

// ------------------------------------------------------------------
// fib
// ------------------------------------------------------------------

class FibInstance final : public Instance
{
  public:
    FibInstance(int n, int cutoff) : _n(n), _cutoff(cutoff)
    {
        uint64_t a = 0, b = 1;
        for (int i = 0; i < n; ++i) {
            const uint64_t c = a + b;
            a = b;
            b = c;
        }
        _expect = a;
    }
    void restore() override { _result = 0; }
    void
    parallel(Runtime &rt) override
    {
        _result = wl::fibParallel(rt, _n, _cutoff);
    }
    void serial() override { _result = wl::fibSerial(_n); }
    bool check() override { return _result == _expect; }

  private:
    int _n;
    int _cutoff;
    uint64_t _expect = 0;
    uint64_t _result = 0;
};

// ------------------------------------------------------------------
// cilksort
// ------------------------------------------------------------------

/** Order-independent checksum of a multiset of keys. */
uint64_t
multisetSum(const int64_t *v, int64_t n)
{
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i)
        s += mix64(static_cast<uint64_t>(v[i]));
    return s;
}

class CilksortInstance final : public Instance
{
  public:
    CilksortInstance(Runtime &rt, int64_t n, uint64_t seed, Trace &trace,
                     uint64_t parent)
    {
        {
            Span s(trace, "generate", "bench", parent);
            _input.resize(static_cast<std::size_t>(n));
            const uint64_t base = mix64(seed ^ 0xc11c5047ull);
            for (int64_t i = 0; i < n; ++i)
                _input[static_cast<std::size_t>(i)] = static_cast<int64_t>(
                    mix64(base + static_cast<uint64_t>(i)) >> 1);
            _inputSum = multisetSum(_input.data(), n);
        }
        Span s(trace, "place", "mem", parent);
        _buf = std::make_unique<wl::CilksortBuffers>(rt, n);
        restore();
    }
    void
    restore() override
    {
        std::memcpy(_buf->data, _input.data(),
                    _input.size() * sizeof(int64_t));
    }
    void
    parallel(Runtime &rt) override
    {
        wl::cilksortParallel(rt, *_buf, _params, /*hints=*/true);
    }
    void
    serial() override
    {
        wl::cilksortSerial(_buf->data, _buf->n, _buf->tmp, _params);
    }
    bool
    check() override
    {
        return std::is_sorted(_buf->data, _buf->data + _buf->n)
               && multisetSum(_buf->data, _buf->n) == _inputSum;
    }

  private:
    wl::CilksortParams _params;
    std::vector<int64_t> _input;
    uint64_t _inputSum = 0;
    std::unique_ptr<wl::CilksortBuffers> _buf;
};

/** Bytes a cilksort of @p n moves by its own structure: every 4-way
 * level above the base case makes two merge passes (read + write n
 * keys each), and the base-case sorts touch the keys once. */
double
cilksortBytes(int64_t n, int64_t sort_base)
{
    int levels = 0;
    for (int64_t m = n; m > sort_base; m /= 4)
        ++levels;
    return (32.0 * levels + 16.0) * static_cast<double>(n);
}

// ------------------------------------------------------------------
// heat
// ------------------------------------------------------------------

/** The heat output every rep must reproduce bit for bit: the serial
 * elision's grid, held as two position-salted sums over its bit
 * pattern (storing a second copy of a multi-LLC grid would add half
 * again to the benchmark's footprint). */
struct HeatReference
{
    bool set = false;
    uint64_t h1 = 0;
    uint64_t h2 = 0;
};

class HeatInstance final : public Instance
{
  public:
    HeatInstance(Runtime &rt, const wl::HeatParams &p, uint64_t seed,
                 HeatReference &ref, Trace &trace, uint64_t parent)
        : _p(p), _seed(mix64(seed ^ 0x4ea7ull)), _ref(ref)
    {
        const auto cells = static_cast<std::size_t>(p.nx)
                           * static_cast<std::size_t>(p.ny);
        const auto granule = static_cast<std::size_t>(p.ny);
        {
            // PartedVec value-initializes its shards: allocation and
            // first touch happen here.
            Span s(trace, "place", "mem", parent);
            _a = std::make_unique<PartedVec<double>>(rt, cells, granule);
            _b = std::make_unique<PartedVec<double>>(rt, cells, granule);
        }
        Span s(trace, "generate", "bench", parent);
        _baseRow.resize(granule);
        for (std::size_t j = 0; j < granule; ++j)
            _baseRow[j] = static_cast<double>(mix64(_seed + ~j) >> 11)
                          * 0x1.0p-53;
        restore();
    }
    void
    restore() override
    {
        // Row r is the seeded base row rotated by a seeded offset: a
        // different value at every cell for memcpy cost.
        const auto ny = static_cast<std::size_t>(_p.ny);
        for (int s = 0; s < _a->numShards(); ++s) {
            double *d = _a->shardData(s);
            const std::size_t r0 = _a->shardBegin(s) / ny;
            for (std::size_t r = 0; r < _a->shardSize(s) / ny; ++r) {
                const std::size_t k = mix64(_seed + r0 + r) % ny;
                double *row = d + r * ny;
                std::memcpy(row, _baseRow.data() + k,
                            (ny - k) * sizeof(double));
                std::memcpy(row + (ny - k), _baseRow.data(),
                            k * sizeof(double));
            }
        }
    }
    void
    parallel(Runtime &rt) override
    {
        wl::heatParallel(rt, *_a, *_b, _p);
        _lastSerial = false;
    }
    void
    serial() override
    {
        // Only meaningful on a one-place runtime: a single contiguous
        // shard is exactly the flat grid heatSerial expects.
        NUMAWS_ASSERT(_a->numShards() == 1);
        wl::heatSerial(_a->shardData(0), _b->shardData(0), _p);
        _lastSerial = true;
    }
    bool
    check() override
    {
        const PartedVec<double> &out = _p.steps % 2 == 0 ? *_a : *_b;
        uint64_t h1 = 0, h2 = 0;
        for (int s = 0; s < out.numShards(); ++s) {
            const double *d = out.shardData(s);
            const uint64_t g0 = out.shardBegin(s);
            for (std::size_t i = 0; i < out.shardSize(s); ++i) {
                uint64_t bits;
                std::memcpy(&bits, &d[i], sizeof bits);
                // Odd multipliers keep every single-cell change visible
                // in both sums.
                h1 += (bits ^ (g0 + i)) * 0x9e3779b97f4a7c15ull;
                h2 += (bits + (g0 + i)) * 0xc2b2ae3d27d4eb4full;
            }
        }
        if (!_ref.set) {
            // The first serial-elision output defines the reference.
            if (!_lastSerial)
                return false;
            _ref = {true, h1, h2};
            return true;
        }
        return h1 == _ref.h1 && h2 == _ref.h2;
    }

  private:
    wl::HeatParams _p;
    uint64_t _seed;
    HeatReference &_ref;
    bool _lastSerial = false;
    std::vector<double> _baseRow;
    std::unique_ptr<PartedVec<double>> _a;
    std::unique_ptr<PartedVec<double>> _b;
};

// ------------------------------------------------------------------
// Sizing
// ------------------------------------------------------------------

int
fibN(double scale)
{
    // fib's work grows by the golden ratio per unit of n.
    const int n = 30 + static_cast<int>(std::lround(std::log(scale)
                                                    / std::log(1.618)));
    return std::max(12, n);
}

Plan
makePlan(const Config &cfg, const Host &host, Report &report,
         HeatReference &heat_ref)
{
    Plan plan;
    const uint64_t seed = cfg.seed;
    if (cfg.workload == "fib") {
        // Cutoff 2: nearly every node of the call tree spawns, so the
        // spawn/sync path is the whole cost of T1 over TS.
        const int n = fibN(cfg.scale);
        const int cutoff = 2;
        plan.tpPerRuntime = 8;
        plan.t1PerRound = 2;
        plan.tsPerRound = 2;
        plan.tsBatch = 64;
        plan.make = [n, cutoff](Runtime &, Trace &, uint64_t) {
            return std::make_unique<FibInstance>(n, cutoff);
        };
        report.detail("input", "{\"fib_n\":" + std::to_string(n)
                                   + ",\"cutoff\":"
                                   + std::to_string(cutoff) + "}");
    } else if (cfg.workload == "cilksort") {
        const auto n = std::max<int64_t>(
            1 << 12,
            static_cast<int64_t>(std::llround(4194304.0 * cfg.scale)));
        plan.tpPerRuntime = 6;
        plan.t1PerRound = 1;
        plan.tsPerRound = 1;
        plan.computedBytes = cilksortBytes(n, wl::CilksortParams{}.sortBase);
        plan.make = [n, seed](Runtime &rt, Trace &tr, uint64_t parent) {
            return std::make_unique<CilksortInstance>(rt, n, seed, tr,
                                                      parent);
        };
        report.detail("input", "{\"cilksort_n\":" + std::to_string(n)
                                   + ",\"hints\":true}");
    } else {
        // Two square grids that together span at least 4x the LLC the
        // host reports: the stencil streams from memory, not cache.
        const double floor_bytes = 4.0 * static_cast<double>(host.llc);
        auto side = static_cast<int64_t>(
            std::ceil(std::sqrt(floor_bytes / (2.0 * sizeof(double)))));
        side = std::max<int64_t>(
            64, static_cast<int64_t>(std::llround(
                    static_cast<double>(side) * std::sqrt(cfg.scale))));
        wl::HeatParams p;
        p.nx = side;
        p.ny = side;
        p.steps = 4;
        const double grid_bytes = 2.0 * static_cast<double>(side)
                                  * static_cast<double>(side)
                                  * sizeof(double);
        if (cfg.scale >= 1.0 && grid_bytes < floor_bytes)
            NUMAWS_PANIC("heat grids (%.0f B) below 4x LLC (%.0f B)",
                         grid_bytes, floor_bytes);
        plan.tpPerRuntime = 6;
        plan.t1PerRound = 2;
        plan.tsPerRound = 2;
        // Each step reads one grid and writes the other.
        plan.computedBytes = static_cast<double>(p.steps) * grid_bytes;
        plan.make = [p, seed, &heat_ref](Runtime &rt, Trace &tr,
                                         uint64_t parent) {
            return std::make_unique<HeatInstance>(rt, p, seed, heat_ref,
                                                  tr, parent);
        };
        report.detail("input",
                      "{\"heat_side\":" + std::to_string(side)
                          + ",\"steps\":" + std::to_string(p.steps)
                          + ",\"grid_bytes\":" + num(grid_bytes)
                          + ",\"llc_bytes\":" + std::to_string(host.llc)
                          + ",\"grid_over_llc\":"
                          + num(host.llc > 0
                                    ? grid_bytes
                                          / static_cast<double>(host.llc)
                                    : 0)
                          + "}");
    }
    return plan;
}

} // namespace

void
runForkJoin(const Config &cfg, const Host &host, Trace &trace,
            Report &report)
{
    HeatReference heat_ref;
    const Plan plan = makePlan(cfg, host, report, heat_ref);
    Trace off(false);

    RuntimeOptions opts_p;
    opts_p.numWorkers = host.cpus;
    opts_p.numPlaces = host.cpus >= 2 ? 2 : 1;
    opts_p.seed = cfg.seed;
    RuntimeOptions opts_1 = opts_p;
    opts_1.numWorkers = 1;
    opts_1.numPlaces = 1;

    std::vector<double> tp, tp_traced, tp_untraced, t1, ts, setup;
    std::vector<double> runtime_medians;
    CounterLog counters;

    // One timed sample: @p solves back-to-back executions (serial when
    // rt is null), each restored and checked. Returns seconds per solve.
    auto rep = [&](Trace &tr, const char *name, Runtime *rt,
                   Instance &inst, uint64_t parent, CounterLog *log,
                   int solves = 1) -> double {
        const uint64_t group = tr.on() ? tr.newId() : 0;
        Span span(tr, name, "bench", parent, group);
        double secs = 0;
        bool ok = true;
        for (int k = 0; k < solves; ++k) {
            {
                Span s(tr, "restore", "bench", span.id(), group);
                inst.restore();
            }
            RuntimeStats before;
            if (log != nullptr) {
                Span s(tr, "stats", "runtime", span.id(), group);
                before = rt->stats();
            }
            {
                Span s(tr, rt != nullptr ? "run" : "serial",
                       rt != nullptr ? "runtime" : "workloads", span.id(),
                       group);
                const int64_t t0 = nowNs();
                if (rt != nullptr)
                    inst.parallel(*rt);
                else
                    inst.serial();
                secs += static_cast<double>(nowNs() - t0) * 1e-9;
            }
            if (log != nullptr) {
                Span s(tr, "stats", "runtime", span.id(), group);
                const RuntimeStats d = statsDelta(rt->stats(), before);
                log->add(d);
                span.stats(d);
            }
            Span s(tr, "check", "bench", span.id(), group);
            const bool one = inst.check();
            ok = ok && one;
            report.count(one);
        }
        secs /= solves;
        span.arg("seconds", secs);
        span.arg("ok", ok ? 1 : 0);
        return secs;
    };

    const int64_t start = nowNs();
    const auto budget_ns = static_cast<int64_t>(cfg.seconds * 1e9);
    for (int round = 0;; ++round) {
        // In a traced run, even rounds carry spans and per-rep stats
        // and odd rounds run bare: the pair gives trace.overhead_frac.
        const bool traced = cfg.trace && round % 2 == 0;
        Trace &tr = traced ? trace : off;
        Span round_span(tr, "round", "bench");
        {
            Span s(tr, "serial_runtime", "bench", round_span.id());
            std::unique_ptr<Runtime> rt;
            {
                Span c(tr, "construct", "runtime", s.id());
                rt = std::make_unique<Runtime>(opts_1);
            }
            std::unique_ptr<Instance> inst = plan.make(*rt, tr, s.id());
            if (round == 0)
                rep(tr, "warm_ts", nullptr, *inst, s.id(), nullptr);
            rep(tr, "warm_t1", rt.get(), *inst, s.id(), nullptr);
            // T1 and TS samples alternate so host drift lands on both.
            for (int k = 0; k < std::max(plan.t1PerRound, plan.tsPerRound);
                 ++k) {
                if (k < plan.t1PerRound)
                    t1.push_back(
                        rep(tr, "t1", rt.get(), *inst, s.id(), nullptr));
                if (k < plan.tsPerRound)
                    ts.push_back(rep(tr, "ts", nullptr, *inst, s.id(),
                                     nullptr, plan.tsBatch));
            }
            inst.reset();
            Span d(tr, "destroy", "runtime", s.id());
            rt.reset();
        }
        {
            Span s(tr, "parallel_runtime", "bench", round_span.id());
            const int64_t t0 = nowNs();
            std::unique_ptr<Runtime> rt;
            {
                Span c(tr, "construct", "runtime", s.id());
                rt = std::make_unique<Runtime>(opts_p);
            }
            std::unique_ptr<Instance> inst = plan.make(*rt, tr, s.id());
            setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
            rep(tr, "warm_tp", rt.get(), *inst, s.id(), nullptr);
            std::vector<double> mine;
            for (int k = 0; k < plan.tpPerRuntime; ++k) {
                const double v = rep(tr, "tp", rt.get(), *inst, s.id(),
                                     traced ? &counters : nullptr);
                mine.push_back(v);
                tp.push_back(v);
                (traced ? tp_traced : tp_untraced).push_back(v);
            }
            runtime_medians.push_back(median(mine));
            inst.reset();
            Span d(tr, "destroy", "runtime", s.id());
            rt.reset();
        }
        // Stop before a round that would overrun the budget.
        const int64_t elapsed = nowNs() - start;
        const int64_t per_round = elapsed / (round + 1);
        if (round >= 1 && elapsed + per_round > budget_ns)
            break;
    }

    const double tp_med = median(tp);
    const Tail tp_tail = tailOf(tp, 0.99);
    report.detail("tp_s", summaryJson(tp));
    report.detail("t1_s", summaryJson(t1));
    report.detail("ts_s", summaryJson(ts));
    report.detail("setup_s", summaryJson(setup));
    report.detail("tail_pct", num(tp_tail.pct));
    report.detail("runtimes", std::to_string(runtime_medians.size()));
    report.detail("workers",
                  "{\"tp\":" + std::to_string(opts_p.numWorkers)
                      + ",\"places\":" + std::to_string(opts_p.numPlaces)
                      + "}");

    if (!cfg.trace) {
        double total = 0;
        for (double v : tp)
            total += v;
        report.add("tp_s", tp_med, "s");
        report.add("tp_tail_s", tp_tail.value, "s");
        report.add("work_eff", ratio(median(t1), median(ts)), "x");
        report.add("speedup", ratio(median(ts), tp_med), "x");
        report.add("jobs_s", ratio(static_cast<double>(tp.size()), total),
                   "jobs/s");
        // One rep is one job: its latency is the rep time.
        report.add("lat_p50_ms", tp_med * 1e3, "ms");
        report.add("lat_p99_ms", tp_tail.value * 1e3, "ms");
        report.add("setup_s", median(setup), "s");
        return;
    }
    addCounterRows(report, counters);
    report.add("sched.stuck_runtime_frac",
               stuckFraction(runtime_medians, tp_med), "ratio");
    report.add("workloads.computed_gb_s",
               plan.computedBytes / tp_med * 1e-9, "GB/s");
    report.add("trace.overhead_frac",
               ratio(median(tp_traced), median(tp_untraced)) - 1.0,
               "ratio");
}

} // namespace perfbench
