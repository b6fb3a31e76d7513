/**
 * @file
 * Shared harness logic for the paper-table benches.
 *
 * Methodology mirrors Section V:
 *  - "Cilk Plus" rows run the classic scheduler (uniform steals, no
 *    mailboxes) and, like the paper, take the best of the first-touch and
 *    interleave placements per benchmark;
 *  - "NUMA-WS" rows run the full Figure 5 scheduler with partitioned data
 *    and locality hints;
 *  - TS is the serial elision (zero parallel overhead) on one core.
 * Simulated cores pack onto the fewest sockets (Figure 9's methodology).
 */
#ifndef NUMAWS_BENCH_BENCH_COMMON_H
#define NUMAWS_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "topology/affinity.h"

#include "numaws.h"
#include "sim/scheduler.h"
#include "support/cli.h"
#include "support/panic.h"
#include "support/table.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace numaws::bench {

using workloads::Placement;
using workloads::SimWorkload;

/** Sockets in use when @p cores pack tightly (8 cores per socket). */
inline int
socketsFor(int cores)
{
    return (cores + 7) / 8;
}

/** Serial elision time TS (seconds) on one core. */
inline double
runSerial(const SimWorkload &wl)
{
    const auto dag = wl.build(1, Placement::FirstTouch, false);
    return sim::simulatePacked(dag, 1, sim::SimConfig::serial())
        .elapsedSeconds;
}

/** Classic work stealing ("Cilk Plus"): best of first-touch/interleave. */
inline sim::SimResult
runClassic(const SimWorkload &wl, int cores, uint64_t seed = 0x5eed)
{
    sim::SimConfig cfg = sim::SimConfig::classicWs();
    cfg.seed = seed;
    const int sockets = socketsFor(cores);
    sim::SimResult best{};
    bool first = true;
    for (const Placement pl :
         {Placement::FirstTouch, Placement::Interleaved}) {
        const auto dag = wl.build(sockets, pl, false);
        const sim::SimResult r = sim::simulatePacked(dag, cores, cfg);
        if (first || r.elapsedSeconds < best.elapsedSeconds) {
            best = r;
            first = false;
        }
    }
    return best;
}

/** Full NUMA-WS: partitioned data + locality hints. A benchmark whose
 * dag carries no hints (matmul row-major, strassen) did not partition
 * its data either — its user runs the same placement the classic rows
 * use (the paper links the *same application* against both runtimes). */
inline sim::SimResult
runNumaWs(const SimWorkload &wl, int cores, uint64_t seed = 0x5eed)
{
    sim::SimConfig cfg = sim::SimConfig::numaWs();
    cfg.seed = seed;
    const int sockets = socketsFor(cores);
    const auto dag = wl.build(sockets, Placement::Partitioned, true);
    if (dag.hasPlaceHints())
        return sim::simulatePacked(dag, cores, cfg);
    sim::SimResult best{};
    bool first = true;
    for (const Placement pl :
         {Placement::FirstTouch, Placement::Interleaved}) {
        const auto unhinted = wl.build(sockets, pl, false);
        const sim::SimResult r =
            sim::simulatePacked(unhinted, cores, cfg);
        if (first || r.elapsedSeconds < best.elapsedSeconds) {
            best = r;
            first = false;
        }
    }
    return best;
}

/**
 * The shared threaded-engine row workload: fib (spawn-bound) plus
 * hinted heat (mailbox-bound) at bench scale, timed together. Every
 * ablation bench that emits "fib+heat" threaded rows runs this one
 * shape, so bench_trajectory.py compares like with like across
 * reports and the shape cannot silently diverge between benches.
 * Wall time is meaningless on 1-core CI containers; the counters in
 * Runtime::stats() are what the rows are for.
 */
inline double
runThreadedFibHeat(Runtime &rt, double scale)
{
    const int fib_n = scale >= 1.0 ? 28 : 20;
    workloads::HeatParams heat;
    heat.nx = scale >= 1.0 ? 512 : 128;
    heat.ny = heat.nx;
    heat.steps = 4;
    std::vector<double> a(
        static_cast<std::size_t>(heat.nx) * heat.ny, 0.0);
    std::vector<double> b(a.size(), 0.0);
    WallTimer t;
    workloads::fibParallel(rt, fib_n);
    workloads::heatParallel(rt, a.data(), b.data(), heat, true);
    return t.seconds();
}

/**
 * One JSON object, insertion-ordered, for machine-readable bench output.
 * Values are rendered on insertion; strings are escaped minimally
 * (backslash, quote, control characters), numbers via %.17g so a row
 * round-trips exactly.
 */
class JsonRow
{
  public:
    JsonRow &
    set(const std::string &key, const std::string &value)
    {
        _fields.emplace_back(key, quote(value));
        return *this;
    }

    JsonRow &
    set(const std::string &key, const char *value)
    {
        return set(key, std::string(value));
    }

    JsonRow &
    set(const std::string &key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        _fields.emplace_back(key, buf);
        return *this;
    }

    JsonRow &
    set(const std::string &key, int64_t value)
    {
        _fields.emplace_back(key, std::to_string(value));
        return *this;
    }

    JsonRow &
    set(const std::string &key, uint64_t value)
    {
        _fields.emplace_back(key, std::to_string(value));
        return *this;
    }

    JsonRow &
    set(const std::string &key, int value)
    {
        return set(key, static_cast<int64_t>(value));
    }

    JsonRow &
    set(const std::string &key, bool value)
    {
        _fields.emplace_back(key, value ? "true" : "false");
        return *this;
    }

    std::string
    str() const
    {
        std::ostringstream out;
        out << '{';
        for (std::size_t i = 0; i < _fields.size(); ++i) {
            if (i > 0)
                out << ',';
            out << quote(_fields[i].first) << ':' << _fields[i].second;
        }
        out << '}';
        return out.str();
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (const char ch : s) {
            if (ch == '"' || ch == '\\') {
                out += '\\';
                out += ch;
            } else if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
        out += '"';
        return out;
    }

    std::vector<std::pair<std::string, std::string>> _fields;
};

/** Git revision for provenance: $GITHUB_SHA (CI) or `git rev-parse`,
 * else "unknown". Resolved once per report. */
inline std::string
gitRevision()
{
    if (const char *sha = std::getenv("GITHUB_SHA"))
        return sha;
    std::string sha;
    if (std::FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (std::fgets(buf, sizeof(buf), p) != nullptr) {
            for (const char *c = buf; *c != '\0' && *c != '\n'; ++c)
                sha += *c;
        }
        ::pclose(p);
    }
    return sha.empty() ? "unknown" : sha;
}

/**
 * Collects JsonRow objects and writes them as one JSON array, the format
 * CI archives as a build artifact (e.g. BENCH_parking.json).
 *
 * Every row is stamped with provenance on insertion — host core count
 * and git sha — so a JSON file pulled from an artifact store months
 * later still says what machine shape and revision produced it (the
 * engine is a per-row field the benches set themselves).
 */
class JsonReport
{
  public:
    JsonReport() : _hostCores(hostCpuCount()), _gitSha(gitRevision()) {}

    void
    addRow(const JsonRow &row)
    {
        JsonRow stamped = row;
        stamped.set("host_cores", _hostCores).set("git_sha", _gitSha);
        _rows.push_back(stamped.str());
    }

    std::string
    str() const
    {
        std::ostringstream out;
        out << "[\n";
        for (std::size_t i = 0; i < _rows.size(); ++i)
            out << "  " << _rows[i] << (i + 1 < _rows.size() ? ",\n" : "\n");
        out << "]\n";
        return out.str();
    }

    void
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            NUMAWS_FATAL("cannot open %s for writing", path.c_str());
        const std::string body = str();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
    }

    std::size_t numRows() const { return _rows.size(); }

  private:
    int _hostCores;
    std::string _gitSha;
    std::vector<std::string> _rows;
};

/** @name Acceptance gates
 * One printed line per gate, e.g.
 * `  gate sim parted/global elapsed  0.9712 <= 1.0000  ok`;
 * each returns whether the gate held. */
/// @{
inline bool
gateMax(const char *what, double actual, double limit)
{
    const bool ok = actual <= limit;
    std::printf("  gate %-52s %.4f <= %.4f  %s\n", what, actual, limit,
                ok ? "ok" : "FAIL");
    return ok;
}

inline bool
gateMin(const char *what, double actual, double limit)
{
    const bool ok = actual >= limit;
    std::printf("  gate %-52s %.4f >= %.4f  %s\n", what, actual, limit,
                ok ? "ok" : "FAIL");
    return ok;
}
/// @}

/** Nearest-rank q-quantile of @p sample (0 for an empty sample). */
inline double
exactQuantile(std::vector<double> sample, double q)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    const double n = static_cast<double>(sample.size());
    std::size_t idx = static_cast<std::size_t>(q * n + 0.999999);
    idx = idx > 0 ? idx - 1 : 0;
    if (idx >= sample.size())
        idx = sample.size() - 1;
    return sample[idx];
}

/** @name Threaded serving-bench job bodies
 * The job shapes the open-loop serving benches mix; each returns a
 * value the caller stores into g_sink so the work stays observable. */
/// @{
inline std::atomic<double> g_sink{0.0};

/** Jacobi heat sweeps on an @p nx x @p ny grid, rows split by
 * parallelForRange (spawn-dense). */
inline double
heatJob(int64_t nx, int64_t ny, int64_t steps)
{
    std::vector<double> a(static_cast<std::size_t>(nx) * ny, 1.0);
    std::vector<double> b(a.size(), 0.0);
    double *src = a.data();
    double *dst = b.data();
    for (int64_t t = 0; t < steps; ++t) {
        parallelForRange(1, nx - 1, /*grain=*/nx / 4 + 1,
                         [&](int64_t lo, int64_t hi) {
                             for (int64_t i = lo; i < hi; ++i)
                                 for (int64_t j = 1; j < ny - 1; ++j)
                                     dst[i * ny + j] =
                                         0.25
                                         * (src[(i - 1) * ny + j]
                                            + src[(i + 1) * ny + j]
                                            + src[i * ny + j - 1]
                                            + src[i * ny + j + 1]);
                         });
        std::swap(src, dst);
    }
    return src[ny + 1];
}

/** @p n x @p n matrix multiply, rows split by parallelForRange. */
inline double
matmulJob(uint32_t n)
{
    std::vector<double> a(static_cast<std::size_t>(n) * n, 1.0);
    std::vector<double> b(a.size(), 2.0);
    std::vector<double> c(a.size(), 0.0);
    parallelForRange(0, n, /*grain=*/static_cast<int64_t>(n) / 4 + 1,
                     [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i)
                             for (uint32_t k = 0; k < n; ++k) {
                                 const double aik =
                                     a[static_cast<std::size_t>(i) * n
                                       + k];
                                 for (uint32_t j = 0; j < n; ++j)
                                     c[static_cast<std::size_t>(i) * n
                                       + j] +=
                                         aik
                                         * b[static_cast<std::size_t>(k)
                                                 * n
                                             + j];
                             }
                     });
    return c[0];
}

/** The same multiply with no scheduling points: one serial block, so
 * its execution time is load-independent (a saturated host can stretch
 * a fork-join tree arbitrarily, which would charge intra-job
 * starvation to a latency gate). */
inline double
matmulSerialJob(uint32_t n)
{
    std::vector<double> a(static_cast<std::size_t>(n) * n, 1.0);
    std::vector<double> b(a.size(), 2.0);
    std::vector<double> c(a.size(), 0.0);
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t k = 0; k < n; ++k) {
            const double aik = a[static_cast<std::size_t>(i) * n + k];
            for (uint32_t j = 0; j < n; ++j)
                c[static_cast<std::size_t>(i) * n + j] +=
                    aik * b[static_cast<std::size_t>(k) * n + j];
        }
    return c[0];
}
/// @}

/** One paced open-loop stream: every handle, joined, and the wall time
 * from the first arrival slot to the last join. */
struct PacedRun
{
    std::vector<JobHandle> handles;
    double elapsed_s = 0.0;
};

/**
 * Drive an open-loop stream: call @p submit(i) at t0 + @p arrival_ns[i]
 * for each arrival, then join every handle. The driver sleeps toward
 * each arrival and spin-finishes the last ~200us so submission timing
 * is not at the mercy of timer slack.
 */
template <typename Submit>
PacedRun
runPaced(const std::vector<double> &arrival_ns, Submit submit)
{
    PacedRun r;
    r.handles.reserve(arrival_ns.size());
    const int64_t t0 = nowNs();
    for (std::size_t i = 0; i < arrival_ns.size(); ++i) {
        const int64_t target = t0 + static_cast<int64_t>(arrival_ns[i]);
        while (nowNs() < target) {
            if (target - nowNs() > 200000)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
        }
        r.handles.push_back(submit(i));
    }
    for (JobHandle &h : r.handles)
        h.wait();
    r.elapsed_s = static_cast<double>(nowNs() - t0) * 1e-9;
    return r;
}

/** Standard bench CLI: --scale=, --cores=, --workload= filter. */
struct BenchArgs
{
    double scale;
    int cores;
    std::string only;

    explicit BenchArgs(const Cli &cli)
        : scale(cli.getDouble("scale", 0.25)),
          cores(static_cast<int>(cli.getInt("cores", 32))),
          only(cli.getString("workload", ""))
    {}

    bool
    selected(const SimWorkload &wl) const
    {
        return only.empty() || only == wl.name;
    }
};

} // namespace numaws::bench

#endif // NUMAWS_BENCH_BENCH_COMMON_H
