/**
 * @file
 * Shared pieces of the repo benchmark: run configuration, the metric
 * report, sample statistics, host facts, and the in-memory span trace.
 *
 * The benchmark drives the threaded runtime only through its public
 * API (Runtime, TaskGroup, the workloads, and the layer classes); every
 * span is recorded here, around those calls, never inside the library.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

namespace perfbench {

/** One invocation: `perfbench --workload W --seed N --seconds S
 * --trace 0|1 [--scale X] [--out DIR] [--git-sha SHA]`. */
struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Input-size multiplier: 1 is the benchmark; the smoke test runs
     * tiny sizes (heat's LLC floor is then not enforced). */
    double scale = 1.0;
    std::string outDir = ".bench_out";
    std::string gitSha = "unknown";
};

/** Metrics printed on the result line, plus run details that go only
 * to the results file (sample counts, percentiles, quartiles, sizes). */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> details;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** @p json is a ready-formatted JSON value. */
    void
    detail(const std::string &key, const std::string &json)
    {
        details.emplace_back(key, json);
    }
    /** Count one checked operation. */
    void
    count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

/** Linearly interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The tail value used by every tail metric: the highest percentile,
 * capped at @p cap, that still has at least @p beyond samples above
 * it. With too few samples it reads as the median. */
struct Tail
{
    double value = 0;
    double pct = 0; ///< percentile of the reported sample, 0..100
};
Tail tailOf(std::vector<double> v, double cap = 0.99,
            std::size_t beyond = 10);

/** JSON object {n, median, q1, q3, min, max} for the results file. */
std::string summaryJson(const std::vector<double> &v);

/** Shortest round-trip decimal form of @p v. */
std::string num(double v);

// ---------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------

int hostCpus();
/** Size of the largest cache level sysfs reports for cpu0 (bytes). */
uint64_t llcBytes();
/** Peak resident set so far (VmHWM), MiB. */
double peakRssMiB();

/** splitmix64: the benchmark's seeded input generator. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Delta of two Runtime::stats() readings (after - before). */
numaws::RuntimeStats statsDelta(const numaws::RuntimeStats &after,
                                const numaws::RuntimeStats &before);

/** @p num_v / @p den_v, or 0 when the denominator is 0. */
double ratio(double num_v, double den_v);

/** Stats deltas of the traced reps (or serve windows): summed for the
 * ratio rows, and one sample per rep for the count rows. */
struct CounterLog
{
    numaws::RuntimeStats sum;
    std::vector<double> spawns, stealAttempts, steals, mailboxTakes, parks,
        pooledBytes, remoteFrees;

    /** Add one delta; @p per divides its count samples (jobs per
     * serve window; 1 for a fork-join rep). */
    void add(const numaws::RuntimeStats &d, double per = 1.0);
};

/** The stats-derived per-layer rows every workload reports. */
void addCounterRows(Report &report, const CounterLog &log);

/** Fraction of runtimes whose median sample is at least twice the
 * median over all samples of the run. */
double stuckFraction(const std::vector<double> &runtime_medians,
                     double run_median);

// ---------------------------------------------------------------------
// Span trace
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. Spans carry a name, the layer they enter, a
 * start and end (ns), their own id, their parent's id and a group id
 * shared by all spans of one rep or job. Each thread appends to its own
 * buffer; write() emits Chrome trace-event JSON at exit. Off, a span
 * costs one branch.
 */
class Trace
{
  public:
    struct Record
    {
        const char *name;
        const char *layer;
        int64_t t0;
        int64_t t1;
        uint64_t id;
        uint64_t parent;
        uint64_t group;
        std::string args; ///< extra ,"k":v pairs (may be empty)
    };

    explicit Trace(bool on) : _on(on) {}

    bool on() const { return _on; }
    uint64_t newId();
    void record(Record &&r);

    /** Self time per layer, seconds: each span's duration minus the
     * union of its children's intervals, summed by layer. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Write {"traceEvents":[...],"otherData":@p other_json}. */
    bool write(const std::string &path, const std::string &other_json) const;

  private:
    struct Buffer
    {
        uint32_t tid;
        std::vector<Record> records;
    };
    Buffer &buffer();
    std::vector<const Record *> all() const;

    bool _on;
    std::atomic<uint64_t> _nextId{1};
    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Buffer>> _buffers;
};

/** RAII span. Ids are allocated only when the trace is on. */
class Span
{
  public:
    Span(Trace &trace, const char *name, const char *layer,
         uint64_t parent = 0, uint64_t group = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return _id; }
    /** Attach a numeric argument (shown on the span in the viewer). */
    void arg(const char *key, double value);
    /** Attach the per-rep counter deltas of @p d. */
    void stats(const numaws::RuntimeStats &d);

  private:
    Trace &_trace;
    const char *_name;
    const char *_layer;
    uint64_t _id = 0;
    uint64_t _parent;
    uint64_t _group;
    int64_t _t0 = 0;
    std::string _args;
};

// ---------------------------------------------------------------------
// Benchmark parts
// ---------------------------------------------------------------------

/** Process-wide facts measured once per run and stamped on the result. */
struct Host
{
    int cpus = 1;
    uint64_t llc = 0;
    double streamGBs = 0;
};

/** Multi-threaded copy bandwidth over two arrays that together span
 * @p total_bytes, median of several passes, GB/s (read + write bytes). */
double streamGBs(uint64_t total_bytes, int threads, Trace &trace,
                 uint64_t parent);

void runForkJoin(const Config &cfg, const Host &host, Trace &trace,
                 Report &report);
void runServe(const Config &cfg, const Host &host, Trace &trace,
              Report &report);
/** The layer probe suite (traced runs): adds every *_ns / *_us row and
 * the idle-pool job front-door rows when @p job_rows is set. */
void runProbes(const Config &cfg, const Host &host, Trace &trace,
               Report &report, bool job_rows);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
