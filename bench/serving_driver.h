/**
 * @file
 * The open-loop serving driver shared by ablation_serving,
 * ablation_overload, ablation_preempt and ablation_interference.
 *
 * Every serving bench drives both engines through one shape: a job mix
 * arrives open-loop at seeded instants, every job resolves to one
 * outcome, and the rows report outcome counts, latency and queue
 * percentiles and goodput. This header holds that shape once:
 *  - ServingArgs: the shared CLI block and the only copy of the
 *    per-seed and per-rep seed formulas;
 *  - SimJobMix: the merged multi-root dag with each job's class and
 *    deadline mark, and the one arrival -> SimJob builder;
 *  - ServingTally: the run summary, built from a sim::ServingResult or
 *    from the joined JobHandles, which writes named row fields;
 *  - runOpenLoop, calibrateHost and CoRunners: the threaded side, plus
 *    the job bodies the threaded mixes are made of.
 * Each bench keeps its own job mix, scenario table and gate block.
 */
#ifndef NUMAWS_BENCH_SERVING_DRIVER_H
#define NUMAWS_BENCH_SERVING_DRIVER_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "sim/serving.h"

namespace numaws::bench {

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

/** Two workers, or fewer on a smaller host: a serving bench must not
 * oversubscribe, since a descheduled worker stalls Latency-class claims
 * mid-frame, which a latency gate would misread as an admission
 * failure. */
inline int
hostWorkers()
{
    return static_cast<int>(
        std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
}

/**
 * Serving-bench CLI on top of BenchArgs: --json, --seed, --seeds,
 * --threads, --reps and --skip-threaded. Sim rows run seeds
 * seed(0..num_seeds-1); threaded repetition `rep` draws its arrivals
 * from repSeed(rep).
 */
struct ServingArgs : BenchArgs
{
    std::string json_path;
    uint64_t first_seed;
    int num_seeds;
    int threads; ///< 0 for a bench with a fixed pool (no --threads)
    int reps;
    bool skip_threaded;

    ServingArgs(const Cli &cli, const char *json, int default_reps,
                int default_threads)
        : BenchArgs(cli), json_path(cli.getString("json", json)),
          first_seed(static_cast<uint64_t>(cli.getInt("seed", 0x5eed))),
          num_seeds(atLeastOne(cli.getInt("seeds", 3))),
          threads(default_threads > 0
                      ? static_cast<int>(
                            cli.getInt("threads", default_threads))
                      : 0),
          reps(atLeastOne(cli.getInt("reps", default_reps))),
          skip_threaded(cli.getBool("skip-threaded", false))
    {}

    uint64_t seed(int s) const { return first_seed + 7919ULL * s; }
    uint64_t repSeed(int rep) const { return first_seed + 104729ULL * rep; }

  private:
    static int
    atLeastOne(int64_t v)
    {
        return std::max(1, static_cast<int>(v));
    }
};

/**
 * A sim job mix: every job's tree merged into one dag, each job's class
 * and deadline mark, and the mean nominal work per job (the unit the
 * offered rate and the deadlines are sized in).
 */
struct SimJobMix
{
    sim::ComputationDag dag;
    std::vector<sim::FrameId> roots;
    std::vector<int> classes;
    std::vector<uint8_t> deadlined;
    double meanJobCycles = 0.0;

    /** Append one job running @p kind as class @p cls. */
    void
    add(const sim::ComputationDag &kind, int cls, bool ddl = false)
    {
        roots.push_back(dag.append(kind));
        classes.push_back(cls);
        deadlined.push_back(ddl ? 1 : 0);
        _work += kind.workSpan().work;
        meanJobCycles = _work / static_cast<double>(roots.size());
    }

    /** Job i arrives at @p at[i]; a marked job also gets the deadline
     * at[i] + @p deadline_cycles when that is positive. */
    std::vector<sim::SimJob>
    jobsAt(const std::vector<double> &at,
           double deadline_cycles = 0.0) const
    {
        std::vector<sim::SimJob> jobs(roots.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].root = roots[i];
            jobs[i].arrivalCycles = at[i];
            jobs[i].cls = classes[i];
            if (deadline_cycles > 0.0 && deadlined[i])
                jobs[i].deadlineCycles = at[i] + deadline_cycles;
        }
        return jobs;
    }

    /** The seeded arrival process offering @p util of @p cores at
     * @p ghz to this mix. */
    sim::ArrivalProcess
    arrivals(double util, int cores, double ghz, uint64_t seed) const
    {
        sim::ArrivalProcess p;
        p.ratePerSec = util * cores * ghz * 1e9 / meanJobCycles;
        p.seed = seed;
        return p;
    }

    /** Every job at the instants @p p draws (see jobsAt). */
    std::vector<sim::SimJob>
    arrive(const sim::ArrivalProcess &p, double ghz,
           double deadline_cycles = 0.0) const
    {
        return jobsAt(
            sim::arrivalCycles(p, static_cast<int>(roots.size()), ghz),
            deadline_cycles);
    }

  private:
    double _work = 0.0;
};

/**
 * One serving run summarized the same way in both engines: outcome
 * counts (in total and per class), Done-job latency and queue-delay
 * percentiles, the Latency-class p99 and goodput. The percentiles skip
 * unrun jobs: a shed job resolves at once, and counting its ~0 latency
 * would flatter any run with a shed policy.
 */
struct ServingTally
{
    static constexpr int kOutcomes =
        static_cast<int>(JobOutcome::Rejected) + 1;

    uint64_t jobs = 0;
    uint64_t done = 0, expired = 0, cancelled = 0, rejected = 0;
    uint64_t shed = 0; ///< the rejections the QueueDelay shedder made
    uint64_t byClass[kNumServingClasses][kOutcomes] = {};
    double elapsed_s = 0.0;
    double arrival_per_s = 0.0; ///< sim: offered; threaded: measured
    double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
    double queue_p50_us = 0.0, queue_p99_us = 0.0;
    double lat_p99_us = 0.0; ///< Latency-class Done-job p99
    double goodput = 0.0;    ///< Done jobs per elapsed second
    double shed_frac = 0.0;

    ServingTally() = default;

    uint64_t
    classCount(int cls, JobOutcome o) const
    {
        return byClass[cls][static_cast<int>(o)];
    }

    /** Sim run @p r of a mix with per-job @p classes, offered at
     * @p rate; the percentiles are the simulator's own. */
    ServingTally(const sim::ServingResult &r,
                 const std::vector<int> &classes, double ghz, double rate)
        : jobs(r.jobs.size()), shed(r.shed),
          elapsed_s(r.sim.elapsedSeconds), arrival_per_s(rate),
          p50_us(r.p50Us), p99_us(r.p99Us), p999_us(r.p999Us),
          queue_p50_us(r.queueP50Us), queue_p99_us(r.queueP99Us),
          goodput(r.goodputPerSec)
    {
        std::vector<double> lat_cls;
        for (std::size_t i = 0; i < r.jobs.size(); ++i) {
            count(classes[i], r.jobs[i].outcome);
            if (classes[i] == 0 && r.jobs[i].outcome == JobOutcome::Done)
                lat_cls.push_back(r.jobs[i].latencyCycles() / ghz / 1000.0);
        }
        finish(std::move(lat_cls));
    }

    /** Threaded run: @p handles joined @p elapsed_s after the first
     * arrival slot; the shed count comes from @p stats. */
    ServingTally(const std::vector<JobHandle> &handles, double elapsed,
                 const RuntimeStats &stats)
        : jobs(handles.size()), elapsed_s(elapsed),
          arrival_per_s(static_cast<double>(handles.size()) / elapsed)
    {
        std::vector<double> lat, queue, lat_cls;
        for (const JobHandle &h : handles) {
            const int cls = static_cast<int>(h.cls());
            count(cls, h.outcome());
            if (h.outcome() != JobOutcome::Done)
                continue;
            lat.push_back(static_cast<double>(h.latencyNs()) / 1000.0);
            queue.push_back(static_cast<double>(h.queueNs()) / 1000.0);
            if (cls == 0)
                lat_cls.push_back(lat.back());
        }
        for (const JobOutcomeCounts &c : stats.jobOutcomes)
            shed += c.shed;
        p50_us = exactQuantile(lat, 0.50);
        p99_us = exactQuantile(lat, 0.99);
        p999_us = exactQuantile(lat, 0.999);
        queue_p50_us = exactQuantile(queue, 0.50);
        queue_p99_us = exactQuantile(queue, 0.99);
        goodput = static_cast<double>(done) / elapsed_s;
        finish(std::move(lat_cls));
    }

    /** Append @p keys to @p row, in order: "jobs", the outcome counts
     * ("done", "expired", "cancelled", "rejected", "shed_jobs"),
     * "shed_frac", or any other double member by its own name. */
    JsonRow &
    put(JsonRow &row, std::initializer_list<const char *> keys) const
    {
        const std::pair<const char *, uint64_t> counts[] = {
            {"jobs", jobs},         {"done", done},
            {"expired", expired},   {"cancelled", cancelled},
            {"rejected", rejected}, {"shed_jobs", shed}};
        const std::pair<const char *, double> values[] = {
            {"elapsed_s", elapsed_s},       {"arrival_per_s", arrival_per_s},
            {"p50_us", p50_us},             {"p99_us", p99_us},
            {"p999_us", p999_us},           {"queue_p50_us", queue_p50_us},
            {"queue_p99_us", queue_p99_us}, {"lat_p99_us", lat_p99_us},
            {"goodput", goodput},           {"shed_frac", shed_frac}};
        for (const std::string key : keys) {
            bool found = false;
            for (const auto &[name, v] : counts)
                if (key == name) {
                    row.set(key, v);
                    found = true;
                }
            for (const auto &[name, v] : values)
                if (key == name) {
                    row.set(key, v);
                    found = true;
                }
            if (!found)
                NUMAWS_PANIC("no tally field %s", key.c_str());
        }
        return row;
    }

  private:
    void
    count(int cls, JobOutcome o)
    {
        if (o == JobOutcome::Pending || o == JobOutcome::Failed)
            NUMAWS_PANIC("job resolved with unexpected outcome %s",
                         jobOutcomeName(o));
        ++byClass[cls][static_cast<int>(o)];
        done += o == JobOutcome::Done;
        expired += o == JobOutcome::Expired;
        cancelled += o == JobOutcome::Cancelled;
        rejected += o == JobOutcome::Rejected;
    }

    void
    finish(std::vector<double> lat_cls)
    {
        lat_p99_us = exactQuantile(std::move(lat_cls), 0.99);
        shed_frac = static_cast<double>(shed) / static_cast<double>(jobs);
    }
};

/** Write @p report to @p path; the exit code is 1, after a FAIL line
 * naming the @p bench, unless every gate held (@p ok). */
inline int
finishReport(const JsonReport &report, const std::string &path, bool ok,
             const char *bench)
{
    report.writeFile(path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(), path.c_str());
    if (ok)
        return 0;
    std::printf("FAIL: %s acceptance gate violated\n", bench);
    return 1;
}

/** A serving pool of @p workers on two places (one for a single
 * worker); @p spin turns idle parking off. */
inline RuntimeOptions
servingOptions(int workers, bool spin)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = workers >= 2 ? 2 : 1;
    if (spin)
        o.sched.parkSpinFailures = 1 << 30;
    return o;
}

/** This host's service rate, measured with the real runtime. */
struct HostCalibration
{
    double mean_job_s = 0.0;     ///< one job at a time
    double capacity_per_s = 0.0; ///< a closed burst, all at once
};

/**
 * Calibrate on a fresh runtime built from @p o: @p probe jobs
 * submit(rt, first..) run one at a time for the mean job time, then
 * @p burst jobs submit(rt, 0..) go in at once for the sustainable
 * jobs/s (skipped when @p burst is 0). Deriving capacity as
 * workers/mean_job would overstate it on hosts with fewer cores than
 * workers, turning a nominal overload into a much deeper one.
 */
template <typename Submit>
HostCalibration
calibrateHost(const RuntimeOptions &o, int first, int probe, int burst,
              Submit submit)
{
    Runtime rt(o);
    HostCalibration c;
    const int64_t t0 = nowNs();
    for (int i = first; i < first + probe; ++i)
        submit(rt, i).wait();
    c.mean_job_s = static_cast<double>(nowNs() - t0) * 1e-9 / probe;
    if (burst > 0) {
        std::vector<JobHandle> hs;
        hs.reserve(burst);
        const int64_t b0 = nowNs();
        for (int i = 0; i < burst; ++i)
            hs.push_back(submit(rt, i));
        for (JobHandle &h : hs)
            h.wait();
        c.capacity_per_s =
            burst / (static_cast<double>(nowNs() - b0) * 1e-9);
    }
    return c;
}

/** One threaded open-loop run: the tally and rt.stats() taken right
 * after the last join. */
struct OpenLoopRun
{
    ServingTally tally;
    RuntimeStats stats;
};

/**
 * Drive @p rt open-loop: @p warm() brings the pool to steady state,
 * resetStats() starts the measurement, then submit(i) is called at
 * each of @p jobs seeded Poisson arrivals at @p rate (seed @p seed) and
 * every handle is joined. The driver sleeps toward each arrival and
 * spin-finishes the last ~200us so submission timing is not at the
 * mercy of timer slack.
 */
template <typename Warm, typename Submit>
OpenLoopRun
runOpenLoop(Runtime &rt, double rate, int jobs, uint64_t seed, Warm warm,
            Submit submit)
{
    sim::ArrivalProcess p;
    p.ratePerSec = rate;
    p.seed = seed;
    // ghz=1.0 makes arrivalCycles return nanoseconds.
    const std::vector<double> arrival_ns = sim::arrivalCycles(p, jobs, 1.0);
    warm();
    rt.resetStats();

    std::vector<JobHandle> handles;
    handles.reserve(arrival_ns.size());
    const int64_t t0 = nowNs();
    for (std::size_t i = 0; i < arrival_ns.size(); ++i) {
        const int64_t target = t0 + static_cast<int64_t>(arrival_ns[i]);
        while (nowNs() < target) {
            if (target - nowNs() > 200000)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        handles.push_back(submit(static_cast<int>(i)));
    }
    for (JobHandle &h : handles)
        h.wait();
    const double elapsed_s = static_cast<double>(nowNs() - t0) * 1e-9;

    OpenLoopRun r;
    r.stats = rt.stats();
    r.tally = ServingTally(handles, elapsed_s, r.stats);
    return r;
}

/** Busy-loop co-runner threads that steal host CPU until stop() (or
 * destruction); each is pinned to @p cpu when it is >= 0. Plain
 * spinning at default priority: the squeeze is the kernel's fair time
 * slicing, exactly what the pressure sensor is built to notice. */
class CoRunners
{
  public:
    explicit CoRunners(int n, int cpu = -1)
    {
        for (int i = 0; i < n; ++i)
            _threads.emplace_back([this, cpu] {
                if (cpu >= 0)
                    pinCurrentThread(cpu);
                volatile uint64_t x = 0;
                while (!_stop.load(std::memory_order_relaxed))
                    x = x + 1;
            });
    }

    ~CoRunners() { stop(); }

    void
    stop()
    {
        _stop.store(true, std::memory_order_relaxed);
        for (std::thread &t : _threads)
            if (t.joinable())
                t.join();
    }

  private:
    std::atomic<bool> _stop{false};
    std::vector<std::thread> _threads;
};

/** @name Threaded job bodies
 * The job shapes the open-loop serving benches mix; each returns a
 * value the caller stores into g_sink so the work stays observable.
 * The library helpers (fibParallel etc.) wrap rt.run() and so cannot
 * be called from inside a job. */
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

} // namespace numaws::bench

#endif // NUMAWS_BENCH_SERVING_DRIVER_H
