/**
 * @file
 * The serve workload: a closed loop on the job front door. C = 2
 * client threads each submit a small spawn-dense job (fib with the
 * default cutoff, ~0.1-0.2 ms of serial work), wait for it, check it,
 * and only then submit the next. The pool has P = host CPUs - C
 * workers, so clients and workers never share a CPU.
 *
 * The loop runs in windows, each on a freshly constructed runtime
 * (construction is the setup sample). Each window also times the job
 * body on a fresh 1-worker runtime (T1) and as its serial elision (TS).
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using numaws::JobHandle;
using numaws::JobOutcome;
using numaws::nowNs;
using numaws::Runtime;
using numaws::RuntimeOptions;
using numaws::RuntimeStats;
using numaws::TaskGroup;

constexpr int kClients = 2;
constexpr int kWindows = 20;
constexpr int kWarmJobs = 50;
constexpr int kSizes = 3;
constexpr int kSerialReps = 10;

/** The job body: spawn-dense fib through the public TaskGroup API. */
uint64_t
jobFib(int n, int cutoff)
{
    if (n < cutoff)
        return numaws::workloads::fibSerial(n);
    uint64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n, cutoff] { a = jobFib(n - 1, cutoff); });
    const uint64_t b = jobFib(n - 2, cutoff);
    tg.sync();
    return a + b;
}

uint64_t
fibExact(int n)
{
    uint64_t a = 0, b = 1;
    for (int i = 0; i < n; ++i) {
        const uint64_t c = a + b;
        a = b;
        b = c;
    }
    return a;
}

/** One timed job as its client saw it (seconds). */
struct JobSample
{
    double latency, submit, queue, exec;
};

/** Per-client sample storage, allocated and touched once per run so the
 * benchmark's own bookkeeping stays constant in peak_rss_mb. A client
 * ends its window early if the buffer fills. */
constexpr std::size_t kMaxJobsPerWindow = 1 << 15;

struct ClientLog
{
    std::vector<JobSample> samples =
        std::vector<JobSample>(kMaxJobsPerWindow);
    std::size_t timed = 0;
    uint64_t jobs = 0;
    uint64_t failed = 0;
};

} // namespace

void
runServe(const Config &cfg, const Host &host, Trace &trace, Report &report)
{
    const int workers = std::max(1, host.cpus - kClients);
    // Job sizes n, n+1, n+2 in equal shares (the middle one is the
    // reference job for T1/TS); n shrinks with --scale.
    const int mid = std::max(
        12, 24 + static_cast<int>(std::lround(std::log(cfg.scale)
                                              / std::log(1.618))));
    const int sizes[kSizes] = {mid - 1, mid, mid + 1};
    const int cutoff = mid - 6;
    uint64_t expect[kSizes];
    for (int i = 0; i < kSizes; ++i)
        expect[i] = fibExact(sizes[i]);

    RuntimeOptions opts_p;
    opts_p.numWorkers = workers;
    opts_p.numPlaces = workers >= 2 ? 2 : 1;
    opts_p.seed = cfg.seed;
    RuntimeOptions opts_1 = opts_p;
    opts_1.numWorkers = 1;
    opts_1.numPlaces = 1;

    Trace off(false);
    std::vector<double> t1, ts, setup;
    // Per-window figures; the reported values are their medians, so a
    // burst of host noise moves one window, not the run.
    std::vector<double> rates, lat_p50, lat_p99, exec_p50, exec_tail,
        submit_p50, queue_p50, queue_p99, exec_traced, exec_untraced;
    std::vector<ClientLog> logs(kClients);
    std::vector<double> lat, sub, que, exe;
    lat.reserve(kClients * kMaxJobsPerWindow);
    sub.reserve(kClients * kMaxJobsPerWindow);
    que.reserve(kClients * kMaxJobsPerWindow);
    exe.reserve(kClients * kMaxJobsPerWindow);
    CounterLog counters;

    const int64_t start = nowNs();
    const double window_s = cfg.seconds * 0.9 / kWindows;
    for (int w = 0; w < kWindows; ++w) {
        const bool traced = cfg.trace && w % 2 == 0;
        Trace &tr = traced ? trace : off;
        Span win(tr, "window", "bench");

        // T1 and TS of the reference job.
        {
            Span s(tr, "serial_runtime", "bench", win.id());
            std::unique_ptr<Runtime> rt1;
            {
                Span c(tr, "construct", "runtime", s.id());
                rt1 = std::make_unique<Runtime>(opts_1);
            }
            // T1 and TS reps alternate so host drift lands on both.
            for (int k = 0; k <= kSerialReps; ++k) {
                const uint64_t group = tr.on() ? tr.newId() : 0;
                {
                    Span r(tr, k == 0 ? "warm_t1" : "t1", "runtime",
                           s.id(), group);
                    uint64_t v = 0;
                    const int64_t t0 = nowNs();
                    rt1->run([&v, &sizes, cutoff] {
                        v = jobFib(sizes[1], cutoff);
                    });
                    if (k > 0)
                        t1.push_back(static_cast<double>(nowNs() - t0)
                                     * 1e-9);
                    report.count(v == expect[1]);
                }
                if (k == 0)
                    continue;
                Span r(tr, "ts", "workloads", s.id(), group);
                const int64_t t0 = nowNs();
                const uint64_t v = numaws::workloads::fibSerial(sizes[1]);
                ts.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
                report.count(v == expect[1]);
            }
            Span d(tr, "destroy", "runtime", s.id());
            rt1.reset();
        }

        std::unique_ptr<Runtime> rt;
        {
            Span c(tr, "construct", "runtime", win.id());
            const int64_t t0 = nowNs();
            rt = std::make_unique<Runtime>(opts_p);
            setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        }

        std::atomic<int> ready{0};
        std::atomic<int64_t> window_end{0};
        for (ClientLog &log : logs) {
            log.timed = 0;
            log.jobs = 0;
            log.failed = 0;
        }
        auto client = [&](int id) {
            ClientLog &log = logs[static_cast<std::size_t>(id)];
            uint64_t rng =
                mix64(cfg.seed ^ (static_cast<uint64_t>(w) << 8)
                      ^ static_cast<uint64_t>(id));
            auto one = [&](bool timed) {
                rng = mix64(rng);
                const int which = static_cast<int>(rng % kSizes);
                const int n = sizes[which];
                const uint64_t group = tr.on() && timed ? tr.newId() : 0;
                Span job(tr, timed ? "job" : "warm_job", "runtime",
                         win.id(), group);
                uint64_t v = 0;
                const int64_t t0 = nowNs();
                JobHandle h;
                {
                    Span s(tr, "submit", "runtime", job.id(), group);
                    h = rt->submit(
                        [&v, n, cutoff] { v = jobFib(n, cutoff); });
                }
                const int64_t t1_ns = nowNs();
                h.wait();
                const int64_t t2 = nowNs();
                bool ok = false;
                {
                    Span s(tr, "check", "bench", job.id(), group);
                    ok = h.outcome() == JobOutcome::Done
                         && v == expect[which];
                }
                if (!ok)
                    ++log.failed;
                ++log.jobs;
                if (!timed)
                    return;
                log.samples[log.timed++] = {
                    static_cast<double>(t2 - t0) * 1e-9,
                    static_cast<double>(t1_ns - t0) * 1e-9,
                    static_cast<double>(h.queueNs()) * 1e-9,
                    static_cast<double>(h.execNs()) * 1e-9};
            };
            for (int k = 0; k < kWarmJobs; ++k)
                one(false);
            ready.fetch_add(1);
            int64_t end = 0;
            while ((end = window_end.load()) == 0)
                std::this_thread::yield();
            while (nowNs() < end && log.timed < kMaxJobsPerWindow)
                one(true);
        };

        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(client, c);
        while (ready.load() < kClients)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        RuntimeStats before;
        if (traced) {
            Span s(tr, "stats", "runtime", win.id());
            before = rt->stats();
        }
        const int64_t go = nowNs();
        window_end.store(go + static_cast<int64_t>(window_s * 1e9));
        for (std::thread &t : clients)
            t.join();
        const double wall = static_cast<double>(nowNs() - go) * 1e-9;

        uint64_t jobs = 0;
        lat.clear();
        sub.clear();
        que.clear();
        exe.clear();
        for (const ClientLog &log : logs) {
            report.attempted += log.jobs;
            report.failed += log.failed;
            jobs += log.timed;
            for (std::size_t k = 0; k < log.timed; ++k) {
                const JobSample &j = log.samples[k];
                lat.push_back(j.latency);
                sub.push_back(j.submit);
                que.push_back(j.queue);
                exe.push_back(j.exec);
            }
        }
        rates.push_back(ratio(static_cast<double>(jobs), wall));
        lat_p50.push_back(median(lat));
        lat_p99.push_back(tailOf(lat, 0.99).value);
        exec_p50.push_back(median(exe));
        exec_tail.push_back(tailOf(exe, 0.99).value);
        submit_p50.push_back(median(sub));
        queue_p50.push_back(median(que));
        queue_p99.push_back(tailOf(que, 0.99).value);
        (traced ? exec_traced : exec_untraced).push_back(median(exe));
        if (traced) {
            Span s(tr, "stats", "runtime", win.id());
            counters.add(statsDelta(rt->stats(), before),
                         std::max<double>(1, static_cast<double>(jobs)));
        }
        Span d(tr, "destroy", "runtime", win.id());
        rt.reset();
    }

    const double exec_med = median(exec_p50);
    report.detail("window_jobs_s", summaryJson(rates));
    report.detail("window_lat_p50_s", summaryJson(lat_p50));
    report.detail("window_lat_p99_s", summaryJson(lat_p99));
    report.detail("window_exec_p50_s", summaryJson(exec_p50));
    report.detail("window_exec_tail_s", summaryJson(exec_tail));
    report.detail("t1_s", summaryJson(t1));
    report.detail("ts_s", summaryJson(ts));
    report.detail("setup_s", summaryJson(setup));
    report.detail("input", "{\"fib_sizes\":[" + std::to_string(sizes[0])
                               + "," + std::to_string(sizes[1]) + ","
                               + std::to_string(sizes[2]) + "],\"cutoff\":"
                               + std::to_string(cutoff) + ",\"clients\":"
                               + std::to_string(kClients) + ",\"workers\":"
                               + std::to_string(workers) + "}");
    report.detail("loop_seconds",
                  num(static_cast<double>(nowNs() - start) * 1e-9));

    if (!cfg.trace) {
        report.add("tp_s", exec_med, "s");
        report.add("tp_tail_s", median(exec_tail), "s");
        report.add("work_eff", ratio(median(t1), median(ts)), "x");
        report.add("speedup", ratio(median(ts), exec_med), "x");
        report.add("jobs_s", median(rates), "jobs/s");
        report.add("lat_p50_ms", median(lat_p50) * 1e3, "ms");
        report.add("lat_p99_ms", median(lat_p99) * 1e3, "ms");
        report.add("setup_s", median(setup), "s");
        return;
    }
    addCounterRows(report, counters);
    report.add("sched.stuck_runtime_frac",
               stuckFraction(exec_p50, exec_med), "ratio");
    report.add("workloads.computed_gb_s", 0.0, "GB/s");
    report.add("runtime.submit_us", median(submit_p50) * 1e6, "us");
    report.add("runtime.queue_p50_us", median(queue_p50) * 1e6, "us");
    report.add("runtime.queue_p99_us", median(queue_p99) * 1e6, "us");
    report.add("runtime.exec_p50_us", exec_med * 1e6, "us");
    report.add("trace.overhead_frac",
               ratio(median(exec_traced), median(exec_untraced)) - 1.0,
               "ratio");
}

} // namespace perfbench
