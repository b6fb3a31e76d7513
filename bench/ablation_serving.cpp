/**
 * @file
 * Open-loop serving rows: the PR 6 submission front door under Poisson
 * and bursty arrivals, in both engines.
 *
 * Jobs are small independent fib/matmul/heat computations submitted at
 * seeded arrival instants; per-job latency (submit -> finish) is the
 * metric, reported as exact sorted percentiles. Two rate classes per
 * mix: "low" (a few percent utilization — the elastic pool's parking
 * regime) and "high" (~60% utilization — the latency-under-load
 * regime). Each class runs elastic (workers park when the board and
 * JobQueue are both dry) and spin (parking disabled) so the elastic
 * trade is priced: parked wall time bought at low rate, tail latency
 * paid at high rate.
 *
 * The open-loop driver (job mixes, arrivals, the tally, threaded runs and
 * calibration) is serving_driver.h; this file holds the job bodies, scenarios
 * and gates.
 *
 *   ./ablation_serving [--scale=0.25] [--cores=32] [--seeds=3]
 *                      [--seed=first] [--threads=2] [--reps=3]
 *                      [--skip-threaded] [--json=BENCH_serving.json]
 *
 * Exits nonzero unless (full runs only):
 *  1. sim, mixed/low: the elastic pool parks >= 80% of worker-idle
 *     time (parked cycles / idle cycles),
 *  2. sim, mixed/high: elastic p99 <= 1.10x the spin baseline,
 *  3. sim serving rows are byte-identical across repeated runs of the
 *     same seed (determinism of the arrival + admission machinery),
 *  4. threaded, mixed/low: the elastic pool parks >= 80% of the
 *     workers' wall time (utilization is ~2%, so wall ~= idle),
 *  5. threaded, mixed/high: elastic p99 <= 1.10x spin (median of
 *     --reps repetitions, so one noisy rep cannot flip the verdict).
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "serving_driver.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

// ---------------------------------------------------------------------
// Threaded job bodies: small intra-job fork-join computations, sized to
// tens of microseconds so open-loop runs finish quickly at bench scale.
// ---------------------------------------------------------------------

uint64_t
fibJob(int n, int cutoff)
{
    if (n < cutoff)
        return fibSerial(n);
    uint64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n, cutoff] { a = fibJob(n - 1, cutoff); });
    const uint64_t b = fibJob(n - 2, cutoff);
    tg.sync();
    return a + b;
}

/** Submit job @p i of the mixed stream with its class/hint. */
JobHandle
submitJob(Runtime &rt, int i)
{
    JobOptions opts;
    switch (i % 3) {
      case 0:
        opts.cls = JobClass::Latency;
        return rt.submit([] {
            g_sink.store(static_cast<double>(fibJob(20, 14)),
                         std::memory_order_relaxed);
        }, opts);
      case 1:
        opts.cls = JobClass::Normal;
        opts.place = static_cast<Place>(i % rt.numPlaces());
        return rt.submit([] {
            g_sink.store(heatJob(64, 64, 2), std::memory_order_relaxed);
        }, opts);
      default:
        opts.cls = JobClass::Batch;
        return rt.submit([] {
            g_sink.store(matmulJob(48), std::memory_order_relaxed);
        }, opts);
    }
}

/** Open-loop run of the mixed stream on @p rt after a 12-job warm-up. */
OpenLoopRun
runMixed(Runtime &rt, double rate, int jobs, uint64_t seed)
{
    return runOpenLoop(
        rt, rate, jobs, seed,
        [&rt] {
            for (int i = 0; i < 12; ++i)
                submitJob(rt, i).wait();
        },
        [&rt](int i) { return submitJob(rt, i); });
}

/** parkedNs / (wall * workers) of one threaded run. */
double
parkedFrac(const OpenLoopRun &r, int workers)
{
    return static_cast<double>(r.stats.counters.parkedNs)
           / (r.tally.elapsed_s * 1e9 * static_cast<double>(workers));
}

// ---------------------------------------------------------------------
// Sim side: merged multi-root dags + simulateServing
// ---------------------------------------------------------------------

SimJobMix
buildSimMix(const std::string &name, int jobs, int sockets)
{
    std::vector<sim::ComputationDag> kinds; // index = class
    kinds.push_back(fibDag(12));            // Latency
    if (name == "mixed") {
        HeatParams heat;
        heat.nx = 64;
        heat.ny = 64;
        heat.steps = 2;
        heat.baseRows = 16;
        kinds.push_back( // Normal, place-hinted
            heatDag(heat, sockets, Placement::Partitioned, true));
        MatmulParams mm;
        mm.n = 64;
        mm.block = 32;
        kinds.push_back( // Batch
            matmulDag(mm, sockets, Placement::FirstTouch, false));
    }
    SimJobMix mix;
    for (int i = 0; i < jobs; ++i) {
        const std::size_t k = i % kinds.size();
        mix.add(kinds[k], static_cast<int>(k));
    }
    return mix;
}

/** One simulated serving run: offered load, arrival shape, pool. */
struct SimScenario
{
    const char *rate;
    double util;
    bool elastic;
    bool burst = false; ///< bursts of 8 instead of Poisson arrivals
};

/** A sim run and its row, rendered before provenance stamping so the
 * determinism gate can compare raw bytes. */
struct SimRun
{
    sim::ServingResult r;
    JsonRow row;
};

SimRun
runSim(const std::string &name, const SimJobMix &mix,
       const SimScenario &sc, const Machine &machine, int cores,
       uint64_t seed)
{
    sim::ArrivalProcess p =
        mix.arrivals(sc.util, cores, machine.ghz(), seed);
    if (sc.burst)
        p.kind = sim::ArrivalProcess::Kind::Burst;
    sim::SimConfig cfg;
    cfg.modelParking = sc.elastic;
    cfg.sched.parkSpinFailures = 4;
    cfg.seed = seed;
    SimRun run;
    run.r = sim::simulateServing(mix.dag, mix.arrive(p, machine.ghz()),
                                 machine, cores, cfg);
    const sim::ServingResult &r = run.r;
    const ServingTally t(r, mix.classes, machine.ghz(), p.ratePerSec);
    run.row.set("engine", "sim")
        .set("workload", name)
        .set("mix", name)
        .set("rate", sc.rate)
        .set("arrivals", sc.burst ? "burst" : "poisson")
        .set("elastic", sc.elastic)
        .set("cores", cores)
        .set("seed", seed);
    t.put(run.row, {"jobs", "arrival_per_s", "elapsed_s"})
        .set("work_s", r.sim.workSeconds)
        .set("sched_s", r.sim.schedSeconds)
        .set("idle_s", r.sim.idleSeconds);
    t.put(run.row, {"p50_us", "p99_us", "p999_us"})
        .set("hist_p99_us",
             static_cast<double>(r.latency.quantile(0.99)) / 1000.0)
        .set("parks", r.sim.counters.parks)
        .set("parked_cycles", r.sim.counters.parkedCycles)
        .set("wakeups", r.sim.counters.wakeups)
        .set("board_wakes", r.sim.counters.boardWakes)
        .set("spurious_wakeups", r.sim.counters.spuriousWakeups)
        .set("steal_attempts", r.sim.counters.stealAttempts);
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const ServingArgs args(cli, "BENCH_serving.json", /*reps=*/3,
                           /*threads=*/2);
    const int threads = args.threads;
    const int sockets = socketsFor(args.cores);
    const int sim_jobs = args.scale >= 1.0 ? 240 : 90;

    const double kLowUtil = 0.05;
    const double kHighUtil = 0.6;

    JsonReport report;
    bool ok = true;

    // ---- Simulated serving rows + deterministic gates ----
    const Machine machine = Machine::paperMachineSubset(args.cores);
    double mixed_low_parked_frac = 0.0;
    double mixed_high_p99[2] = {0.0, 0.0}; // [elastic]
    for (const std::string mix_name : {"fib", "mixed"}) {
        if (!args.only.empty() && args.only != mix_name)
            continue;
        const SimJobMix mix = buildSimMix(mix_name, sim_jobs, sockets);
        std::printf("\nSimulated serving %s, %d cores, %d jobs:\n",
                    mix_name.c_str(), args.cores, sim_jobs);
        Table t({"rate", "elastic", "T", "p50us", "p99us", "parks",
                 "parked%idle"});
        for (const SimScenario &rc :
             {SimScenario{"low", kLowUtil, false},
              SimScenario{"low", kLowUtil, true},
              SimScenario{"high", kHighUtil, false},
              SimScenario{"high", kHighUtil, true}}) {
            double p99_mean = 0.0;
            double parked_frac = 0.0;
            double elapsed = 0.0, p50 = 0.0, parks = 0.0;
            for (int s = 0; s < args.num_seeds; ++s) {
                const SimRun run = runSim(mix_name, mix, rc, machine,
                                          args.cores, args.seed(s));
                const sim::ServingResult &r = run.r;
                report.addRow(run.row);
                p99_mean += r.p99Us / args.num_seeds;
                const double idle_cycles =
                    r.sim.idleSeconds * machine.ghz() * 1e9;
                parked_frac += static_cast<double>(
                                   r.sim.counters.parkedCycles)
                               / std::max(1.0, idle_cycles)
                               / args.num_seeds;
                elapsed += r.sim.elapsedSeconds / args.num_seeds;
                p50 += r.p50Us / args.num_seeds;
                parks += static_cast<double>(r.sim.counters.parks)
                         / args.num_seeds;
            }
            t.addRow({rc.rate, rc.elastic ? "yes" : "no",
                      Table::fmtSeconds(elapsed), cell(p50), cell(p99_mean),
                      cell(parks), cell(parked_frac * 100.0)});
            if (mix_name == "mixed" && rc.util == kLowUtil && rc.elastic)
                mixed_low_parked_frac = parked_frac;
            if (mix_name == "mixed" && rc.util == kHighUtil)
                mixed_high_p99[rc.elastic] = p99_mean;
        }
        t.print();

        // Bursty admission rows (measured only): same high rate, jobs
        // arriving in bursts of 8 — the admission-edge stress shape.
        const SimRun burst =
            runSim(mix_name, mix, {"high", kHighUtil, true, true},
                   machine, args.cores, args.first_seed);
        report.addRow(burst.row);
        std::printf("  burst arrivals: p99 %.0fus  parks %llu\n",
                    burst.r.p99Us,
                    static_cast<unsigned long long>(
                        burst.r.sim.counters.parks));

        // Determinism gate: the same seeded serving run, repeated,
        // must render byte-identical rows.
        const SimScenario high = {"high", kHighUtil, true};
        ok &= gateIdentical(
            mix_name + " serving rows byte-identical",
            runSim(mix_name, mix, high, machine, args.cores,
                   args.first_seed)
                .row,
            runSim(mix_name, mix, high, machine, args.cores,
                   args.first_seed)
                .row);
    }

    if (args.only.empty()) {
        std::printf("\nSim serving gates:\n");
        ok &= gateMin("sim mixed/low elastic parked frac of idle",
                      mixed_low_parked_frac, 0.80);
        ok &= gateMax("sim mixed/high elastic/spin p99",
                      mixed_high_p99[1]
                          / std::max(1e-9, mixed_high_p99[0]),
                      1.10);
    }

    // ---- Threaded open-loop rows + gates ----
    if (!args.skip_threaded && args.only.empty()) {
        const int n_low = args.scale >= 1.0 ? 200 : 80;
        const int n_high = args.scale >= 1.0 ? 600 : 300;

        // Calibrate the mean job time on this host with a spin
        // runtime, then derive the two rate classes from it.
        const double mean_job_s =
            calibrateHost(servingOptions(threads, true), 0, 30, 0,
                          submitJob)
                .mean_job_s;
        const double rate_low = kLowUtil * threads / mean_job_s;
        const double rate_high = kHighUtil * threads / mean_job_s;
        std::printf("\nThreaded open-loop, %d workers (mean job "
                    "%.0fus, rates %.0f/s and %.0f/s):\n",
                    threads, mean_job_s * 1e6, rate_low, rate_high);

        // [rate_class][elastic]: medians over reps.
        double med_p99[2][2], med_parked[2][2];
        Table t({"rate", "elastic", "p50us", "p99us", "parked%",
                 "parks", "spurious"});
        for (int rci = 0; rci < 2; ++rci) {
            const char *rc_name = rci == 0 ? "low" : "high";
            const double rate = rci == 0 ? rate_low : rate_high;
            const int n_jobs = rci == 0 ? n_low : n_high;
            for (const bool elastic : {false, true}) {
                Runtime rt(servingOptions(threads, !elastic));
                std::vector<double> p99s, parked;
                double p50 = 0.0, parks = 0.0, spurious = 0.0;
                for (int rep = 0; rep < args.reps; ++rep) {
                    const OpenLoopRun r =
                        runMixed(rt, rate, n_jobs, args.repSeed(rep));
                    const WorkerCounters &c = r.stats.counters;
                    p99s.push_back(r.tally.p99_us);
                    parked.push_back(parkedFrac(r, rt.numWorkers()));
                    p50 += r.tally.p50_us / args.reps;
                    parks += static_cast<double>(c.parks) / args.reps;
                    spurious +=
                        static_cast<double>(c.spuriousWakes) / args.reps;
                    JsonRow row;
                    row.set("engine", "threaded")
                        .set("workload", "mixed")
                        .set("mix", "mixed")
                        .set("rate", rc_name)
                        .set("arrivals", "poisson")
                        .set("elastic", elastic)
                        .set("workers", threads)
                        .set("rep", rep);
                    r.tally
                        .put(row, {"jobs", "arrival_per_s", "elapsed_s",
                                   "p50_us", "p99_us", "p999_us"})
                        .set("hist_p99_us",
                             static_cast<double>(
                                 r.stats.jobLatency.quantile(0.99))
                                 / 1000.0)
                        .set("jobs_completed", c.jobsCompleted)
                        .set("parked_frac", parked.back())
                        .set("parks", c.parks)
                        .set("spurious_wakeups", c.spuriousWakes);
                    report.addRow(row);
                }
                const double p99 = exactQuantile(p99s, 0.5);
                const double parked_med = exactQuantile(parked, 0.5);
                med_p99[rci][elastic] = p99;
                med_parked[rci][elastic] = parked_med;
                t.addRow({rc_name, elastic ? "yes" : "no", cell(p50),
                          cell(p99), cell(parked_med * 100.0), cell(parks),
                          cell(spurious)});
            }
        }
        t.print();

        // Co-runner interference rows: high-rate elastic serving
        // while busy-loop threads steal the cores, once unprotected
        // and once with QueueDelay shedding. The co-runners eat a
        // chunk of capacity, so the same arrival rate is effectively
        // an overload; the shedding run is the protected comparator
        // the gate below measures against.
        double corun_p99[2] = {0.0, 0.0}; // [shed]
        {
            const CoRunners busy(threads);
            for (int shed = 0; shed < 2; ++shed) {
                RuntimeOptions o = servingOptions(threads, false);
                if (shed) {
                    const int lat_t = std::max(
                        2000, static_cast<int>(8e6 * mean_job_s));
                    o.sched.serving.shed = ShedPolicy::QueueDelay;
                    o.sched.serving.queueDelayTargetUs[0] = lat_t;
                    o.sched.serving.queueDelayTargetUs[1] = 2 * lat_t;
                    o.sched.serving.queueDelayTargetUs[2] = 4 * lat_t;
                }
                Runtime rt(o);
                const OpenLoopRun r =
                    runMixed(rt, rate_high, n_high, args.first_seed);
                const ServingTally &tl = r.tally;
                corun_p99[shed] = tl.p99_us;
                JsonRow row;
                row.set("engine", "threaded")
                    .set("workload", "mixed+corun")
                    .set("mix", "mixed")
                    .set("rate", "high")
                    .set("arrivals", "poisson")
                    .set("shed", shed ? "queue_delay" : "none")
                    .set("elastic", true)
                    .set("workers", threads);
                tl.put(row, {"jobs", "elapsed_s", "p50_us", "p99_us",
                             "done"})
                    .set("shed_jobs", tl.rejected)
                    .set("parked_frac", parkedFrac(r, rt.numWorkers()))
                    .set("parks", r.stats.counters.parks);
                report.addRow(row);
                std::printf("  co-runner row (%s): p99 %.0fus, "
                            "%llu done / %llu shed (vs %.0fus "
                            "uncontended)\n",
                            shed ? "queue_delay" : "none", tl.p99_us,
                            static_cast<unsigned long long>(tl.done),
                            static_cast<unsigned long long>(tl.rejected),
                            med_p99[1][1]);
            }
        }

        std::printf("\nThreaded serving gates:\n");
        ok &= gateMin("threaded mixed/low elastic parked frac",
                      med_parked[0][1], 0.80);
        ok &= gateMax("threaded mixed/high elastic/spin p99",
                      med_p99[1][1] / std::max(1e-9, med_p99[1][0]),
                      1.10);
        // Under co-runner pressure the protected run must not be
        // worse than the unprotected one (2.0 covers shared-host
        // noise; a shedding bug that queues behind dead weight reads
        // far above it).
        ok &= gateMax("threaded corun queue_delay / corun none p99",
                      corun_p99[1] / std::max(1e-9, corun_p99[0]), 2.0);
    }

    // Partial runs skip the gates.
    return finishReport(report, args.json_path, ok || !args.only.empty(),
                        "serving");
}
