/**
 * @file
 * Interference-resilience rows: the PR 10 co-runner machinery driven
 * through a deterministic storm in the sim and a real pinned co-runner
 * squeeze in the threaded runtime.
 *
 * Sim scenarios (fixed burst schedule — bursts of 40 serial jobs every
 * 50k cycles — so every burst forces claims on every core, stolen ones
 * included, and the catastrophe is structural rather than a property
 * of one lucky Poisson draw):
 *  - `calm`: no trace — the baseline every off-knob row must match.
 *  - `storm`: half of socket 0 stolen (4 of 8 cores at 8x) plus a 300
 *    per-mille slowdown on the rest, from 30k cycles to the end of the
 *    run. Off rides it out; Adapt retires exactly the four stolen
 *    cores (the residual slowdown lands in the hysteresis dead band)
 *    and the last burst's jobs never land on an 8x core.
 *  - `window`: the same storm ending at 150k cycles, so the ladder
 *    must fully re-expand mid-run and the post-storm bursts run on
 *    the whole socket again.
 *
 * The open-loop driver (job mixes, arrivals, the tally, threaded runs and
 * calibration) is serving_driver.h; this file holds the burst schedule, co-
 * runner squeeze and gates.
 *
 *   ./ablation_interference [--scale=0.25] [--cores=32] [--seeds=3]
 *                           [--seed=first] [--reps=2] [--skip-threaded]
 *                           [--json=BENCH_interference.json]
 *
 * Exits nonzero unless (sim gates are byte-deterministic per seed;
 * threaded gates are catastrophe floors, skipped on hosts too small to
 * pin four workers plus co-runners):
 *  1. storm: Adapt elapsed <= 0.90x Off elapsed and Adapt p99 <= 0.6x
 *     Off p99, with the trace charged in both runs,
 *  2. storm Adapt retires workers and the trace's stolen/slowed cycles
 *     are both billed,
 *  3. window: every retired worker is reinstated before the run ends,
 *  4. off-knob rows with an *empty* trace are byte-identical to
 *     no-trace rows, and Adapt storm rows replay byte-identically
 *     across repeated runs of one seed,
 *  5. threaded: Adapt p99 <= 0.8x Off p99 under two busy-loop
 *     co-runners pinned onto the top-ranked worker's CPU, sensing
 *     actually retired a worker, and the worker set re-expands to
 *     full strength after the co-runners exit.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serving_driver.h"
#include "sim/interference.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

// ---------------------------------------------------------------------
// Sim side
// ---------------------------------------------------------------------

/** Burst schedule geometry: 40 serial jobs land at once every 50k
 * cycles. The burst exceeds the core count, so *every* core — stolen
 * ones included — claims a job at every burst, and a storm-off run's
 * last burst always strands jobs on an 8x core; serial bodies mean no
 * thief can rescue them. */
constexpr int kBurstJobs = 40;
constexpr double kBurstGapCycles = 50e3;
constexpr double kJobCycles = 20e3;
constexpr double kStormStart = 30e3;
constexpr double kWindowEnd = 150e3;
constexpr int kCoresStolen = 4;   ///< half of socket 0
constexpr int kSlowPermille = 300;

struct SimScenario
{
    const char *name;
    bool adapt = false;
    /** 0 = no trace, 1 = storm (to end of run), 2 = finite window. */
    int trace = 0;
};

const char *
traceName(int trace)
{
    return trace == 0 ? "none" : trace == 1 ? "storm" : "window";
}

sim::InterferenceTrace
traceFor(int kind)
{
    sim::InterferenceTrace tr;
    if (kind == 1)
        tr.intervals.push_back(
            {kStormStart, 1e15, 0, kCoresStolen, kSlowPermille});
    else if (kind == 2)
        tr.intervals.push_back(
            {kStormStart, kWindowEnd, 0, kCoresStolen, kSlowPermille});
    return tr;
}

/** One interference row of either engine, up to the tally; the caller
 * appends the engine's retire/re-expand counters. */
JsonRow
interferenceRow(const char *engine, const char *scenario,
                const char *knob, const char *trace, int corunners,
                int cores_or_workers, uint64_t seed,
                const ServingTally &t)
{
    JsonRow row;
    row.set("engine", engine)
        .set("workload", "interference_serve")
        .set("scenario", scenario)
        .set("interference", knob)
        .set("trace", trace)
        .set("corunners", corunners)
        .set(std::string(engine) == "sim" ? "cores" : "workers",
             cores_or_workers)
        .set("seed", seed);
    return t.put(row, {"jobs", "elapsed_s", "p99_us", "queue_p99_us",
                       "goodput", "done"});
}

/** A sim run and its tally. */
struct SimRun
{
    sim::ServingResult r;
    ServingTally tally;

    /** The row, rendered before provenance stamping so the
     * byte-determinism gates can compare raw bytes. */
    JsonRow
    row(const SimScenario &sc, int cores, uint64_t seed) const
    {
        const sim::SimCounters &c = r.sim.counters;
        return interferenceRow("sim", sc.name, sc.adapt ? "adapt" : "off",
                               traceName(sc.trace), 0, cores, seed, tally)
            .set("retires", c.interferenceRetires)
            .set("reexpands", c.interferenceReexpands)
            .set("stolen_cycles", c.stolenCycles)
            .set("slowed_cycles", c.slowedCycles);
    }
};

SimRun
runSimScenario(const SimJobMix &mix, const std::vector<sim::SimJob> &jobs,
               int cores, uint64_t seed, bool adapt,
               const sim::InterferenceTrace *trace)
{
    sim::SimConfig cfg;
    cfg.seed = seed;
    cfg.interference = trace;
    cfg.sched.serving.interference = adapt ? InterferencePolicy::Adapt
                                           : InterferencePolicy::Off;
    // 2us epochs = 4400 cycles at the paper machine's 2.2 GHz: ~10
    // epochs per burst gap, so the ladder converges well inside the
    // storm's first burst.
    cfg.sched.serving.pressureEpochUs = 2;
    SimRun run;
    run.r = sim::simulateServingPacked(mix.dag, jobs, cores, cfg);
    run.tally = ServingTally(
        run.r, mix.classes, Machine::paperMachineSubset(cores).ghz(), 0.0);
    return run;
}

// ---------------------------------------------------------------------
// Threaded side: four pinned workers on two places; two busy-loop
// co-runners pinned onto the top-ranked worker's CPU squeeze exactly
// the worker the InterferenceCore retires first, so Adapt converts a
// fat 3x claim tail into a parked worker while Off keeps eating it.
// ---------------------------------------------------------------------

constexpr int kWorkers = 4;
constexpr int kSqueezedCpu = kWorkers - 1; ///< top rank of place 1
constexpr int kCorunners = 2;

JobHandle
submitSerialJob(Runtime &rt, int i)
{
    JobOptions opts;
    opts.cls = static_cast<JobClass>(i % 3);
    return rt.submit([] {
        g_sink.store(matmulSerialJob(80), std::memory_order_relaxed);
    }, opts);
}

/** Open-loop serial-job stream on @p rt under a running squeeze. The
 * warm-up lets the squeeze register: a few pressure epochs under load
 * so an adapting runtime has converged before the measured stream. */
ServingTally
runSqueezed(Runtime &rt, double rate, int jobs, uint64_t seed)
{
    const auto warm = [&rt] {
        for (int i = 1; i <= 8; ++i)
            submitSerialJob(rt, i).wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    };
    const auto submit = [&rt](int i) { return submitSerialJob(rt, i); };
    return runOpenLoop(rt, rate, jobs, seed, warm, submit).tally;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const ServingArgs args(cli, "BENCH_interference.json", /*reps=*/2,
                           /*threads=*/0);
    const int bursts = args.scale >= 1.0 ? 12 : 6;
    const int sim_jobs = kBurstJobs * bursts;

    JsonReport report;
    bool ok = true;

    // ---- Simulated rows + deterministic gates ----
    SimJobMix mix;
    std::vector<double> at;
    const auto body = fibDag(1, kJobCycles); // one serial strand
    for (int i = 0; i < sim_jobs; ++i) {
        mix.add(body, i % 3);
        at.push_back((i / kBurstJobs) * kBurstGapCycles);
    }
    const std::vector<sim::SimJob> jobs = mix.jobsAt(at);

    const SimScenario scenarios[] = {
        {"calm", false, 0},
        {"storm", false, 1},
        {"storm", true, 1},
        {"window", true, 2},
    };

    std::printf("Simulated interference, %d cores, %d jobs "
                "(%d-job bursts every %.0fk cycles):\n",
                args.cores, sim_jobs, kBurstJobs,
                kBurstGapCycles / 1000.0);
    Table t({"scenario", "knob", "elapsedms", "p99us", "retires",
             "reexp", "stolenKc", "slowedKc"});
    // Worst case across seeds: the gates hold for *every* seed, not an
    // average — each row is byte-deterministic, so a regression on any
    // seed is a real protocol change. results[scenario][seed] is filled
    // once by the row loop and reused by the gates.
    std::vector<std::vector<sim::ServingResult>> results(4);
    for (int i = 0; i < 4; ++i) {
        const SimScenario &sc = scenarios[i];
        const sim::InterferenceTrace tr = traceFor(sc.trace);
        const sim::InterferenceTrace *trp =
            sc.trace == 0 ? nullptr : &tr;
        const double n = args.num_seeds;
        double elapsed = 0.0, p99 = 0.0;
        double retires = 0.0, reexp = 0.0, stolen = 0.0, slowed = 0.0;
        for (int s = 0; s < args.num_seeds; ++s) {
            const uint64_t seed = args.seed(s);
            SimRun run =
                runSimScenario(mix, jobs, args.cores, seed, sc.adapt, trp);
            report.addRow(run.row(sc, args.cores, seed));
            const sim::SimCounters &c = run.r.sim.counters;
            elapsed += run.r.sim.elapsedCycles / n;
            p99 += run.tally.p99_us / n;
            retires += static_cast<double>(c.interferenceRetires) / n;
            reexp += static_cast<double>(c.interferenceReexpands) / n;
            stolen += static_cast<double>(c.stolenCycles) / n;
            slowed += static_cast<double>(c.slowedCycles) / n;
            results[i].push_back(std::move(run.r));
        }
        t.addRow({sc.name, sc.adapt ? "adapt" : "off",
                  cell(elapsed / 2.2e6 * 1000.0), cell(p99), cell(retires),
                  cell(reexp), cell(stolen / 1e3), cell(slowed / 1e3)});
    }
    t.print();

    // Per-seed gate inputs: storm-off (results[1]) pairs with
    // storm-adapt (results[2]) seed by seed; window is results[3].
    double worst_elapsed_ratio = 0.0, worst_p99_ratio = 0.0;
    double min_retires = 1e30, min_stolen = 1e30, min_slowed = 1e30;
    double min_window_margin = 1e30;
    for (int s = 0; s < args.num_seeds; ++s) {
        const sim::ServingResult &off = results[1][s];
        const sim::ServingResult &adapt = results[2][s];
        const sim::SimCounters &c = adapt.sim.counters;
        const sim::SimCounters &win = results[3][s].sim.counters;
        worst_elapsed_ratio =
            std::max(worst_elapsed_ratio,
                     adapt.sim.elapsedCycles / off.sim.elapsedCycles);
        worst_p99_ratio =
            std::max(worst_p99_ratio, adapt.p99Us / off.p99Us);
        min_retires = std::min<double>(min_retires, c.interferenceRetires);
        min_stolen = std::min<double>(min_stolen, c.stolenCycles);
        min_slowed = std::min<double>(min_slowed, c.slowedCycles);
        min_window_margin = std::min(
            min_window_margin,
            static_cast<double>(win.interferenceReexpands)
                - static_cast<double>(win.interferenceRetires));
    }

    // Byte-compat: the off knob with an *empty* trace must replay the
    // no-trace schedule bit for bit (the hooks run, with nothing to
    // charge), and an adapting storm must replay itself exactly.
    {
        const auto row = [&](const SimScenario &sc,
                             const sim::InterferenceTrace *trace) {
            return runSimScenario(mix, jobs, args.cores, args.first_seed,
                                  sc.adapt, trace)
                .row(sc, args.cores, args.first_seed);
        };
        const sim::InterferenceTrace empty;
        ok &= gateIdentical("sim empty trace byte-identical to no trace",
                            row(scenarios[0], nullptr),
                            row(scenarios[0], &empty));
        const sim::InterferenceTrace storm = traceFor(1);
        ok &= gateIdentical("sim adapt storm rows byte-identical",
                            row(scenarios[2], &storm),
                            row(scenarios[2], &storm));
    }

    std::printf("\nSim interference gates:\n");
    ok &= gateMax("sim storm adapt/off elapsed (worst seed)",
                  worst_elapsed_ratio, 0.90);
    ok &= gateMax("sim storm adapt/off p99 (worst seed)",
                  worst_p99_ratio, 0.60);
    ok &= gateMin("sim storm adapt retires workers", min_retires, 1.0);
    ok &= gateMin("sim storm stolen cycles billed", min_stolen, 1.0);
    ok &= gateMin("sim storm slowed cycles billed", min_slowed, 1.0);
    ok &= gateMin("sim window reexpands covers retires",
                  min_window_margin, 0.0);

    // ---- Threaded rows + gates ----
    if (!args.skip_threaded) {
        const int host_cpus = hostCpuCount();
        if (host_cpus < kWorkers + 2) {
            std::printf("\nThreaded interference skipped: %d host CPUs "
                        "< %d (need %d pinned workers + headroom)\n",
                        host_cpus, kWorkers + 2, kWorkers);
        } else {
            // Calibrate capacity with clean pinned workers (the probe
            // jobs double as the warm-up), then drive at a rate the
            // squeezed Adapt worker-set still absorbs (about 0.73x its
            // capacity), so Off's p99 shows the 3x claim tail rather
            // than an unstable queue in both runs.
            // Spin instead of idle-parking: a parked worker's ~ms wake
            // latency is tail noise the comparison must not carry.
            // Retirement parks through its own path.
            RuntimeOptions pinned = servingOptions(kWorkers, true);
            pinned.pinThreads = true;
            const double capacity_per_s =
                calibrateHost(pinned, 1, 8, 64, submitSerialJob)
                    .capacity_per_s;
            const double rate = 0.55 * capacity_per_s;
            const int n_jobs = std::max(
                300, std::min(6000, static_cast<int>(3.0 * rate)));
            std::printf("\nThreaded interference, %d pinned workers, "
                        "%d co-runners on cpu %d (capacity %.0f "
                        "jobs/s, rate %.0f):\n",
                        kWorkers, kCorunners, kSqueezedCpu,
                        capacity_per_s, rate);

            Table tt({"knob", "p99us", "q99us", "done", "retires",
                      "reinst", "reexpanded"});
            std::vector<double> off_p99, adapt_p99;
            double t_retires = 0.0;
            bool reexpand_ok = true;
            for (const bool adapt : {false, true}) {
                RuntimeOptions o = pinned;
                o.sched.serving.interference =
                    adapt ? InterferencePolicy::Adapt
                          : InterferencePolicy::Off;
                // A long cool streak makes the re-expansion probe rare:
                // under a sustained squeeze the retired worker wakes to
                // claim for only a few epochs every ~0.7s, so well
                // under 1% of jobs land on the squeezed CPU and the
                // p99 stays clean. Post-storm it bounds re-expansion
                // latency at ~0.7s, far inside the gate's 30s wait.
                o.sched.serving.interferenceExpandEpochs = 128;
                Runtime rt(o);
                double p99 = 0.0, q99 = 0.0, done = 0.0;
                double k_retires = 0.0, k_reinst = 0.0;
                for (int rep = 0; rep < args.reps; ++rep) {
                    CoRunners squeeze(kCorunners, kSqueezedCpu);
                    const ServingTally r =
                        runSqueezed(rt, rate, n_jobs, args.repSeed(rep));
                    squeeze.stop();
                    // Post-storm: with the co-runners gone the probe
                    // epoch reads calm and the cool streak must
                    // reinstate every retired worker.
                    if (adapt) {
                        const int64_t deadline =
                            nowNs() + 30'000'000'000LL;
                        while (rt.retiredWorkers() > 0
                               && nowNs() < deadline)
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(10));
                        reexpand_ok &= rt.retiredWorkers() == 0;
                    }
                    const WorkerCounters c = rt.stats().counters;
                    (adapt ? adapt_p99 : off_p99).push_back(r.p99_us);
                    k_retires += static_cast<double>(c.interferenceRetires);
                    k_reinst +=
                        static_cast<double>(c.interferenceReinstates);
                    if (adapt)
                        t_retires +=
                            static_cast<double>(c.interferenceRetires);
                    p99 += r.p99_us / args.reps;
                    q99 += r.queue_p99_us / args.reps;
                    done += static_cast<double>(r.done) / args.reps;
                    report.addRow(
                        interferenceRow("threaded", "squeeze",
                                        adapt ? "adapt" : "off",
                                        "corunner", kCorunners, kWorkers,
                                        args.repSeed(rep), r)
                            .set("retires", c.interferenceRetires)
                            .set("reexpands", c.interferenceReinstates)
                            .set("stolen_cycles", uint64_t{0})
                            .set("slowed_cycles", uint64_t{0})
                            .set("rep", rep));
                }
                tt.addRow({adapt ? "adapt" : "off", cell(p99), cell(q99),
                           cell(done), cell(k_retires), cell(k_reinst),
                           adapt ? (reexpand_ok ? "yes" : "NO") : "-"});
            }
            tt.print();

            // Catastrophe floors on rep medians: the squeezed worker
            // claims ~a quarter of Off's jobs at ~3x, so Off's p99
            // rides the slow tail while a converged Adapt run's p99 is
            // a clean job away from it.
            std::printf("\nThreaded interference gates:\n");
            ok &= gateMax("threaded adapt/off p99 (rep medians)",
                          exactQuantile(adapt_p99, 0.5)
                              / std::max(1e-9,
                                         exactQuantile(off_p99, 0.5)),
                          0.80);
            ok &= gateMin("threaded adapt retires under squeeze",
                          t_retires, 1.0);
            ok &= gateHolds("threaded full re-expansion after co-runners",
                            reexpand_ok);
        }
    }

    return finishReport(report, args.json_path, ok, "interference");
}
