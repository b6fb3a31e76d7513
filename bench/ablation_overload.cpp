/**
 * @file
 * Overload-protection rows: the PR 7 admission/shedding machinery driven
 * past capacity in both engines.
 *
 * A mixed fib/heat/matmul job stream (classes round-robin: Latency,
 * Normal, Batch) arrives Poisson at two rates — "half" (~50%
 * utilization, the uncontended comparator) and "2x" (twice service
 * capacity, sustained overload) — under three shed configs: `none`
 * (PR 6 behavior: queues grow without bound), `reject` (per-lane
 * capacity bounce at submit), and `queue_delay` (CoDel-style: shed from
 * the lowest class while any class's claim-delay EWMA sits above
 * target). A fourth row set gives half the jobs deadlines so expiry
 * shows up in the tallies.
 *
 * The open-loop driver (job mixes, arrivals, the tally, threaded runs and
 * calibration) is serving_driver.h; this file holds the job bodies, scenario
 * table and gates.
 *
 *   ./ablation_overload [--scale=0.25] [--cores=32] [--seeds=3]
 *                       [--seed=first] [--threads=2] [--reps=5]
 *                       [--skip-threaded] [--json=BENCH_overload.json]
 *
 * Exits nonzero unless (both engines; threaded gates use medians over
 * --reps so one noisy rep cannot flip the verdict):
 *  1. protection: queue_delay@2x keeps the Latency-class p99 within
 *     1.25x the uncontended (none@half) Latency-class p99,
 *  2. goodput: queue_delay@2x completes >= 0.9x the jobs/sec the
 *     saturated none@2x run does (shedding must not cost throughput),
 *  3. collapse: doubling the arrival window grows the none@2x queue
 *     p99 >= 1.30x, while queue_delay@2x's grows <= 1.25x,
 *  4. sim rows are byte-identical across repeated runs of one seed,
 *  5. deadline rows under overload actually expire jobs (tallies move).
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

/** Fraction of the arrival stream a deadline row gives deadlines to. */
constexpr double kDeadlineFrac = 0.5;

/** Does job @p i of a deadline row carry a deadline? */
bool
deadlined(int i)
{
    return static_cast<double>(i % 100) < kDeadlineFrac * 100.0;
}

/**
 * Shed configuration named in the rows. Delay targets scale with the
 * engine's expected per-job *latency* (service time as experienced, not
 * total work) so the same knobs work for microsecond sim jobs spread
 * over 32 cores and the slower threaded bodies: the Latency class
 * tolerates ~2 jobs' worth of delay before shedding starts, lower
 * classes 4x/16x that (shedding victimizes them first anyway).
 */
ServingPolicy
servingFor(const std::string &shed, double lat_us, double norm_us,
           double batch_us, int lane_cap)
{
    ServingPolicy p;
    if (shed == "reject") {
        p.shed = ShedPolicy::Reject;
        for (int c = 0; c < kNumServingClasses; ++c)
            p.laneCapacity[c] = lane_cap;
    } else if (shed == "queue_delay") {
        p.shed = ShedPolicy::QueueDelay;
        p.queueDelayTargetUs[0] = std::max(1, static_cast<int>(lat_us));
        p.queueDelayTargetUs[1] =
            std::max(1, static_cast<int>(norm_us));
        p.queueDelayTargetUs[2] =
            std::max(1, static_cast<int>(batch_us));
    }
    return p;
}

/** Overload scenario: rate multiple of capacity, shed config, and
 * whether the deadlined() jobs carry deadlines. Both engines run the
 * same table. */
struct Scenario
{
    const char *rate_name;
    double util;
    std::string shed;
    bool deadlines = false;
};

/** One overload row of either engine, rendered before provenance
 * stamping so the determinism gate can compare raw bytes. `shed` names
 * the policy; the evicted-job count is `shed_jobs`. */
JsonRow
overloadRow(const char *engine, const Scenario &sc, int cores_or_workers,
            uint64_t seed, const ServingTally &t)
{
    JsonRow row;
    row.set("engine", engine)
        .set("workload", "mixed")
        .set("mix", "mixed")
        .set("rate", sc.rate_name)
        .set("arrivals", "poisson")
        .set("shed", sc.shed)
        .set("deadline_frac", sc.deadlines ? kDeadlineFrac : 0.0)
        .set(std::string(engine) == "sim" ? "cores" : "workers",
             cores_or_workers)
        .set("seed", seed);
    return t.put(row, {"jobs", "arrival_per_s", "elapsed_s", "p50_us",
                       "p99_us", "lat_p99_us", "queue_p50_us",
                       "queue_p99_us", "goodput", "shed_frac", "done",
                       "expired", "cancelled", "rejected", "shed_jobs"});
}

// ---------------------------------------------------------------------
// Sim side
// ---------------------------------------------------------------------

SimJobMix
buildSimMix(int jobs, int sockets)
{
    std::vector<sim::ComputationDag> kinds; // index = class
    // Latency-class requests are a single serial block (block == n) so
    // their execution time is load-independent: what the protection
    // gate measures is queueing, not intra-job parallelism starved by
    // a saturated machine (no admission policy can return that).
    MatmulParams serial_mm;
    serial_mm.n = 64;
    serial_mm.block = 64;
    kinds.push_back(
        matmulDag(serial_mm, sockets, Placement::FirstTouch, false));
    // Normal and Batch are parallel with small leaf frames (frequent
    // scheduling points), sized within ~2x of the Latency job's work so
    // job-count goodput is not skewed by which class the shedder
    // victimizes.
    HeatParams heat;
    heat.nx = 64;
    heat.ny = 64;
    heat.steps = 8;
    heat.baseRows = 16;
    kinds.push_back(
        heatDag(heat, sockets, Placement::Partitioned, true)); // Normal
    MatmulParams mm;
    mm.n = 64;
    mm.block = 16;
    kinds.push_back(
        matmulDag(mm, sockets, Placement::FirstTouch, false)); // Batch
    SimJobMix mix;
    for (int i = 0; i < jobs; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(i) % kinds.size();
        mix.add(kinds[k], static_cast<int>(k), deadlined(i));
    }
    return mix;
}

ServingTally
runSimScenario(const SimJobMix &mix, const Scenario &sc,
               const Machine &machine, int cores, uint64_t seed)
{
    const sim::ArrivalProcess p =
        mix.arrivals(sc.util, cores, machine.ghz(), seed);
    // Deadline ~2x the mean job's work: generous uncontended, hopeless
    // once the unprotected queue has grown for a while.
    const auto jobs = mix.arrive(
        p, machine.ghz(), sc.deadlines ? 2.0 * mix.meanJobCycles : 0.0);
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.seed = seed;
    // Latency target ~4 per-core service times: loose enough that the
    // regulated queue keeps standing (a near-empty queue lets the
    // server idle on arrival variance and costs goodput), tight enough
    // to bound the delay well under the unprotected collapse.
    const double mean_lat_us =
        mix.meanJobCycles / machine.ghz() / 1000.0 / cores;
    cfg.sched.serving = servingFor(
        sc.shed, 4.0 * mean_lat_us, 16.0 * mean_lat_us,
        64.0 * mean_lat_us, std::max(2, cores / 4));
    return ServingTally(
        sim::simulateServing(mix.dag, jobs, machine, cores, cfg),
        mix.classes, machine.ghz(), p.ratePerSec);
}

// ---------------------------------------------------------------------
// Threaded side: the job bodies live in serving_driver.h (the library
// helpers wrap rt.run() and cannot be called from inside a job).
// ---------------------------------------------------------------------

/** Class mix mirrors buildSimMix: jobs are sized in the hundreds of
 * microseconds so overload queue delays (tens of ms) clear the host's
 * park/wake noise floor (~1-2ms on a shared CI core) by an order of
 * magnitude, and the three classes carry comparable work so job-count
 * goodput is not skewed by which class the shedder victimizes. */
JobHandle
submitJob(Runtime &rt, int i, int64_t deadline_ns)
{
    JobOptions opts;
    opts.deadlineNs = deadline_ns;
    switch (i % 3) {
      case 0:
        opts.cls = JobClass::Latency;
        return rt.submit([] {
            g_sink.store(matmulSerialJob(96),
                         std::memory_order_relaxed);
        }, opts);
      case 1:
        opts.cls = JobClass::Normal;
        opts.place = static_cast<Place>(i % rt.numPlaces());
        return rt.submit([] {
            g_sink.store(heatJob(128, 128, 32),
                         std::memory_order_relaxed);
        }, opts);
      default:
        opts.cls = JobClass::Batch;
        return rt.submit([] {
            g_sink.store(matmulJob(96), std::memory_order_relaxed);
        }, opts);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const ServingArgs args(cli, "BENCH_overload.json", /*reps=*/5,
                           hostWorkers());
    const int threads = args.threads;
    const int sockets = socketsFor(args.cores);
    const int sim_jobs = args.scale >= 1.0 ? 480 : 240;

    const Scenario scenarios[] = {
        {"half", 0.5, "none"},
        {"2x", 2.0, "none"},
        {"2x", 2.0, "reject"},
        {"2x", 2.0, "queue_delay"},
        {"2x", 2.0, "none", /*deadlines=*/true},
    };

    JsonReport report;
    bool ok = true;

    // ---- Simulated overload rows + deterministic gates ----
    const Machine machine = Machine::paperMachineSubset(args.cores);
    const SimJobMix mix = buildSimMix(sim_jobs, sockets);
    std::printf("Simulated overload, %d cores, %d jobs:\n", args.cores,
                sim_jobs);
    Table t({"rate", "shed", "ddl", "latp99us", "qp99us", "goodput/s",
             "done", "shed#", "expired"});
    double base_lat_p99 = 0.0;      // none@half latency-class p99
    double none2x_goodput = 0.0;    // saturated throughput comparator
    double qd2x_lat_p99 = 0.0;
    double qd2x_goodput = 0.0;
    uint64_t ddl_expired = 0;
    for (const Scenario &sc : scenarios) {
        double lat_p99 = 0.0, qp99 = 0.0, goodput = 0.0;
        double done = 0.0, shed = 0.0, expired = 0.0;
        for (int s = 0; s < args.num_seeds; ++s) {
            const uint64_t seed = args.seed(s);
            const ServingTally run =
                runSimScenario(mix, sc, machine, args.cores, seed);
            report.addRow(overloadRow("sim", sc, args.cores, seed, run));
            lat_p99 += run.lat_p99_us / args.num_seeds;
            qp99 += run.queue_p99_us / args.num_seeds;
            goodput += run.goodput / args.num_seeds;
            done += static_cast<double>(run.done) / args.num_seeds;
            shed += static_cast<double>(run.shed) / args.num_seeds;
            expired += static_cast<double>(run.expired) / args.num_seeds;
            ddl_expired += sc.deadlines ? run.expired : 0;
        }
        t.addRow({sc.rate_name, sc.shed, sc.deadlines ? "yes" : "no",
                  cell(lat_p99), cell(qp99), cell(goodput), cell(done),
                  cell(shed), cell(expired)});
        if (sc.shed == "none" && sc.util == 0.5)
            base_lat_p99 = lat_p99;
        if (sc.shed == "none" && sc.util == 2.0 && !sc.deadlines)
            none2x_goodput = goodput;
        if (sc.shed == "queue_delay") {
            qd2x_lat_p99 = lat_p99;
            qd2x_goodput = goodput;
        }
    }
    t.print();

    // Determinism: the same seeded overload run, repeated, must render
    // byte-identical rows (admission, shedding, and expiry decisions
    // all replay exactly).
    {
        const Scenario sc = {"2x", 2.0, "queue_delay", true};
        const auto row = [&] {
            return overloadRow("sim", sc, args.cores, args.first_seed,
                               runSimScenario(mix, sc, machine,
                                              args.cores,
                                              args.first_seed));
        };
        ok &= gateIdentical("sim overload rows byte-identical", row(),
                            row());
    }

    // Unbounded vs bounded growth, by horizon doubling: run none@2x
    // and queue_delay@2x again with twice the arrival window. Without
    // protection the tail queue delay keeps growing with the horizon;
    // with QueueDelay shedding the one-in-one-out regulator pins it.
    double grow_none = 0.0, grow_qd = 0.0;
    {
        const SimJobMix mix2 = buildSimMix(sim_jobs * 2, sockets);
        const Scenario none2x = {"2x", 2.0, "none"};
        const Scenario qd2x = {"2x", 2.0, "queue_delay"};
        const auto qp99 = [&](const SimJobMix &m, const Scenario &sc,
                              uint64_t seed) {
            return runSimScenario(m, sc, machine, args.cores, seed)
                .queue_p99_us;
        };
        for (int s = 0; s < args.num_seeds; ++s) {
            const uint64_t seed = args.seed(s);
            grow_none += qp99(mix2, none2x, seed)
                         / std::max(1e-9, qp99(mix, none2x, seed))
                         / args.num_seeds;
            grow_qd += qp99(mix2, qd2x, seed)
                       / std::max(1e-9, qp99(mix, qd2x, seed))
                       / args.num_seeds;
        }
    }

    std::printf("\nSim overload gates:\n");
    ok &= gateMax("sim queue_delay@2x / none@half latency p99",
                  qd2x_lat_p99 / std::max(1e-9, base_lat_p99), 1.25);
    ok &= gateMin("sim queue_delay@2x / none@2x goodput",
                  qd2x_goodput / std::max(1e-9, none2x_goodput), 0.90);
    ok &= gateMin("sim none@2x queue p99 growth at 2x horizon",
                  grow_none, 1.30);
    ok &= gateMax("sim queue_delay@2x queue p99 growth at 2x horizon",
                  grow_qd, 1.25);
    ok &= gateMin("sim deadline rows expire jobs",
                  static_cast<double>(ddl_expired), 1.0);

    // ---- Threaded overload rows + gates ----
    if (!args.skip_threaded) {
        const int n_half = args.scale >= 1.0 ? 200 : 100;
        const int n_over = args.scale >= 1.0 ? 600 : 300;

        // The serial per-job mean sets the latency targets, while the
        // burst capacity sets the jobs/s the open-loop rates are
        // scaled from.
        const HostCalibration cal = calibrateHost(
            servingOptions(threads, true), 0, 30, 60,
            [](Runtime &rt, int i) { return submitJob(rt, i, 0); });
        const double mean_job_us = cal.mean_job_s * 1e6;
        std::printf("\nThreaded overload, %d workers (mean job "
                    "%.0fus, capacity %.0f jobs/s):\n",
                    threads, mean_job_us, cal.capacity_per_s);

        // One tally per rep for each scenario (order as `scenarios`).
        std::vector<ServingTally> runs[5];
        const auto median = [&runs](int si, double ServingTally::*f) {
            std::vector<double> v;
            for (const ServingTally &r : runs[si])
                v.push_back(r.*f);
            return exactQuantile(v, 0.5);
        };
        // Pooled over reps: tighter than a median of per-run ratios on
        // a noisy host.
        const auto pooledGoodput = [&runs](int si) {
            double done = 0.0, elapsed = 0.0;
            for (const ServingTally &r : runs[si]) {
                done += static_cast<double>(r.done);
                elapsed += r.elapsed_s;
            }
            return done / std::max(1e-9, elapsed);
        };
        Table tt({"rate", "shed", "ddl", "latp99us", "qp99us",
                  "goodput/s", "shed%", "expired"});
        for (int si = 0; si < 5; ++si) {
            const Scenario &sc = scenarios[si];
            const double rate = sc.util * cal.capacity_per_s;
            const int n_jobs = sc.util < 1.0 ? n_half : n_over;
            // Threaded targets sit above the host's park/wake noise
            // floor (hundreds of us on a shared CI core): below it
            // the EWMA reads permanently overloaded and the shedder
            // regulates the queue to empty, idling the worker between
            // wakes. The ladder is deliberately flat (1x/2x/4x, not
            // 1x/4x/16x): a 16x batch target would let the batch lane
            // legally carry most of the unprotected collapse.
            // 8x the mean job: at 2x overload the one-in-one-out
            // regulator sheds ~one victim per admission while the EWMA
            // sits above target; a tighter target keeps it above for
            // longer than the backlog justifies (EWMA lag) and pushes
            // the shed fraction past 50%, which directly costs goodput
            // (done ~ (1 - shed_frac) * 2 * capacity * window).
            // Spin instead of parking, like the calibration runtime:
            // under QueueDelay the regulated queue occasionally runs
            // dry and a parked worker charges its ~ms wake latency to
            // the next latency-class job — a cost the never-empty
            // `none` rows never pay, which skews the comparison.
            RuntimeOptions o = servingOptions(threads, true);
            const double lat_t = std::max(2000.0, 8.0 * mean_job_us);
            o.sched.serving = servingFor(sc.shed, lat_t, 2.0 * lat_t,
                                         4.0 * lat_t, 4 * threads);
            Runtime rt(o);
            const int64_t deadline_ns =
                static_cast<int64_t>(8.0 * mean_job_us * 1000.0);
            const auto warm = [&rt] {
                for (int i = 0; i < 12; ++i)
                    submitJob(rt, i, 0).wait();
            };
            const auto submit = [&](int i) {
                const bool ddl = sc.deadlines && deadlined(i);
                return submitJob(rt, i, ddl ? deadline_ns : 0);
            };
            double expired = 0.0, qp99 = 0.0;
            for (int rep = 0; rep < args.reps; ++rep) {
                const OpenLoopRun run = runOpenLoop(
                    rt, rate, n_jobs, args.repSeed(rep), warm, submit);
                const ServingTally &r = run.tally;
                runs[si].push_back(r);
                expired += static_cast<double>(r.expired) / args.reps;
                qp99 += r.queue_p99_us / args.reps;
                report.addRow(overloadRow("threaded", sc, threads,
                                          args.repSeed(rep), r)
                                  .set("rep", rep));
            }
            tt.addRow({sc.rate_name, sc.shed, sc.deadlines ? "yes" : "no",
                       cell(median(si, &ServingTally::lat_p99_us)),
                       cell(qp99), cell(median(si, &ServingTally::goodput)),
                       cell(median(si, &ServingTally::shed_frac) * 100.0),
                       cell(expired)});
        }
        tt.print();

        // Medians over reps: scenario order matches `scenarios`.
        const double t_none2x_lat = median(1, &ServingTally::lat_p99_us);
        const double t_none2x_good = pooledGoodput(1);
        const double t_none2x_qp99 = median(1, &ServingTally::queue_p99_us);
        const double t_qd_lat = median(3, &ServingTally::lat_p99_us);
        const double t_qd_good = pooledGoodput(3);
        const double t_qd_qp99 = median(3, &ServingTally::queue_p99_us);
        const double t_ddl_expired =
            static_cast<double>(runs[4].back().expired);

        // Threaded thresholds are deliberately looser than the sim's
        // (1.25x latency, 0.90 goodput): those exact bounds are
        // enforced byte-deterministically above, while a shared 1-2
        // core CI host swings both wall-clock ratios by +/-40% run to
        // run. These gates catch the catastrophic failure modes — the
        // latency one compares against the *unprotected* 2x run
        // (shed victims come from the lowest nonempty lane, always
        // Batch at 2x, so admission control cannot reduce the Latency
        // class's own-lane M/G/1 queueing on a single-server host)
        // and asserts protection adds no latency tax on the class it
        // protects; the goodput one asserts shedding does not starve
        // the server of work (the empty-queue self-shed bug this
        // guards against read ~0.0 here, so 0.60 keeps an order of
        // magnitude of margin over the true failure mode).
        std::printf("\nThreaded overload gates:\n");
        ok &= gateMax("threaded queue_delay@2x / none@2x latency p99",
                      t_qd_lat / std::max(1e-9, t_none2x_lat), 2.0);
        ok &= gateMin("threaded queue_delay@2x / none@2x goodput",
                      t_qd_good / std::max(1e-9, t_none2x_good), 0.60);
        ok &= gateMin("threaded none@2x / queue_delay@2x queue p99",
                      t_none2x_qp99 / std::max(1e-9, t_qd_qp99), 2.0);
        ok &= gateMin("threaded deadline rows expire jobs",
                      t_ddl_expired, 1.0);
    }

    return finishReport(report, args.json_path, ok, "overload");
}
