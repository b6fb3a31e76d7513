/**
 * @file
 * Preemption/aging/unpark rows: the PR 8 latency-class machinery driven
 * through saturation in both engines.
 *
 * Scenarios (sim; the threaded side mirrors the first two and `flood`):
 *  - `uncontended`: a sparse Latency-only stream — the comparator every
 *    protection claim is measured against.
 *  - `saturated`: 7-in-8 long spawn-dense Batch jobs keep every core
 *    busy; the 1-in-8 Latency arrivals raise the cooperative yield
 *    directive when ServingPolicy::preempt is on, so their queue wait is
 *    bounded by one task body instead of one whole Batch job.
 *  - `flood`: a sustained Normal-class stream (1.5x capacity) starves
 *    the occasional deadlined Batch job; ServingPolicy::agingWaitUs lets
 *    the starved Batch head's effective class rise past the fresher
 *    Normal lane so it completes before its deadline.
 *  - `ramp`: QueueDelay shedding at 2x with ServingPolicy::unparkLeadPct
 *    set — the delay-EWMA pressure signal must fire no later than the
 *    shed threshold itself crosses (the elastic pool's early warning).
 *
 * The open-loop driver (job mixes, arrivals, the tally, threaded runs and
 * calibration) is serving_driver.h; this file holds the job bodies, scenario
 * table and gates.
 *
 *   ./ablation_preempt [--scale=0.25] [--cores=32] [--seeds=3]
 *                      [--seed=first] [--threads=2] [--reps=3]
 *                      [--skip-threaded] [--json=BENCH_preempt.json]
 *
 * Exits nonzero unless (sim gates are byte-deterministic per seed;
 * threaded gates are loose catastrophe floors — see the comment at the
 * threaded gate block):
 *  1. preemption: saturated preempt-on Latency-class p99 stays within
 *     1.3x the uncontended Latency-class p99, and yields were serviced,
 *  2. aging: the flood expires Batch jobs with aging off, completes
 *     more of them with aging on, and the promoted claims are counted,
 *  3. unpark lead: the pressure signal fires, the shed threshold
 *     crosses, and pressure fires no later than the crossing,
 *  4. sim rows with every knob on are byte-identical across repeated
 *     runs of one seed (preemption and aging replay exactly).
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
// Sim side
// ---------------------------------------------------------------------

enum class MixKind { LatencyOnly, Saturated, Flood };

SimJobMix
buildPreemptMix(MixKind kind, int jobs, int sockets)
{
    // Latency: one serial block (block == n), so execution time is
    // load-independent — what the preemption gate measures is queue
    // wait, not intra-job parallelism starved by a saturated machine.
    MatmulParams lat_mm;
    lat_mm.n = 64;
    lat_mm.block = 64;
    const auto lat =
        matmulDag(lat_mm, sockets, Placement::FirstTouch, false);
    // Batch: ~8x the Latency job's work with small blocks, so a core
    // stuck inside one passes many Spawn boundaries — the preemption
    // bound (one task body) is much tighter than the whole-job bound.
    MatmulParams batch_mm;
    batch_mm.n = 128;
    batch_mm.block = 16;
    const auto batch =
        matmulDag(batch_mm, sockets, Placement::FirstTouch, false);
    // Normal: the flood filler, boundary-dense like the overload mix.
    HeatParams heat;
    heat.nx = 64;
    heat.ny = 64;
    heat.steps = 8;
    heat.baseRows = 16;
    const auto normal =
        heatDag(heat, sockets, Placement::Partitioned, true);
    // The flood's starved job: a *small* serial block (~4 per-core
    // service times of wall time), so its deadline measures queue
    // starvation — a large parallel job would blow any deadline on
    // execution time alone once the flood starves it of cores, which
    // no claim-ordering policy can repair.
    MatmulParams starved_mm;
    starved_mm.n = 32;
    starved_mm.block = 32;
    const auto starved =
        matmulDag(starved_mm, sockets, Placement::FirstTouch, false);

    SimJobMix mix;
    for (int i = 0; i < jobs; ++i) {
        switch (kind) {
          case MixKind::LatencyOnly:
            mix.add(lat, 0);
            break;
          case MixKind::Saturated:
            if (i % 8 == 0)
                mix.add(lat, 0);
            else
                mix.add(batch, 2);
            break;
          case MixKind::Flood:
            // i%16==8 (not 0): the first deadlined Batch job lands
            // after the Normal backlog is already standing, so the
            // aging-off run shows starvation from the first sample.
            if (i % 16 == 8)
                mix.add(starved, 2, /*ddl=*/true);
            else
                mix.add(normal, 1);
            break;
        }
    }
    return mix;
}

struct PreemptScenario
{
    const char *name;
    MixKind mix;
    double util;
    std::string shed; ///< "none" or "queue_delay"
    bool preempt = false;
    /** Aging step in per-core service times (meanJobCycles / cores);
     * 0 = off. Must sit *above* the flood lane's own head-wait scale:
     * every lane ages, and the effective-class tie-break prefers the
     * nominal class, so a step smaller than the Normal head's typical
     * wait promotes the flood right alongside the starved Batch head
     * and restores strict priority. Sized between the two wait scales
     * (Normal head ~ backlog growth, Batch head ~ the whole window),
     * only the Batch lane reaches the promoted class in time. */
    double agingSvc = 0.0;
    int unparkPct = 0;
    bool parking = false;
    /** Deadline on marked Batch jobs, same service-time units; 0 =
     * none. Sized so the aged claim (two aging steps plus slack) makes
     * it and the starved aging-off head cannot. */
    double deadlineSvc = 0.0;
};

/** One preemption row of either engine, up to the Batch-class
 * outcomes; the caller appends the engine's yield/aging/unpark
 * counters. */
JsonRow
preemptRow(const char *engine, const PreemptScenario &sc, int aging_us,
           int cores_or_workers, uint64_t seed, const ServingTally &t)
{
    JsonRow row;
    row.set("engine", engine)
        .set("workload", "preempt_mix")
        .set("scenario", sc.name)
        .set("preempt", sc.preempt)
        // `aging` is the identity (stable across runs); `aging_us` is a
        // measurement — the threaded step is calibrated per host.
        .set("aging", aging_us > 0)
        .set("aging_us", aging_us)
        .set("unpark_pct", sc.unparkPct)
        .set("shed", sc.shed)
        .set("arrivals", "poisson")
        .set(std::string(engine) == "sim" ? "cores" : "workers",
             cores_or_workers)
        .set("seed", seed);
    return t
        .put(row, {"jobs", "arrival_per_s", "elapsed_s", "p99_us",
                   "lat_p99_us", "queue_p99_us", "goodput", "done",
                   "expired"})
        .set("batch_done", t.classCount(2, JobOutcome::Done))
        .set("batch_expired", t.classCount(2, JobOutcome::Expired));
}

struct PreemptRun
{
    sim::ServingResult r;
    ServingTally tally;
    int agingUs = 0;

    /** The row, rendered before provenance stamping so the determinism
     * gate can compare raw bytes. */
    JsonRow
    row(const PreemptScenario &sc, int cores, uint64_t seed) const
    {
        return preemptRow("sim", sc, agingUs, cores, seed, tally)
            .set("yields", r.sim.counters.yields)
            .set("aged_claims", r.sim.counters.agedClaims)
            .set("unpark_at_cycles", r.sim.firstUnparkPressureCycles)
            .set("shed_cross_cycles", r.sim.firstShedCrossCycles);
    }
};

PreemptRun
runPreemptScenario(const SimJobMix &mix, const PreemptScenario &sc,
                   const Machine &machine, int cores, uint64_t seed)
{
    const sim::ArrivalProcess p =
        mix.arrivals(sc.util, cores, machine.ghz(), seed);
    // One per-core service time: the mean inter-completion gap at
    // capacity, the natural unit for deadlines and aging steps.
    const double svc_cycles = mix.meanJobCycles / cores;
    const auto jobs =
        mix.arrive(p, machine.ghz(), sc.deadlineSvc * svc_cycles);
    sim::SimConfig cfg;
    cfg.modelParking = sc.parking;
    cfg.sched.parkSpinFailures = 4;
    cfg.seed = seed;
    const double svc_us = svc_cycles / machine.ghz() / 1000.0;
    ServingPolicy pol;
    if (sc.shed == "queue_delay") {
        pol.shed = ShedPolicy::QueueDelay;
        // A flat ladder (4x/8x/16x, tighter than the overload bench's)
        // so the Batch EWMA actually crosses its target inside the
        // arrival window — the ramp gate needs the crossing to happen,
        // not just the 50% early warning.
        pol.queueDelayTargetUs[0] =
            std::max(1, static_cast<int>(4.0 * svc_us));
        pol.queueDelayTargetUs[1] =
            std::max(1, static_cast<int>(8.0 * svc_us));
        pol.queueDelayTargetUs[2] =
            std::max(1, static_cast<int>(16.0 * svc_us));
    }
    pol.preempt = sc.preempt;
    if (sc.agingSvc > 0.0)
        pol.agingWaitUs =
            std::max(1, static_cast<int>(sc.agingSvc * svc_us));
    pol.unparkLeadPct = sc.unparkPct;
    cfg.sched.serving = pol;
    PreemptRun run;
    run.agingUs = pol.agingWaitUs;
    run.r = sim::simulateServing(mix.dag, jobs, machine, cores, cfg);
    run.tally = ServingTally(run.r, mix.classes, machine.ghz(),
                             p.ratePerSec);
    return run;
}

// ---------------------------------------------------------------------
// Threaded side: the job bodies live in serving_driver.h. The Batch
// body (heatJob) is boundary-dense (many spawns per step) so a raised
// yield directive is observed within a fraction of the job, and the
// Latency body (matmulSerialJob) is a single serial block so its
// execution time is load-independent.
// ---------------------------------------------------------------------

/** Submit one job of the scenario's mix. Saturated: 1-in-8 Latency
 * serial blocks amid spawn-dense Batch heat; Flood: a Normal-class
 * heat stream with a deadlined Batch job every 16th slot. */
JobHandle
submitPreemptJob(Runtime &rt, MixKind kind, int i, int64_t deadline_ns)
{
    JobOptions opts;
    if (kind == MixKind::Saturated && i % 8 == 0) {
        opts.cls = JobClass::Latency;
        return rt.submit([] {
            g_sink.store(matmulSerialJob(64),
                         std::memory_order_relaxed);
        }, opts);
    }
    if (kind == MixKind::Flood && i % 16 != 8) {
        opts.cls = JobClass::Normal;
        opts.place = static_cast<Place>(i % rt.numPlaces());
        return rt.submit([] {
            g_sink.store(heatJob(128, 128, 16),
                         std::memory_order_relaxed);
        }, opts);
    }
    opts.cls = JobClass::Batch;
    opts.deadlineNs = deadline_ns;
    return rt.submit([] {
        g_sink.store(heatJob(128, 128, 16),
                     std::memory_order_relaxed);
    }, opts);
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const ServingArgs args(cli, "BENCH_preempt.json", /*reps=*/3,
                           hostWorkers());
    const int threads = args.threads;
    const int sockets = socketsFor(args.cores);
    const int sim_jobs = args.scale >= 1.0 ? 480 : 240;

    const PreemptScenario scenarios[] = {
        {"uncontended", MixKind::LatencyOnly, 0.25, "none"},
        {"saturated", MixKind::Saturated, 1.5, "none",
         /*preempt=*/false},
        {"saturated", MixKind::Saturated, 1.5, "none",
         /*preempt=*/true},
        {"flood", MixKind::Flood, 0.7, "none", false, /*agingSvc=*/0,
         0, false, /*deadlineSvc=*/60.0},
        {"flood", MixKind::Flood, 0.7, "none", false, /*agingSvc=*/15,
         0, false, /*deadlineSvc=*/60.0},
        {"ramp", MixKind::Saturated, 2.0, "queue_delay", false, false,
         /*unparkPct=*/50, /*parking=*/true},
    };

    JsonReport report;
    bool ok = true;

    // ---- Simulated rows + deterministic gates ----
    const Machine machine = Machine::paperMachineSubset(args.cores);
    const SimJobMix mixes[3] = {
        buildPreemptMix(MixKind::LatencyOnly, sim_jobs, sockets),
        buildPreemptMix(MixKind::Saturated, sim_jobs, sockets),
        buildPreemptMix(MixKind::Flood, sim_jobs, sockets),
    };
    const auto mixFor = [&](MixKind k) -> const SimJobMix & {
        return mixes[static_cast<int>(k)];
    };
    std::printf("Simulated preemption, %d cores, %d jobs:\n",
                args.cores, sim_jobs);
    Table t({"scenario", "preempt", "aging", "latp99us", "yields",
             "aged", "bdone", "bexpired"});
    double base_lat_p99 = 0.0;    // uncontended Latency p99
    double off_lat_p99 = 0.0, on_lat_p99 = 0.0;
    double on_yields = 0.0;
    double off_batch_done = 0.0, on_batch_done = 0.0;
    double off_batch_expired = 0.0;
    double on_aged = 0.0;
    double ramp_unpark = 0.0, ramp_cross = 0.0;
    bool ramp_lead_ok = true;
    const double n = args.num_seeds;
    for (const PreemptScenario &sc : scenarios) {
        double lat_p99 = 0.0, yields = 0.0, aged = 0.0;
        double bdone = 0.0, bexpired = 0.0;
        int aging_us = 0;
        for (int s = 0; s < args.num_seeds; ++s) {
            const uint64_t seed = args.seed(s);
            const PreemptRun run = runPreemptScenario(
                mixFor(sc.mix), sc, machine, args.cores, seed);
            const sim::SimResult &r = run.r.sim;
            report.addRow(run.row(sc, args.cores, seed));
            lat_p99 += run.tally.lat_p99_us / n;
            yields += static_cast<double>(r.counters.yields) / n;
            aged += static_cast<double>(r.counters.agedClaims) / n;
            bdone += static_cast<double>(
                         run.tally.classCount(2, JobOutcome::Done))
                     / n;
            bexpired += static_cast<double>(run.tally.classCount(
                            2, JobOutcome::Expired))
                        / n;
            aging_us = run.agingUs;
            if (std::string(sc.name) == "ramp") {
                ramp_unpark +=
                    static_cast<double>(r.firstUnparkPressureCycles) / n;
                ramp_cross +=
                    static_cast<double>(r.firstShedCrossCycles) / n;
                // Lead is a per-seed ordering claim, not an average.
                ramp_lead_ok &= r.firstUnparkPressureCycles > 0
                                && r.firstUnparkPressureCycles
                                       <= r.firstShedCrossCycles;
            }
        }
        t.addRow({sc.name, sc.preempt ? "on" : "off",
                  sc.agingSvc > 0.0 ? std::to_string(aging_us) + "us" : "off",
                  cell(lat_p99), cell(yields), cell(aged), cell(bdone),
                  cell(bexpired)});
        const std::string name = sc.name;
        if (name == "uncontended")
            base_lat_p99 = lat_p99;
        if (name == "saturated" && !sc.preempt)
            off_lat_p99 = lat_p99;
        if (name == "saturated" && sc.preempt) {
            on_lat_p99 = lat_p99;
            on_yields = yields;
        }
        if (name == "flood" && sc.agingSvc <= 0.0) {
            off_batch_done = bdone;
            off_batch_expired = bexpired;
        }
        if (name == "flood" && sc.agingSvc > 0.0) {
            on_batch_done = bdone;
            on_aged = aged;
        }
    }
    t.print();

    // Determinism: every knob on at once (preempt + aging + unpark +
    // parking), repeated with one seed, must render byte-identical
    // rows — preemption points, aged claims, and wake escalations all
    // replay exactly.
    {
        const PreemptScenario sc = {
            "kitchen", MixKind::Saturated, 1.5, "queue_delay",
            /*preempt=*/true, /*agingSvc=*/40, /*unparkPct=*/50,
            /*parking=*/true};
        const auto row = [&] {
            return runPreemptScenario(mixFor(sc.mix), sc, machine,
                                      args.cores, args.first_seed)
                .row(sc, args.cores, args.first_seed);
        };
        const JsonRow a = row();
        ok &= gateIdentical("sim all-knobs rows byte-identical", a, row());
        report.addRow(a);
    }

    std::printf("\nSim preemption gates:\n");
    ok &= gateMax("sim saturated preempt-on / uncontended lat p99",
                  on_lat_p99 / std::max(1e-9, base_lat_p99), 1.30);
    ok &= gateMin("sim saturated preempt-on yields serviced",
                  on_yields, 1.0);
    // Informational, not gated: how much the whole-job wait cost.
    std::printf("  info saturated preempt off/on latency p99 ratio "
                "%.2f\n",
                off_lat_p99 / std::max(1e-9, on_lat_p99));
    ok &= gateMin("sim flood aging-off expires batch jobs",
                  off_batch_expired, 1.0);
    ok &= gateMin("sim flood aging-on batch completions gained",
                  on_batch_done - off_batch_done, 1.0);
    ok &= gateMin("sim flood aging-on aged claims counted", on_aged,
                  1.0);
    ok &= gateMin("sim ramp unpark pressure fires", ramp_unpark, 1.0);
    ok &= gateMin("sim ramp shed threshold crosses", ramp_cross, 1.0);
    ok &= gateHolds("sim unpark pressure leads shed crossing (per seed)",
                    ramp_lead_ok);

    // ---- Threaded rows + gates ----
    if (!args.skip_threaded) {
        const int n_jobs = args.scale >= 1.0 ? 240 : 120;

        const HostCalibration cal = calibrateHost(
            servingOptions(threads, true), 1, 20, 40, [](Runtime &rt, int i) {
                return submitPreemptJob(rt, MixKind::Saturated, i, 0);
            });
        const double mean_job_us = cal.mean_job_s * 1e6;
        std::printf("\nThreaded preemption, %d workers (mean job "
                    "%.0fus, capacity %.0f jobs/s):\n",
                    threads, mean_job_us, cal.capacity_per_s);

        // The threaded side mirrors the saturated preempt-off/on rows
        // and the aging-on flood, every one at 1.5x capacity. Its
        // aging step is two mean jobs, its Batch deadline 24 of them.
        const PreemptScenario *tscens[] = {&scenarios[1], &scenarios[2],
                                           &scenarios[4]};

        Table tt({"scenario", "preempt", "aging", "latp99us", "yields",
                  "aged", "done", "expired"});
        std::vector<double> off_lat, on_lat;
        double t_on_yields = 0.0, t_aged = 0.0;
        double t_sat_done_min = 1.0, t_flood_acct_min = 1.0;
        for (const PreemptScenario *sc : tscens) {
            const bool aging = sc->agingSvc > 0.0;
            const double rate = 1.5 * cal.capacity_per_s;
            // Spin instead of parking: a parked worker charges its ~ms
            // wake latency to the next Latency-class job, noise the
            // preemption comparison must not carry.
            RuntimeOptions o = servingOptions(threads, true);
            ServingPolicy pol;
            pol.preempt = sc->preempt;
            if (aging)
                pol.agingWaitUs = std::max(
                    1000, static_cast<int>(2.0 * mean_job_us));
            o.sched.serving = pol;
            Runtime rt(o);
            const int64_t deadline_ns =
                sc->deadlineSvc > 0.0
                    ? static_cast<int64_t>(24.0 * mean_job_us * 1000.0)
                    : 0;
            const auto warm = [&] {
                for (int i = 1; i <= 8; ++i)
                    submitPreemptJob(rt, sc->mix, i, 0).wait();
            };
            const auto submit = [&](int i) {
                return submitPreemptJob(rt, sc->mix, i, deadline_ns);
            };
            double lat_p99 = 0.0, yields = 0.0, aged = 0.0;
            double done = 0.0, expired = 0.0;
            for (int rep = 0; rep < args.reps; ++rep) {
                const OpenLoopRun run = runOpenLoop(
                    rt, rate, n_jobs, args.repSeed(rep), warm, submit);
                const ServingTally &r = run.tally;
                const WorkerCounters &c = run.stats.counters;
                lat_p99 += r.lat_p99_us / args.reps;
                yields += static_cast<double>(c.yields);
                aged += static_cast<double>(c.agedClaims);
                done += static_cast<double>(r.done) / args.reps;
                expired += static_cast<double>(r.expired) / args.reps;
                if (sc->mix == MixKind::Saturated) {
                    (sc->preempt ? on_lat : off_lat)
                        .push_back(r.lat_p99_us);
                    t_sat_done_min = std::min(
                        t_sat_done_min,
                        static_cast<double>(r.done) / n_jobs);
                } else {
                    t_flood_acct_min = std::min(
                        t_flood_acct_min,
                        static_cast<double>(r.done + r.expired)
                            / n_jobs);
                }
                report.addRow(preemptRow("threaded", *sc,
                                         pol.agingWaitUs, threads,
                                         args.repSeed(rep), r)
                                  .set("yields", c.yields)
                                  .set("aged_claims", c.agedClaims)
                                  .set("unpark_at_cycles", uint64_t{0})
                                  .set("shed_cross_cycles", uint64_t{0})
                                  .set("rep", rep));
            }
            if (sc->preempt)
                t_on_yields += yields;
            if (aging)
                t_aged += aged;
            tt.addRow({sc->name, sc->preempt ? "on" : "off",
                       aging ? "on" : "off", cell(lat_p99), cell(yields),
                       cell(aged), cell(done), cell(expired)});
        }
        tt.print();

        // Loose catastrophe floors only: the exact 1.3x bound is
        // enforced byte-deterministically by the sim above, while a
        // shared 1-2 core CI host swings threaded wall-clock ratios by
        // +/-40% run to run. These assert (a) preemption actually
        // happens and never *hurts* the class it protects by more than
        // noise (3x median margin), (b) aged claims actually happen,
        // and (c) no job is ever lost by either mechanism.
        std::printf("\nThreaded preemption gates:\n");
        ok &= gateMin("threaded preempt-on yields serviced",
                      t_on_yields, 1.0);
        ok &= gateMax("threaded preempt on/off latency p99",
                      exactQuantile(on_lat, 0.5)
                          / std::max(1e-9, exactQuantile(off_lat, 0.5)),
                      3.0);
        ok &= gateMin("threaded aging-on aged claims counted", t_aged,
                      1.0);
        ok &= gateMin("threaded saturated jobs all complete",
                      t_sat_done_min, 1.0);
        ok &= gateMin("threaded flood jobs all resolve",
                      t_flood_acct_min, 1.0);
    }

    return finishReport(report, args.json_path, ok, "preemption");
}
