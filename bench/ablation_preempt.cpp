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
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sim/serving.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

// ---------------------------------------------------------------------
// Sim side
// ---------------------------------------------------------------------

enum class MixKind { LatencyOnly, Saturated, Flood };

struct PreemptMix
{
    sim::ComputationDag dag;
    std::vector<sim::FrameId> roots;
    std::vector<int> classes;
    std::vector<uint8_t> deadlined; ///< Batch jobs that carry a deadline
    double meanJobCycles = 0.0;
};

PreemptMix
buildPreemptMix(MixKind kind, int jobs, int sockets)
{
    PreemptMix mix;
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

    double total = 0.0;
    for (int i = 0; i < jobs; ++i) {
        const sim::ComputationDag *d = nullptr;
        int cls = 0;
        bool ddl = false;
        switch (kind) {
          case MixKind::LatencyOnly:
            d = &lat;
            break;
          case MixKind::Saturated:
            if (i % 8 == 0) {
                d = &lat;
            } else {
                d = &batch;
                cls = 2;
            }
            break;
          case MixKind::Flood:
            // i%16==8 (not 0): the first deadlined Batch job lands
            // after the Normal backlog is already standing, so the
            // aging-off run shows starvation from the first sample.
            if (i % 16 == 8) {
                d = &starved;
                cls = 2;
                ddl = true;
            } else {
                d = &normal;
                cls = 1;
            }
            break;
        }
        mix.roots.push_back(mix.dag.append(*d));
        mix.classes.push_back(cls);
        mix.deadlined.push_back(ddl ? 1 : 0);
        total += d->workSpan().work;
    }
    mix.meanJobCycles = total / jobs;
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

struct PreemptRun
{
    sim::ServingResult r;
    std::vector<int> classes;
    double ratePerSec = 0.0;
    double ghz = 1.0;
    int agingUs = 0;

    /** Latency-class p99 over Done jobs, microseconds. */
    double
    latencyClassP99Us() const
    {
        std::vector<double> lat;
        for (std::size_t i = 0; i < r.jobs.size(); ++i)
            if (classes[i] == 0
                && r.jobs[i].outcome == JobOutcome::Done)
                lat.push_back(r.jobs[i].latencyCycles() / ghz / 1000.0);
        return exactQuantile(std::move(lat), 0.99);
    }

    uint64_t
    classOutcome(int cls, JobOutcome o) const
    {
        uint64_t n = 0;
        for (std::size_t i = 0; i < r.jobs.size(); ++i)
            if (classes[i] == cls && r.jobs[i].outcome == o)
                ++n;
        return n;
    }
};

PreemptRun
runPreemptScenario(const PreemptMix &mix, const PreemptScenario &sc,
                   const Machine &machine, int cores, uint64_t seed)
{
    PreemptRun run;
    run.ghz = machine.ghz();
    run.classes = mix.classes;
    sim::ArrivalProcess p;
    p.ratePerSec =
        sc.util * cores * machine.ghz() * 1e9 / mix.meanJobCycles;
    p.seed = seed;
    run.ratePerSec = p.ratePerSec;
    const auto at = sim::arrivalCycles(
        p, static_cast<int>(mix.roots.size()), machine.ghz());
    // One per-core service time: the mean inter-completion gap at
    // capacity, the natural unit for deadlines and aging steps.
    const double svc_cycles = mix.meanJobCycles / cores;
    std::vector<sim::SimJob> jobs(mix.roots.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].root = mix.roots[i];
        jobs[i].arrivalCycles = at[i];
        jobs[i].cls = mix.classes[i];
        if (sc.deadlineSvc > 0.0 && mix.deadlined[i])
            jobs[i].deadlineCycles = at[i] + sc.deadlineSvc * svc_cycles;
    }
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
    run.agingUs = pol.agingWaitUs;
    cfg.sched.serving = pol;
    run.r = sim::simulateServing(mix.dag, jobs, machine, cores, cfg);
    return run;
}

/** One preemption row, rendered before provenance stamping so the
 * determinism gate can compare raw bytes. */
JsonRow
preemptRow(const char *engine, const char *scenario, bool preempt,
           int aging_us, int unpark_pct, const std::string &shed,
           int cores_or_workers, uint64_t seed, std::size_t jobs,
           double rate, double elapsed_s, double p99_us,
           double lat_p99_us, double queue_p99_us, double goodput,
           uint64_t done, uint64_t expired, uint64_t batch_done,
           uint64_t batch_expired, uint64_t yields, uint64_t aged,
           uint64_t unpark_at, uint64_t shed_cross_at)
{
    JsonRow row;
    row.set("engine", engine)
        .set("workload", "preempt_mix")
        .set("scenario", scenario)
        .set("preempt", preempt)
        // `aging` is the identity (stable across runs); `aging_us` is a
        // measurement — the threaded step is calibrated per host.
        .set("aging", aging_us > 0)
        .set("aging_us", aging_us)
        .set("unpark_pct", unpark_pct)
        .set("shed", shed)
        .set("arrivals", "poisson")
        .set(std::string(engine) == "sim" ? "cores" : "workers",
             cores_or_workers)
        .set("seed", seed)
        .set("jobs", static_cast<uint64_t>(jobs))
        .set("arrival_per_s", rate)
        .set("elapsed_s", elapsed_s)
        .set("p99_us", p99_us)
        .set("lat_p99_us", lat_p99_us)
        .set("queue_p99_us", queue_p99_us)
        .set("goodput", goodput)
        .set("done", done)
        .set("expired", expired)
        .set("batch_done", batch_done)
        .set("batch_expired", batch_expired)
        .set("yields", yields)
        .set("aged_claims", aged)
        .set("unpark_at_cycles", unpark_at)
        .set("shed_cross_cycles", shed_cross_at);
    return row;
}

JsonRow
simRow(const PreemptScenario &sc, int cores, uint64_t seed,
       const PreemptRun &run)
{
    const sim::ServingResult &r = run.r;
    return preemptRow(
        "sim", sc.name, sc.preempt, run.agingUs, sc.unparkPct, sc.shed,
        cores, seed, r.jobs.size(), run.ratePerSec,
        r.sim.elapsedSeconds, r.p99Us, run.latencyClassP99Us(),
        r.queueP99Us, r.goodputPerSec, r.done, r.expired,
        run.classOutcome(2, JobOutcome::Done),
        run.classOutcome(2, JobOutcome::Expired), r.sim.counters.yields,
        r.sim.counters.agedClaims, r.sim.firstUnparkPressureCycles,
        r.sim.firstShedCrossCycles);
}

// ---------------------------------------------------------------------
// Threaded side: the job bodies live in bench_common.h. The Batch body
// (heatJob) is boundary-dense (many spawns per step) so a raised yield
// directive is observed within a fraction of the job, and the Latency
// body (matmulSerialJob) is a single serial block so its execution
// time is load-independent.
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

struct ThreadedRun
{
    double elapsed_s = 0.0;
    double arrival_per_s = 0.0;
    double goodput = 0.0;
    double p99_us = 0.0;
    double lat_p99_us = 0.0;   ///< Latency-class Done-job p99
    double queue_p99_us = 0.0;
    uint64_t done = 0, expired = 0, other = 0;
    uint64_t batch_done = 0, batch_expired = 0;
    uint64_t yields = 0, aged = 0;
};

/** Drive @p rt open-loop at seeded @p arrival_ns offsets. */
ThreadedRun
runThreadedStream(Runtime &rt, MixKind kind,
                  const std::vector<double> &arrival_ns,
                  int64_t deadline_ns)
{
    for (int i = 1; i <= 8; ++i)
        submitPreemptJob(rt, kind, i, 0).wait();
    rt.resetStats();

    PacedRun run = runPaced(arrival_ns, [&](std::size_t i) {
        return submitPreemptJob(rt, kind, static_cast<int>(i),
                                deadline_ns);
    });
    std::vector<JobHandle> &handles = run.handles;

    ThreadedRun r;
    r.elapsed_s = run.elapsed_s;
    r.arrival_per_s =
        static_cast<double>(handles.size()) / r.elapsed_s;
    std::vector<double> lat_us, lat_cls_us, queue_us;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        JobHandle &h = handles[i];
        const bool is_batch =
            kind == MixKind::Saturated ? (i % 8 != 0) : (i % 16 == 8);
        switch (h.outcome()) {
          case JobOutcome::Done: {
            ++r.done;
            const double lat =
                static_cast<double>(h.latencyNs()) / 1000.0;
            lat_us.push_back(lat);
            queue_us.push_back(
                static_cast<double>(h.queueNs()) / 1000.0);
            if (kind == MixKind::Saturated && i % 8 == 0)
                lat_cls_us.push_back(lat);
            if (is_batch)
                ++r.batch_done;
            break;
          }
          case JobOutcome::Expired:
            ++r.expired;
            if (is_batch)
                ++r.batch_expired;
            break;
          default:
            ++r.other;
            break;
        }
    }
    r.goodput = static_cast<double>(r.done) / r.elapsed_s;
    r.p99_us = exactQuantile(lat_us, 0.99);
    r.lat_p99_us = exactQuantile(lat_cls_us, 0.99);
    r.queue_p99_us = exactQuantile(queue_us, 0.99);
    const RuntimeStats s = rt.stats();
    r.yields = s.counters.yields;
    r.aged = s.counters.agedClaims;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const BenchArgs args(cli);
    const std::string json_path =
        cli.getString("json", "BENCH_preempt.json");
    const uint64_t first_seed =
        static_cast<uint64_t>(cli.getInt("seed", 0x5eed));
    const int num_seeds =
        std::max(1, static_cast<int>(cli.getInt("seeds", 3)));
    // Never oversubscribe (see ablation_overload): descheduled workers
    // stall Latency-class claims, which the gates would misread.
    const int default_threads = std::min(
        2u, std::max(1u, std::thread::hardware_concurrency()));
    const int threads =
        static_cast<int>(cli.getInt("threads", default_threads));
    const int reps =
        std::max(1, static_cast<int>(cli.getInt("reps", 3)));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
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
    PreemptMix mixes[3] = {
        buildPreemptMix(MixKind::LatencyOnly, sim_jobs, sockets),
        buildPreemptMix(MixKind::Saturated, sim_jobs, sockets),
        buildPreemptMix(MixKind::Flood, sim_jobs, sockets),
    };
    const auto mixFor = [&](MixKind k) -> const PreemptMix & {
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
    for (const PreemptScenario &sc : scenarios) {
        const PreemptMix &mix = mixFor(sc.mix);
        double lat_p99 = 0.0, yields = 0.0, aged = 0.0;
        double bdone = 0.0, bexpired = 0.0;
        int aging_us = 0;
        for (int s = 0; s < num_seeds; ++s) {
            const uint64_t seed = first_seed + 7919ULL * s;
            const PreemptRun run =
                runPreemptScenario(mix, sc, machine, args.cores, seed);
            report.addRow(simRow(sc, args.cores, seed, run));
            if (std::getenv("PREEMPT_DEBUG")
                && std::string(sc.name) == "flood" && s == 0) {
                const double svc =
                    mix.meanJobCycles / args.cores;
                for (std::size_t i = 0; i < run.r.jobs.size(); ++i) {
                    if (mix.classes[i] != 2)
                        continue;
                    const auto &j = run.r.jobs[i];
                    std::printf("  dbg batch[%3zu] arr=%6.1f "
                                "start=%6.1f fin=%6.1f svc  %s\n",
                                i, j.arrivalCycles / svc,
                                j.startCycles / svc,
                                j.finishCycles / svc,
                                jobOutcomeName(j.outcome));
                }
            }
            lat_p99 += run.latencyClassP99Us() / num_seeds;
            yields += static_cast<double>(run.r.sim.counters.yields)
                      / num_seeds;
            aged += static_cast<double>(run.r.sim.counters.agedClaims)
                    / num_seeds;
            bdone += static_cast<double>(
                         run.classOutcome(2, JobOutcome::Done))
                     / num_seeds;
            bexpired += static_cast<double>(
                            run.classOutcome(2, JobOutcome::Expired))
                        / num_seeds;
            aging_us = run.agingUs;
            if (std::string(sc.name) == "ramp") {
                ramp_unpark +=
                    static_cast<double>(
                        run.r.sim.firstUnparkPressureCycles)
                    / num_seeds;
                ramp_cross += static_cast<double>(
                                  run.r.sim.firstShedCrossCycles)
                              / num_seeds;
                // Lead is a per-seed ordering claim, not an average.
                ramp_lead_ok &= run.r.sim.firstUnparkPressureCycles > 0
                                && run.r.sim.firstUnparkPressureCycles
                                       <= run.r.sim.firstShedCrossCycles;
            }
        }
        t.addRow({sc.name, sc.preempt ? "on" : "off",
                  sc.agingSvc > 0.0 ? std::to_string(aging_us) + "us"
                                    : "off",
                  std::to_string(static_cast<int64_t>(lat_p99)),
                  std::to_string(static_cast<int64_t>(yields)),
                  std::to_string(static_cast<int64_t>(aged)),
                  std::to_string(static_cast<int64_t>(bdone)),
                  std::to_string(static_cast<int64_t>(bexpired))});
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
        const PreemptMix &mix = mixFor(sc.mix);
        const PreemptRun a =
            runPreemptScenario(mix, sc, machine, args.cores, first_seed);
        const PreemptRun b =
            runPreemptScenario(mix, sc, machine, args.cores, first_seed);
        const bool same = simRow(sc, args.cores, first_seed, a).str()
                          == simRow(sc, args.cores, first_seed, b).str();
        std::printf("  gate %-52s %s\n",
                    "sim all-knobs rows byte-identical",
                    same ? "ok" : "FAIL");
        ok &= same;
        report.addRow(simRow(sc, args.cores, first_seed, a));
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
    std::printf("  gate %-52s %s\n",
                "sim unpark pressure leads shed crossing (per seed)",
                ramp_lead_ok ? "ok" : "FAIL");
    ok &= ramp_lead_ok;

    // ---- Threaded rows + gates ----
    if (!skip_threaded) {
        const int n_jobs = args.scale >= 1.0 ? 240 : 120;

        // Calibrate this host's capacity with the real runtime (see
        // ablation_overload: threads/mean_job overstates capacity on
        // CI hosts with fewer cores than workers).
        double mean_job_s = 0.0, capacity_per_s = 0.0;
        {
            RuntimeOptions o;
            o.numWorkers = threads;
            o.numPlaces = threads >= 2 ? 2 : 1;
            o.sched.parkSpinFailures = 1 << 30;
            Runtime rt(o);
            const int probe = 20;
            const int64_t t0 = nowNs();
            for (int i = 1; i <= probe; ++i)
                submitPreemptJob(rt, MixKind::Saturated, i, 0).wait();
            mean_job_s =
                static_cast<double>(nowNs() - t0) * 1e-9 / probe;

            const int burst = 40;
            std::vector<JobHandle> hs;
            hs.reserve(burst);
            const int64_t b0 = nowNs();
            for (int i = 0; i < burst; ++i)
                hs.push_back(
                    submitPreemptJob(rt, MixKind::Saturated, i, 0));
            for (JobHandle &h : hs)
                h.wait();
            capacity_per_s =
                burst / (static_cast<double>(nowNs() - b0) * 1e-9);
        }
        const double mean_job_us = mean_job_s * 1e6;
        std::printf("\nThreaded preemption, %d workers (mean job "
                    "%.0fus, capacity %.0f jobs/s):\n",
                    threads, mean_job_us, capacity_per_s);

        struct ThreadedScenario
        {
            const char *name;
            MixKind mix;
            bool preempt;
            bool aging;
            double deadline_jobs; ///< Batch deadline in mean jobs
        };
        const ThreadedScenario tscens[] = {
            {"saturated", MixKind::Saturated, false, false, 0.0},
            {"saturated", MixKind::Saturated, true, false, 0.0},
            {"flood", MixKind::Flood, false, true, 24.0},
        };

        Table tt({"scenario", "preempt", "aging", "latp99us", "yields",
                  "aged", "done", "expired"});
        std::vector<double> off_lat, on_lat;
        double t_on_yields = 0.0, t_aged = 0.0;
        double t_sat_done_min = 1.0, t_flood_acct_min = 1.0;
        for (const ThreadedScenario &ts : tscens) {
            const double rate = 1.5 * capacity_per_s;
            RuntimeOptions o;
            o.numWorkers = threads;
            o.numPlaces = threads >= 2 ? 2 : 1;
            // Spin instead of parking: a parked worker charges its ~ms
            // wake latency to the next Latency-class job, noise the
            // preemption comparison must not carry.
            o.sched.parkSpinFailures = 1 << 30;
            ServingPolicy pol;
            pol.preempt = ts.preempt;
            if (ts.aging)
                pol.agingWaitUs = std::max(
                    1000, static_cast<int>(2.0 * mean_job_us));
            o.sched.serving = pol;
            Runtime rt(o);
            double lat_p99 = 0.0, yields = 0.0, aged = 0.0;
            double done = 0.0, expired = 0.0;
            for (int rep = 0; rep < reps; ++rep) {
                sim::ArrivalProcess p;
                p.ratePerSec = rate;
                p.seed = first_seed + 104729ULL * rep;
                // ghz=1.0 makes arrivalCycles return nanoseconds.
                const auto arrivals =
                    sim::arrivalCycles(p, n_jobs, 1.0);
                const ThreadedRun r = runThreadedStream(
                    rt, ts.mix, arrivals,
                    ts.deadline_jobs > 0.0
                        ? static_cast<int64_t>(ts.deadline_jobs
                                               * mean_job_us * 1000.0)
                        : 0);
                lat_p99 += r.lat_p99_us / reps;
                yields += static_cast<double>(r.yields);
                aged += static_cast<double>(r.aged);
                done += static_cast<double>(r.done) / reps;
                expired += static_cast<double>(r.expired) / reps;
                if (ts.mix == MixKind::Saturated) {
                    (ts.preempt ? on_lat : off_lat)
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
                report.addRow(
                    preemptRow("threaded", ts.name, ts.preempt,
                               pol.agingWaitUs, 0, "none", threads,
                               first_seed + 104729ULL * rep,
                               static_cast<std::size_t>(n_jobs),
                               r.arrival_per_s, r.elapsed_s, r.p99_us,
                               r.lat_p99_us, r.queue_p99_us, r.goodput,
                               r.done, r.expired, r.batch_done,
                               r.batch_expired, r.yields, r.aged, 0, 0)
                        .set("rep", rep));
            }
            if (ts.preempt)
                t_on_yields += yields;
            if (ts.aging)
                t_aged += aged;
            tt.addRow({ts.name, ts.preempt ? "on" : "off",
                       ts.aging ? "on" : "off",
                       std::to_string(static_cast<int64_t>(lat_p99)),
                       std::to_string(static_cast<int64_t>(yields)),
                       std::to_string(static_cast<int64_t>(aged)),
                       std::to_string(static_cast<int64_t>(done)),
                       std::to_string(
                           static_cast<int64_t>(expired))});
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

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    if (!ok) {
        std::printf("FAIL: preemption acceptance gate violated\n");
        return 1;
    }
    return 0;
}
