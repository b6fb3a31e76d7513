/**
 * @file
 * Empirical checks of the Section IV guarantees on the simulated
 * scheduler: TP <= T1/P + c*Tinf, steals bounded by O(P * Tinf), and the
 * pushback amortization (pushes bounded per successful steal). These are
 * property-style sweeps over randomized fork-join dags and core counts,
 * plus a serving-mode seed sweep with every serving knob on that uses
 * the deterministic simulator as a cheap model checker for the job
 * accounting invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/scheduler.h"
#include "sim/serving.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace numaws::sim {
namespace {

/** Random fork-join dag: irregular spawn trees with mixed leaf sizes. */
ComputationDag
randomDag(uint64_t seed, int max_depth, double min_leaf, double max_leaf)
{
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth) -> void {
        if (depth == 0 || rng.nextBounded(8) == 0) {
            b.strand(min_leaf + rng.nextDouble() * (max_leaf - min_leaf),
                     {});
            return;
        }
        const int kids = 1 + static_cast<int>(rng.nextBounded(3));
        for (int k = 0; k < kids; ++k) {
            b.spawn(kAnyPlace);
            self(self, depth - 1);
            b.end();
        }
        b.strand(min_leaf, {});
        b.sync();
        if (rng.nextBounded(2) == 0) {
            b.spawn(kAnyPlace);
            self(self, depth - 1);
            b.end();
            b.sync();
        }
    };
    rec(rec, max_depth);
    b.end();
    return b.finish();
}

struct BoundsCase
{
    uint64_t seed;
    int cores;
};

class SchedulerBounds
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, bool>>
{
};

TEST_P(SchedulerBounds, ExecutionTimeWithinGreedyBound)
{
    const auto [seed, cores, numa] = GetParam();
    const ComputationDag dag = randomDag(seed, 7, 200.0, 2000.0);
    const SimConfig cfg =
        numa ? SimConfig::numaWs() : SimConfig::classicWs();
    const Machine m = Machine::paperMachine();

    // Nominal work/span with the engine's spawn/sync costs included.
    const WorkSpan ws =
        dag.workSpan(cfg.spawnCost, cfg.syncTrivialCost);
    const SimResult r = simulate(dag, m, cores, cfg);

    // TP <= T1/P + c * Tinf for a concrete constant c. The constant
    // absorbs steal/promotion/push costs along the critical path; 40x
    // the per-steal cost against the span is generous yet far below a
    // bound-free schedule (which would be ~T1).
    const double c = 40.0;
    EXPECT_LE(r.elapsedCycles, ws.work / cores + c * ws.span)
        << "P=" << cores << " seed=" << seed << " numa=" << numa;
    // And never faster than the trivial lower bounds.
    EXPECT_GE(r.elapsedCycles * 1.0000001, ws.work / cores);
    EXPECT_GE(r.elapsedCycles * 1.0000001, ws.span);
}

TEST_P(SchedulerBounds, StealsBoundedByPTimesSpan)
{
    const auto [seed, cores, numa] = GetParam();
    const ComputationDag dag = randomDag(seed, 7, 200.0, 2000.0);
    const SimConfig cfg =
        numa ? SimConfig::numaWs() : SimConfig::classicWs();
    const WorkSpan ws = dag.workSpan(cfg.spawnCost, cfg.syncTrivialCost);
    const SimResult r = simulate(dag, Machine::paperMachine(), cores, cfg);

    // Successful steals are O(P * Tinf); with unit-ish strand granularity
    // the span in "nodes" is ~span/minLeaf. Use a loose constant.
    const double span_nodes = ws.span / 200.0;
    EXPECT_LE(static_cast<double>(r.counters.steals),
              8.0 * cores * span_nodes + 64.0)
        << "P=" << cores << " seed=" << seed;
}

TEST_P(SchedulerBounds, PushesAmortizeAgainstSteals)
{
    const auto [seed, cores, numa] = GetParam();
    if (!numa)
        GTEST_SKIP() << "pushback exists only under NUMA-WS";
    // Hinted dag: alternate subtree hints across places.
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth, Place p) -> void {
        if (depth == 0) {
            b.strand(300.0 + rng.nextDouble() * 700.0, {});
            return;
        }
        for (int k = 0; k < 2; ++k) {
            b.spawn(depth == 6 ? static_cast<Place>(k * 2) : kAnyPlace);
            self(self, depth - 1, p);
            b.end();
        }
        b.sync();
    };
    rec(rec, 6, kAnyPlace);
    b.end();
    const ComputationDag dag = b.finish();

    SimConfig cfg = SimConfig::numaWs();
    cfg.seed = seed;
    const SimResult r = simulate(dag, Machine::paperMachine(), cores, cfg);

    // Section IV: at most two push-triggering events per successful
    // steal, each bounded by the pushing threshold.
    const double limit =
        2.0 * static_cast<double>(cfg.sched.pushThreshold)
            * static_cast<double>(r.counters.steals
                                  + r.counters.mailboxSteals)
        + 2.0 * cfg.sched.pushThreshold; // slack for the root frame
    EXPECT_LE(static_cast<double>(r.counters.pushAttempts), limit)
        << "P=" << cores << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerBounds,
    ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL, 4ULL),
                       ::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Bool()),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) + "_P"
               + std::to_string(std::get<1>(info.param))
               + (std::get<2>(info.param) ? "_numaws" : "_classic");
    });

/** Hinted random dag, the shape PushesAmortizeAgainstSteals uses. */
ComputationDag
hintedDag(uint64_t seed)
{
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth) -> void {
        if (depth == 0) {
            b.strand(300.0 + rng.nextDouble() * 700.0, {});
            return;
        }
        for (int k = 0; k < 2; ++k) {
            b.spawn(depth == 6 ? static_cast<Place>(k * 2) : kAnyPlace);
            self(self, depth - 1);
            b.end();
        }
        b.sync();
    };
    rec(rec, 6);
    b.end();
    return b.finish();
}

/**
 * Section IV's top-heavy-deques argument on a place-hinted dag, where
 * PUSHBACK parks frames in the single-entry mailboxes. The argument
 * needs (a) every frame's PUSHBACK attempts bounded by the pushing
 * threshold, so pushing amortizes against acquisitions, and (b) the
 * greedy execution-time bound surviving frames that bypass the deques.
 */
TEST(SchedulerBounds, MailboxPushbackPreservesSectionFourBounds)
{
    for (const uint64_t seed : {1ULL, 5ULL}) {
        const ComputationDag dag = hintedDag(seed);
        const Machine m = Machine::paperMachine();
        const WorkSpan ws = dag.workSpan(8.0, 2.0);
        SimConfig cfg = SimConfig::numaWs();
        cfg.seed = seed;
        const SimResult r = simulate(dag, m, 16, cfg);

        // (a) Push attempts amortize: each push-triggering event
        // (steal, mailbox delivery, resume) pays at most pushThreshold
        // attempts, and the number of such events per successful
        // acquisition is a constant.
        const double acquisitions = static_cast<double>(
            r.counters.steals + r.counters.mailboxSteals
            + r.counters.mailboxPops + r.counters.resumes);
        const double limit = 2.0 * cfg.sched.pushThreshold * acquisitions
                             + 2.0 * cfg.sched.pushThreshold;
        EXPECT_LE(static_cast<double>(r.counters.pushAttempts), limit)
            << "seed=" << seed;

        // (b) The greedy bound survives frames bypassing the deque.
        EXPECT_LE(r.elapsedCycles, ws.work / 16 + 40.0 * ws.span)
            << "seed=" << seed;

        // Sanity: frames really were parked and delivered.
        EXPECT_GT(r.counters.mailboxPops + r.counters.mailboxSteals, 0u);
    }
}

TEST(SchedulerBounds, WorkFirstOverheadOnWorkTermIsSmall)
{
    // The work-first principle: T1/TS stays close to one even for a
    // fine-grained dag (spawn overhead is the only work-path cost).
    const ComputationDag dag = randomDag(7, 8, 500.0, 1500.0);
    const Machine m = Machine::paperMachine();
    const double ts =
        simulate(dag, m, 1, SimConfig::serial()).elapsedCycles;
    const double t1 =
        simulate(dag, m, 1, SimConfig::numaWs()).elapsedCycles;
    EXPECT_LT(t1 / ts, 1.05);
}

/**
 * Section IV's bounds on serving runs: eight random fork-join jobs
 * arrive open-loop (Batch first, then descending class, so Latency
 * arrivals find Batch work to preempt and the Batch lane waits long
 * enough to age) under NUMA-WS with preemption and priority aging on.
 * The greedy bound holds over the whole run, offset by the last
 * arrival, and steals stay O(P * Tinf) of the longest job's span.
 */
TEST(SchedulerBounds, ServingRunsKeepGreedyAndStealBounds)
{
    constexpr int kJobs = 8;
    constexpr double kGapCycles = 20e3;
    uint64_t yields = 0, aged = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SimConfig cfg = SimConfig::numaWs();
        cfg.seed = seed;
        cfg.sched.serving.preempt = true;
        cfg.sched.serving.agingWaitUs = 5;
        ComputationDag dag;
        std::vector<SimJob> jobs(kJobs);
        double work = 0.0, max_span = 0.0;
        for (int i = 0; i < kJobs; ++i) {
            const ComputationDag job =
                randomDag(seed * kJobs + i, 7, 200.0, 2000.0);
            const WorkSpan ws =
                job.workSpan(cfg.spawnCost, cfg.syncTrivialCost);
            work += ws.work;
            max_span = std::max(max_span, ws.span);
            jobs[i].root = dag.append(job);
            jobs[i].arrivalCycles = i * kGapCycles;
            jobs[i].cls = 2 - i * kNumServingClasses / kJobs;
        }
        const double last_arrival = jobs.back().arrivalCycles;
        for (const int cores : {2, 4, 8, 16, 32}) {
            const ServingResult r = simulateServing(
                dag, jobs, Machine::paperMachine(), cores, cfg);
            EXPECT_LE(r.sim.elapsedCycles,
                      last_arrival + work / cores + 40.0 * max_span)
                << "P=" << cores << " seed=" << seed;
            EXPECT_LE(static_cast<double>(r.sim.counters.steals),
                      8.0 * cores * (max_span / 200.0) + 64.0)
                << "P=" << cores << " seed=" << seed;
            EXPECT_EQ(r.done, jobs.size())
                << "P=" << cores << " seed=" << seed;
            for (const SimJobStats &job : r.jobs)
                EXPECT_EQ(job.outcome, JobOutcome::Done);
            yields += r.sim.counters.yields;
            aged += r.sim.counters.agedClaims;
        }
    }
    // Both serving mechanisms must fire for the sweep to cover them.
    EXPECT_GT(yields, 0u);
    EXPECT_GT(aged, 0u);
}

/**
 * Serving-mode invariant sweep: QueueDelay shedding, preemption, aging,
 * shed-aware unpark and interference adaptation all on, under a
 * co-runner trace, with deadlines and cancels sprinkled in. Per seed:
 * every job resolves exactly once, the shed jobs are a subset of the
 * rejected ones, and a rerun reproduces every tally and percentile.
 */
TEST(SimServingSweep, AllKnobsOnResolveEveryJobOnceAndRerunIdentically)
{
    constexpr int kJobs = 96;
    constexpr int kCores = 16;
    InterferenceTrace trace; // half of socket 0 squeezed mid-run
    trace.intervals.push_back({30e3, 150e3, 0, 4, 500});
    SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    ServingPolicy &sp = cfg.sched.serving;
    sp.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        sp.queueDelayTargetUs[c] = 10;
    sp.preempt = true;
    sp.agingWaitUs = 20;
    sp.unparkLeadPct = 50;
    sp.interference = InterferencePolicy::Adapt;
    sp.pressureEpochUs = 2;
    cfg.interference = &trace;

    uint64_t shed = 0, yields = 0, aged = 0, retires = 0, unrun = 0;
    int unpark_leads = 0;
    ComputationDag dag;
    std::vector<FrameId> roots;
    for (int i = 0; i < kJobs; ++i)
        roots.push_back(dag.append(workloads::fibDag(10)));
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        ArrivalProcess arrivals;
        arrivals.ratePerSec = 1e6; // ~2x the 16-core capacity
        arrivals.seed = seed;
        const std::vector<double> at = arrivalCycles(arrivals, kJobs, 2.2);
        Rng rng(seed);
        std::vector<SimJob> jobs(kJobs);
        for (int i = 0; i < kJobs; ++i) {
            SimJob &job = jobs[static_cast<std::size_t>(i)];
            job.root = roots[static_cast<std::size_t>(i)];
            job.arrivalCycles = at[static_cast<std::size_t>(i)];
            job.cls = static_cast<int>(rng.nextBounded(3));
            if (rng.nextBounded(8) == 0)
                job.deadlineCycles = job.arrivalCycles + 20e3;
            if (rng.nextBounded(16) == 0)
                job.cancelAtCycles = job.arrivalCycles + 5e3;
        }
        cfg.seed = seed;

        const ServingResult a =
            simulateServingPacked(dag, jobs, kCores, cfg);
        EXPECT_EQ(a.done + a.expired + a.cancelled + a.rejected,
                  jobs.size())
            << "seed=" << seed;
        EXPECT_LE(a.shed, a.rejected) << "seed=" << seed;
        // A rerun repeats every tally and (bitwise) every percentile.
        const auto tallies = [](const ServingResult &r) {
            return std::vector<double>{
                double(r.done),     double(r.expired),  double(r.cancelled),
                double(r.rejected), double(r.shed),     r.p50Us,
                r.p99Us,            r.p999Us,           r.queueP50Us,
                r.queueP99Us,       r.goodputPerSec,    r.sim.elapsedCycles};
        };
        EXPECT_EQ(tallies(a),
                  tallies(simulateServingPacked(dag, jobs, kCores, cfg)))
            << "seed=" << seed;

        shed += a.shed;
        yields += a.sim.counters.yields;
        aged += a.sim.counters.agedClaims;
        retires += a.sim.counters.interferenceRetires;
        unrun += a.expired + a.cancelled;
        unpark_leads += a.sim.firstUnparkPressureCycles > 0;
    }
    // The sweep is only a check if every knob actually fired somewhere.
    EXPECT_GT(shed, 0u);
    EXPECT_GT(yields, 0u);
    EXPECT_GT(aged, 0u);
    EXPECT_GT(retires, 0u);
    EXPECT_GT(unrun, 0u);
    EXPECT_GT(unpark_leads, 0);
}

} // namespace
} // namespace numaws::sim
