/**
 * @file
 * PR 10 interference resilience: the pressure-sensing math, the
 * InterferenceCore hysteresis ladder, the threaded worker-set
 * shrink/re-expand plumbing, the sim trace model's determinism and
 * byte-compat invariants, the graceful slab-carve fallback chain, and
 * the stall watchdog.
 *
 * Concurrency tests follow the repo's 1-core-host discipline: no
 * wall-clock speed assertions, only outcomes, counters, and bounded
 * liveness. The threaded shrink/re-expand test drives the socket's
 * pressure EWMA from the test thread (a publish is one relaxed CAS,
 * legal from any thread) instead of relying on a real co-runner, so
 * retirement and reinstatement are provoked deterministically on any
 * host; the real-co-runner catastrophe lives in the interference
 * bench, where it is gated on multi-core hosts only.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "mem/numa_arena.h"
#include "numaws.h"
#include "sched/interference_core.h"
#include "sim/serving.h"
#include "support/pressure.h"
#include "workloads/workloads.h"

using namespace numaws;
using namespace std::chrono_literals;

namespace {

/** Spin until @p cond returns true or ~@p limit elapses. */
template <typename Cond>
bool
awaitFor(Cond cond, std::chrono::milliseconds limit)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!cond()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Pressure math units (support/pressure.h)
// ---------------------------------------------------------------------

TEST(Pressure, PermilleIsLostWallShareGatedOnInvoluntarySwitches)
{
    // No involuntary context switch: skew alone is ambiguous, report 0.
    EXPECT_EQ(pressurePermille(1'000'000, 400'000, 0), 0);
    // Confirmed by a switch: 60% of the epoch lost -> 600 per-mille.
    EXPECT_EQ(pressurePermille(1'000'000, 400'000, 1), 600);
    EXPECT_EQ(pressurePermille(1'000'000, 999'000, 3), 1);
    // CPU >= wall (clock skew, nested accounting): never negative.
    EXPECT_EQ(pressurePermille(1'000'000, 1'100'000, 5), 0);
    // Degenerate epochs are silent, and the result clamps at 1000.
    EXPECT_EQ(pressurePermille(0, 0, 9), 0);
    EXPECT_EQ(pressurePermille(-5, 0, 9), 0);
    EXPECT_EQ(pressurePermille(1'000, -50'000, 2), 1000);
}

TEST(Pressure, BoardSeedsOnFirstSampleThenDecaysByShift)
{
    PressureBoard board(2); // fixed EWMA weight 1/4
    EXPECT_EQ(board.pressure(0), 0); // unseeded reads calm
    board.publish(0, 800);
    EXPECT_EQ(board.pressure(0), 800); // first sample seeds, no blend
    board.publish(0, 0);               // decay: 800 + (0-800)>>2 = 600
    EXPECT_EQ(board.pressure(0), 600);
    board.publish(0, 1000); // 600 + (400>>2) = 700
    EXPECT_EQ(board.pressure(0), 700);
    EXPECT_EQ(board.pressure(1), 0); // sockets are independent
    board.reset();
    EXPECT_EQ(board.pressure(0), 0);
    board.publish(0, 123);
    EXPECT_EQ(board.pressure(0), 123); // reset really unseeds
}

// ---------------------------------------------------------------------
// InterferenceCore hysteresis units (sched/interference_core.h)
// ---------------------------------------------------------------------

namespace {

ServingPolicy
adaptPolicy(int expand_epochs = 2)
{
    ServingPolicy p;
    p.interference = InterferencePolicy::Adapt;
    p.interferenceExpandEpochs = expand_epochs;
    return p;
}

} // namespace

TEST(InterferenceCore, OffKnobNeverMovesTheTarget)
{
    InterferenceCore core(ServingPolicy{}, 2);
    EXPECT_FALSE(core.enabled());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(core.epochTick(0, 1000, 8));
    EXPECT_EQ(core.retiredTarget(0), 0);
    EXPECT_FALSE(core.socketPressured(0));
    EXPECT_EQ(core.steerSocket(0), 0); // identity when off
    EXPECT_EQ(core.shrinks(), 0u);
}

TEST(InterferenceCore, ShrinkNeedsTheFullHotStreak)
{
    static_assert(InterferenceCore::kShrinkEpochs == 2,
                  "test walks a two-epoch streak");
    InterferenceCore core(adaptPolicy(), 2);
    EXPECT_FALSE(core.epochTick(0, 900, 8));
    EXPECT_TRUE(core.socketPressured(0)); // latched from the first hot
    EXPECT_EQ(core.retiredTarget(0), 0);  // ...but no retirement yet
    EXPECT_TRUE(core.epochTick(0, 900, 8));
    EXPECT_EQ(core.retiredTarget(0), 1);
    // One worker per completed streak, never a burst.
    EXPECT_FALSE(core.epochTick(0, 900, 8));
    EXPECT_TRUE(core.epochTick(0, 900, 8));
    EXPECT_EQ(core.retiredTarget(0), 2);
    EXPECT_EQ(core.shrinks(), 2u);
}

TEST(InterferenceCore, DeadBandResetsBothStreaks)
{
    InterferenceCore core(adaptPolicy(), 1);
    // Flicker: hot, dead band, hot, dead band ... never retires.
    for (int i = 0; i < 8; ++i) {
        const int hot = InterferenceCore::kShrinkPermille;
        EXPECT_FALSE(core.epochTick(0, hot, 8));
        EXPECT_FALSE(core.epochTick(0, hot - 1, 8));
    }
    EXPECT_EQ(core.retiredTarget(0), 0);
    // The dead band holds whatever was already retired.
    EXPECT_FALSE(core.epochTick(0, 900, 8));
    EXPECT_TRUE(core.epochTick(0, 900, 8));
    EXPECT_EQ(core.retiredTarget(0), 1);
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(core.epochTick(0, 150, 8)); // between the edges
    EXPECT_EQ(core.retiredTarget(0), 1);
}

TEST(InterferenceCore, ExpandUnwindsOneWorkerPerCoolStreak)
{
    InterferenceCore core(adaptPolicy(2), 1);
    for (int i = 0; i < 3 * InterferenceCore::kShrinkEpochs; ++i)
        core.epochTick(0, 900, 8);
    EXPECT_EQ(core.retiredTarget(0), 3);
    EXPECT_FALSE(core.epochTick(0, 0, 8));
    EXPECT_TRUE(core.epochTick(0, 0, 8));
    EXPECT_EQ(core.retiredTarget(0), 2);
    EXPECT_FALSE(core.socketPressured(0)); // unlatched on the cool edge
    EXPECT_FALSE(core.epochTick(0, 0, 8));
    EXPECT_TRUE(core.epochTick(0, 0, 8));
    EXPECT_FALSE(core.epochTick(0, 0, 8));
    EXPECT_TRUE(core.epochTick(0, 0, 8));
    EXPECT_EQ(core.retiredTarget(0), 0);
    // Fully expanded: further cool epochs are no-ops.
    EXPECT_FALSE(core.epochTick(0, 0, 8));
    EXPECT_FALSE(core.epochTick(0, 0, 8));
    EXPECT_EQ(core.expands(), 3u);
}

TEST(InterferenceCore, FloorKeepsTheLeaderRunning)
{
    InterferenceCore core(adaptPolicy(1), 1);
    for (int i = 0; i < 20; ++i)
        core.epochTick(0, 1000, /*workersOnSocket=*/4);
    EXPECT_EQ(core.retiredTarget(0), 3); // 4 workers - the leader
    // Rank order: top ranks retire first; the leader (largest rank)
    // never retires, so its epoch ticks can always re-expand.
    EXPECT_TRUE(core.workerRetired(0, 0));
    EXPECT_TRUE(core.workerRetired(0, 1));
    EXPECT_TRUE(core.workerRetired(0, 2));
    EXPECT_FALSE(core.workerRetired(0, 3));
    // A one-worker socket never retires at all.
    InterferenceCore single(adaptPolicy(1), 1);
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(single.epochTick(0, 1000, /*workersOnSocket=*/1));
    EXPECT_EQ(single.retiredTarget(0), 0);
}

TEST(InterferenceCore, SteeringPrefersTheFirstCalmSocketUpward)
{
    InterferenceCore core(adaptPolicy(1), 4);
    core.epochTick(1, 900, 8); // socket 1 pressured
    core.epochTick(2, 900, 8); // socket 2 pressured
    EXPECT_EQ(core.steerSocket(0), 0); // calm: identity
    EXPECT_EQ(core.steerSocket(1), 3); // scan up: 2 is hot, 3 is calm
    EXPECT_EQ(core.steerSocket(2), 3);
    EXPECT_EQ(core.steerSocket(-1), -1); // out of range: identity
    EXPECT_EQ(core.steerSocket(7), 7);
    for (int s = 0; s < 4; ++s)
        core.epochTick(s, 900, 8);
    EXPECT_EQ(core.steerSocket(1), 1); // all pressured: hold position
    core.reset();
    EXPECT_EQ(core.steerSocket(1), 1);
    EXPECT_EQ(core.retiredTarget(1), 0);
}

// ---------------------------------------------------------------------
// Threaded engine: worker-set shrink and re-expand
// ---------------------------------------------------------------------

TEST(InterferenceRuntime, WorkersRetireUnderPressureAndReinstateOnDecay)
{
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    o.sched.serving.interference = InterferencePolicy::Adapt;
    o.sched.serving.pressureEpochUs = 2000;
    o.sched.serving.interferenceExpandEpochs = 2;
    Runtime rt(o);

    // Phase 1: flood the socket EWMA with saturated pressure. The place
    // leader's epoch ticks read the board and must retire the top-rank
    // worker (the leader stays: the one-worker-per-socket floor).
    std::atomic<bool> stop_flood{false};
    std::thread flood([&] {
        while (!stop_flood.load(std::memory_order_acquire)) {
            rt.pressureBoard().publish(0, 1000);
            std::this_thread::sleep_for(100us);
        }
    });
    EXPECT_TRUE(awaitFor([&] { return rt.retiredWorkers() == 1; }, 10s))
        << "worker never retired under saturated pressure";

    // The retired runtime still serves work: the remaining worker owns
    // the whole socket (graceful degradation, not a stall).
    std::atomic<int> ran{0};
    JobHandle mid = rt.submit([&] {
        TaskGroup tg;
        for (int i = 0; i < 32; ++i)
            tg.spawn([&] { ran.fetch_add(1); });
        tg.sync();
    });
    mid.wait();
    EXPECT_EQ(mid.outcome(), JobOutcome::Done);
    EXPECT_EQ(ran.load(), 32);

    // Phase 2: stop the flood; the leader's real samples (no co-runner
    // here) decay the EWMA through the expand threshold and the worker
    // must be reinstated.
    stop_flood.store(true, std::memory_order_release);
    flood.join();
    // Await the worker-observed reinstatement edge, not just the
    // gauge: retiredWorkers() reflects the policy target the instant
    // the leader's epoch tick expands, while the parked worker counts
    // the reinstate up to one park timeout later.
    EXPECT_TRUE(awaitFor(
                    [&] {
                        return rt.retiredWorkers() == 0
                               && rt.stats().counters.interferenceReinstates
                                      >= 1u;
                    },
                    30s))
        << "worker never reinstated after the pressure decayed";

    const RuntimeStats stats = rt.stats();
    EXPECT_GE(stats.counters.interferenceRetires, 1u);
    EXPECT_GE(stats.counters.interferenceReinstates, 1u);
    EXPECT_GE(rt.interferenceCore().shrinks(), 1u);
    EXPECT_GE(rt.interferenceCore().expands(), 1u);
}

TEST(InterferenceRuntime, OffByDefaultTouchesNothing)
{
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    Runtime rt(o);
    EXPECT_EQ(o.sched.serving.interference, InterferencePolicy::Off);
    std::atomic<int> ran{0};
    JobHandle h = rt.submit([&] {
        TaskGroup tg;
        for (int i = 0; i < 64; ++i)
            tg.spawn([&] { ran.fetch_add(1); });
        tg.sync();
    });
    h.wait();
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(rt.retiredWorkers(), 0);
    const RuntimeStats stats = rt.stats();
    EXPECT_EQ(stats.counters.interferenceRetires, 0u);
    EXPECT_EQ(stats.counters.interferenceReinstates, 0u);
}

// ---------------------------------------------------------------------
// Simulator: trace determinism and byte-compat invariants
// ---------------------------------------------------------------------

namespace {

struct SimSetup
{
    sim::ComputationDag dag;
    std::vector<sim::SimJob> jobs;
};

SimSetup
servingSetup(int n, double rate_per_sec, uint64_t seed = 11)
{
    SimSetup s;
    std::vector<sim::FrameId> roots;
    roots.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        roots.push_back(s.dag.append(workloads::fibDag(10)));
    sim::ArrivalProcess p;
    p.ratePerSec = rate_per_sec;
    p.seed = seed;
    const auto at = sim::arrivalCycles(p, n, 2.2);
    s.jobs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        s.jobs[static_cast<std::size_t>(i)] = {
            roots[static_cast<std::size_t>(i)],
            at[static_cast<std::size_t>(i)], i % 3};
    }
    return s;
}

/** Half of socket 0 stolen from early in the run (these serving runs
 * last ~300k cycles) to past its end, with a slowdown on the rest of
 * the socket. */
sim::InterferenceTrace
halfSocketTrace()
{
    sim::InterferenceTrace t;
    t.intervals.push_back(
        {30e3, 1e12, /*socket=*/0, /*coresStolen=*/4,
         /*slowdownPermille=*/500});
    return t;
}

sim::SimConfig
interferenceCfg(InterferencePolicy knob)
{
    sim::SimConfig cfg;
    cfg.sched.serving.interference = knob;
    // 2us epochs = ~4.4k cycles: dozens of ladder ticks inside one
    // ~300k-cycle run, so shrink and re-expand both happen in-window.
    cfg.sched.serving.pressureEpochUs = 2;
    cfg.sched.serving.interferenceExpandEpochs = 2;
    return cfg;
}

} // namespace

TEST(SimInterference, TraceQueriesAreExactOnTheBoundaries)
{
    sim::InterferenceTrace t;
    t.intervals.push_back({100.0, 200.0, 0, 4, 300});
    EXPECT_EQ(t.stolenOn(0, 99.0), 0);
    EXPECT_EQ(t.stolenOn(0, 100.0), 4); // closed start
    EXPECT_EQ(t.stolenOn(0, 199.9), 4);
    EXPECT_EQ(t.stolenOn(0, 200.0), 0); // open end
    EXPECT_EQ(t.stolenOn(1, 150.0), 0); // other sockets untouched
    EXPECT_EQ(t.slowdownOn(0, 150.0), 300);
    // Stolen cores pay the time-slice factor, the rest the slowdown.
    EXPECT_DOUBLE_EQ(t.costFactor(0, 0, 150.0),
                     1.0 / sim::InterferenceTrace::kStolenShare);
    EXPECT_DOUBLE_EQ(t.costFactor(0, 4, 150.0), 1.3);
    EXPECT_DOUBLE_EQ(t.costFactor(0, 0, 50.0), 1.0);
    EXPECT_DOUBLE_EQ(t.costFactor(1, 0, 150.0), 1.0);
    // Pressure: 4 stolen cores lose 7/8 each, 4 slowed lose 300/1300.
    const int pm = t.pressureAt(0, 150.0, 8);
    EXPECT_GT(pm, 400);
    EXPECT_LT(pm, 700);
    EXPECT_EQ(t.pressureAt(0, 50.0, 8), 0);
    EXPECT_EQ(t.pressureAt(1, 150.0, 8), 0);
}

TEST(SimInterference, TracedRunsAreByteDeterministic)
{
    SimSetup s = servingSetup(120, 2e6);
    const sim::InterferenceTrace trace = halfSocketTrace();
    sim::SimConfig cfg = interferenceCfg(InterferencePolicy::Adapt);
    cfg.interference = &trace;
    const sim::ServingResult a =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    const sim::ServingResult b =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    EXPECT_EQ(a.sim.elapsedCycles, b.sim.elapsedCycles);
    EXPECT_EQ(a.sim.counters.interferenceRetires,
              b.sim.counters.interferenceRetires);
    EXPECT_EQ(a.sim.counters.stolenCycles, b.sim.counters.stolenCycles);
    EXPECT_EQ(a.p99Us, b.p99Us);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].outcome, b.jobs[i].outcome) << "job " << i;
        EXPECT_EQ(a.jobs[i].finishCycles, b.jobs[i].finishCycles);
    }
}

TEST(SimInterference, EmptyTraceIsByteIdenticalToNullTrace)
{
    // The hooks with nothing to charge must not perturb the schedule:
    // this is the Off-compat invariant the bench also gates.
    SimSetup s = servingSetup(100, 2e6);
    sim::SimConfig cfg = interferenceCfg(InterferencePolicy::Off);
    const sim::ServingResult null_run =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    const sim::InterferenceTrace empty;
    cfg.interference = &empty;
    const sim::ServingResult empty_run =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    EXPECT_EQ(null_run.sim.elapsedCycles, empty_run.sim.elapsedCycles);
    EXPECT_EQ(null_run.sim.counters.steals,
              empty_run.sim.counters.steals);
    EXPECT_EQ(null_run.sim.counters.stolenCycles, 0u);
    EXPECT_EQ(empty_run.sim.counters.stolenCycles, 0u);
    ASSERT_EQ(null_run.jobs.size(), empty_run.jobs.size());
    for (std::size_t i = 0; i < null_run.jobs.size(); ++i)
        EXPECT_EQ(null_run.jobs[i].finishCycles,
                  empty_run.jobs[i].finishCycles);
}

TEST(SimInterference, AdaptRetiresAndReexpandsAroundABurst)
{
    // A burst that ends mid-run: the ladder must shrink while it
    // stands and fully re-expand after it lifts.
    SimSetup s = servingSetup(200, 1e6);
    sim::InterferenceTrace trace;
    trace.intervals.push_back({30e3, 200e3, 0, 4, 500});
    sim::SimConfig cfg = interferenceCfg(InterferencePolicy::Adapt);
    cfg.interference = &trace;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    EXPECT_GT(r.sim.counters.interferenceRetires, 0u);
    EXPECT_GT(r.sim.counters.interferenceReexpands, 0u);
    EXPECT_GT(r.sim.counters.stolenCycles, 0u);
    EXPECT_GT(r.sim.counters.slowedCycles, 0u);
    EXPECT_EQ(r.done + r.expired + r.cancelled + r.rejected,
              s.jobs.size());
}

TEST(SimInterference, OffKnobChargesTheTraceButNeverAdapts)
{
    SimSetup s = servingSetup(120, 2e6);
    const sim::InterferenceTrace trace = halfSocketTrace();
    sim::SimConfig cfg = interferenceCfg(InterferencePolicy::Off);
    cfg.interference = &trace;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 16, cfg);
    EXPECT_GT(r.sim.counters.stolenCycles, 0u); // the bill is charged
    EXPECT_EQ(r.sim.counters.interferenceRetires, 0u); // no adaptation
    EXPECT_EQ(r.sim.counters.interferenceReexpands, 0u);
}

// ---------------------------------------------------------------------
// Graceful slab-carve failure (satellite 1)
// ---------------------------------------------------------------------

TEST(SlabFallback, CarveReturnsNullOnInjectedFailureThenRecovers)
{
    NumaArena::failNextCarvesForTesting(2);
    EXPECT_EQ(NumaArena::carveSlab(1 << 16), nullptr);
    EXPECT_EQ(NumaArena::carveSlab(1 << 16), nullptr);
    void *slab = NumaArena::carveSlab(1 << 16); // injection exhausted
    ASSERT_NE(slab, nullptr);
    NumaArena::releaseSlab(slab);
}

TEST(SlabFallback, RuntimeServesJobsOnHeapFramesWhenCarvesFail)
{
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    Runtime rt(o);
    // Every carve for a while fails: first-spawn slow paths on both
    // workers degrade to plain heap frames instead of aborting.
    NumaArena::failNextCarvesForTesting(64);
    std::atomic<int> ran{0};
    JobHandle h = rt.submit([&] {
        TaskGroup tg;
        for (int i = 0; i < 128; ++i)
            tg.spawn([&] { ran.fetch_add(1); });
        tg.sync();
    });
    h.wait();
    NumaArena::failNextCarvesForTesting(0); // clear leftover injection
    EXPECT_EQ(h.outcome(), JobOutcome::Done);
    EXPECT_EQ(ran.load(), 128);
    EXPECT_GE(rt.stats().counters.slabFallbacks, 1u);
}

TEST(SlabFallback, DataPlaneFallsBackToPlainHeapBlocks)
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    Runtime rt(o);
    NumaArena::failNextCarvesForTesting(64);
    std::atomic<bool> ok{false};
    JobHandle h = rt.submit([&] {
        // Pool-class size: heap allocateSlow fails its carve, falls
        // through to the arena (also failing) and lands on the plain
        // heap — the block must still be writable and freeable.
        void *p = numa::allocate(256);
        ok.store(p != nullptr);
        if (p != nullptr) {
            std::memset(p, 0xab, 256);
            numa::deallocate(p);
        }
    });
    h.wait();
    NumaArena::failNextCarvesForTesting(0);
    EXPECT_EQ(h.outcome(), JobOutcome::Done);
    EXPECT_TRUE(ok.load());
    EXPECT_GE(rt.stats().counters.dataSlabFallbacks, 1u);
}

// ---------------------------------------------------------------------
// Stall watchdog (satellite 2)
// ---------------------------------------------------------------------

TEST(Watchdog, WedgedJobProducesADumpAndRecoveryStopsThem)
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    o.watchdogMs = 20;
    Runtime rt(o);

    std::atomic<bool> release{false};
    JobHandle h = rt.submit([&] {
        // Deliberately wedged: no task or job completes while this
        // spins, which is exactly the signature the watchdog dumps on.
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    EXPECT_TRUE(awaitFor([&] { return rt.watchdogDumps() >= 1; }, 10s))
        << "watchdog never fired on a wedged runtime";
    release.store(true, std::memory_order_release);
    h.wait();
    EXPECT_EQ(h.outcome(), JobOutcome::Done);

    // Recovered: progress resumed, so the dump count stabilizes. (The
    // watchdog only observes — it must never kill or unwedge work.)
    const uint64_t settled = rt.watchdogDumps();
    std::atomic<int> ran{0};
    JobHandle after = rt.submit([&] { ran.fetch_add(1); });
    after.wait();
    EXPECT_EQ(ran.load(), 1);
    std::this_thread::sleep_for(100ms);
    EXPECT_EQ(rt.watchdogDumps(), settled);
}

TEST(Watchdog, IdleRuntimeNeverDumps)
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    o.watchdogMs = 10;
    Runtime rt(o);
    std::this_thread::sleep_for(100ms);
    EXPECT_EQ(rt.watchdogDumps(), 0u); // no active work, no stall
}

TEST(Watchdog, OffByDefaultSpawnsNoMonitor)
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    Runtime rt(o);
    EXPECT_EQ(o.watchdogMs, 0);
    std::atomic<bool> release{false};
    JobHandle h = rt.submit([&] {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(rt.watchdogDumps(), 0u); // wedged, but nobody watches
    release.store(true, std::memory_order_release);
    h.wait();
    EXPECT_EQ(h.outcome(), JobOutcome::Done);
}
