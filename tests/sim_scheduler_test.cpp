/**
 * @file
 * Simulated-scheduler tests: execution completeness, determinism, work
 * conservation across policies, load balance against place hints,
 * serial elision semantics, and basic sanity of the time split.
 */
#include <gtest/gtest.h>

#include "sim/scheduler.h"
#include "workloads/workloads.h"

namespace numaws::sim {
namespace {

ComputationDag
balancedTree(int depth, double leaf_cycles)
{
    DagBuilder b;
    b.beginRoot();
    // Recursive lambda building a binary spawn tree.
    auto rec = [&](auto &&self, int d) -> void {
        if (d == 0) {
            b.strand(leaf_cycles, {});
            return;
        }
        b.spawn(kAnyPlace);
        self(self, d - 1);
        b.end();
        self(self, d - 1);
        b.sync();
    };
    rec(rec, depth);
    b.end();
    return b.finish();
}

/**
 * All parallel work hinted at place 0 of a two-socket machine: @p mids
 * mid frames fan out @p leaves_per_mid leaves each.
 */
ComputationDag
placeZeroHeavyDag(int mids, int leaves_per_mid, double leaf_cycles)
{
    DagBuilder b;
    b.beginRoot();
    for (int m = 0; m < mids; ++m) {
        b.spawn(/*place=*/0);
        for (int l = 0; l < leaves_per_mid; ++l) {
            b.spawn(); // inherits place 0
            b.strand(leaf_cycles, {});
            b.end();
        }
        b.sync();
        b.end();
    }
    b.sync();
    b.end();
    return b.finish();
}

TEST(SimScheduler, ExecutesEveryStrand)
{
    const ComputationDag dag = balancedTree(6, 100.0);
    for (int cores : {1, 2, 8, 32}) {
        const SimResult r = simulate(dag, Machine::paperMachine(), cores,
                                     SimConfig::classicWs());
        EXPECT_EQ(r.counters.strandsExecuted, 64u) << "P=" << cores;
        EXPECT_EQ(r.counters.spawns, 63u);
    }
}

TEST(SimScheduler, DeterministicForSeed)
{
    const ComputationDag dag = balancedTree(8, 500.0);
    SimConfig cfg = SimConfig::numaWs();
    cfg.seed = 99;
    const SimResult a = simulate(dag, Machine::paperMachine(), 16, cfg);
    const SimResult b = simulate(dag, Machine::paperMachine(), 16, cfg);
    EXPECT_DOUBLE_EQ(a.elapsedCycles, b.elapsedCycles);
    EXPECT_EQ(a.counters.steals, b.counters.steals);
    EXPECT_EQ(a.counters.pushSuccesses, b.counters.pushSuccesses);
}

TEST(SimScheduler, SingleCoreHasNoStealsOrIdle)
{
    const ComputationDag dag = balancedTree(6, 100.0);
    const SimResult r =
        simulate(dag, Machine::paperMachine(), 1, SimConfig::numaWs());
    EXPECT_EQ(r.counters.steals, 0u);
    EXPECT_EQ(r.counters.stealAttempts, 0u);
    EXPECT_DOUBLE_EQ(r.idleSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.schedSeconds, 0.0);
}

TEST(SimScheduler, SerialElisionCheaperThanOneWorker)
{
    const ComputationDag dag = balancedTree(10, 200.0);
    const Machine m = Machine::paperMachine();
    const double ts =
        simulate(dag, m, 1, SimConfig::serial()).elapsedCycles;
    const double t1 =
        simulate(dag, m, 1, SimConfig::classicWs()).elapsedCycles;
    EXPECT_LT(ts, t1);          // spawn overhead exists...
    EXPECT_LT(t1 / ts, 1.15);   // ...but is small (work efficiency)
}

TEST(SimScheduler, WorkConservedAcrossPolicies)
{
    // Same dag, same strand count under any policy and core count.
    const ComputationDag dag = balancedTree(9, 300.0);
    const uint64_t expected = 512;
    for (const SimConfig &cfg :
         {SimConfig::classicWs(), SimConfig::numaWs()}) {
        for (int cores : {2, 7, 32}) {
            const SimResult r =
                simulate(dag, Machine::paperMachine(), cores, cfg);
            EXPECT_EQ(r.counters.strandsExecuted, expected);
        }
    }
}

TEST(SimScheduler, ShippedDefaultsMatchWorkOfPaperBaseline)
{
    // The board protocols the shipped defaults add (parking, PUSHBACK
    // targeting, park tuning) change *where* and *in what order* work
    // runs, never *what* runs: strand and spawn counts are invariant.
    const ComputationDag dag = placeZeroHeavyDag(8, 4, 2000.0);
    const SimResult rb = simulatePacked(dag, 16, SimConfig::numaWs());
    const SimResult rd = simulatePacked(dag, 16, SimConfig{});
    EXPECT_EQ(rb.counters.strandsExecuted, rd.counters.strandsExecuted);
    EXPECT_EQ(rb.counters.spawns, rd.counters.spawns);
}

TEST(SimScheduler, StarvingWorkersStealAgainstTheHint)
{
    // Socket 0 alone would need work/8 cycles; finishing well under
    // that bound proves socket-1 cores executed hinted work instead of
    // idling (load balance over locality).
    const ComputationDag dag = placeZeroHeavyDag(16, 8, 5000.0);
    SimConfig cfg;
    cfg.seed = 99;
    const SimResult r = simulatePacked(dag, 16, cfg);

    const double work = 16.0 * 8.0 * 5000.0;
    const double socket0_only_bound = work / 8.0; // 8 cores on socket 0
    EXPECT_LT(r.elapsedCycles, 0.9 * socket0_only_bound);
    // Sanity: more than trivially parallel, and the pushing machinery
    // actually engaged rather than being sidestepped.
    EXPECT_GT(r.elapsedCycles, work / 16.0);
    EXPECT_GT(r.counters.pushAttempts, 0u);
}

TEST(SimScheduler, ParallelismGivesSpeedup)
{
    const ComputationDag dag = balancedTree(12, 400.0);
    const Machine m = Machine::paperMachine();
    const double t1 =
        simulate(dag, m, 1, SimConfig::classicWs()).elapsedCycles;
    const double t8 =
        simulate(dag, m, 8, SimConfig::classicWs()).elapsedCycles;
    const double t32 =
        simulate(dag, m, 32, SimConfig::classicWs()).elapsedCycles;
    EXPECT_GT(t1 / t8, 5.0);
    EXPECT_GT(t1 / t32, 14.0);
    EXPECT_LT(t32, t8);
}

TEST(SimScheduler, StealsOccurWhenParallel)
{
    const ComputationDag dag = balancedTree(10, 200.0);
    const SimResult r = simulate(dag, Machine::paperMachine(), 8,
                                 SimConfig::classicWs());
    EXPECT_GT(r.counters.steals, 0u);
    EXPECT_GT(r.counters.stealAttempts, r.counters.steals);
}

TEST(SimScheduler, TimeSplitAddsUpToCoresTimesElapsed)
{
    const ComputationDag dag = balancedTree(10, 300.0);
    for (int cores : {4, 16}) {
        const SimResult r = simulate(dag, Machine::paperMachine(), cores,
                                     SimConfig::numaWs());
        const double total = r.totalProcessingSeconds();
        const double wall = r.elapsedSeconds * cores;
        // A core can overrun the finish instant by at most its final
        // step; allow a few percent.
        EXPECT_NEAR(total, wall, wall * 0.05) << "P=" << cores;
    }
}

TEST(SimScheduler, MailboxTrafficOnlyWithHints)
{
    // A hinted dag on NUMA-WS should push frames; the same dag with
    // hints stripped (kAnyPlace everywhere) must not.
    workloads::HeatParams p;
    p.nx = 256;
    p.ny = 256;
    p.steps = 4;
    p.baseRows = 16;
    const auto hinted = workloads::heatDag(
        p, 4, workloads::Placement::Partitioned, true);
    const auto unhinted = workloads::heatDag(
        p, 4, workloads::Placement::Partitioned, false);
    const SimResult rh =
        simulate(hinted, Machine::paperMachine(), 32, SimConfig::numaWs());
    const SimResult ru = simulate(unhinted, Machine::paperMachine(), 32,
                                  SimConfig::numaWs());
    EXPECT_GT(rh.counters.pushAttempts, 0u);
    EXPECT_EQ(ru.counters.pushAttempts, 0u);
}

TEST(SimScheduler, ClassicConfigNeverTouchesMailboxes)
{
    workloads::HeatParams p;
    p.nx = 256;
    p.ny = 256;
    p.steps = 4;
    p.baseRows = 16;
    const auto dag = workloads::heatDag(
        p, 4, workloads::Placement::Partitioned, true);
    const SimResult r = simulate(dag, Machine::paperMachine(), 32,
                                 SimConfig::classicWs());
    EXPECT_EQ(r.counters.pushAttempts, 0u);
    EXPECT_EQ(r.counters.mailboxPops, 0u);
    EXPECT_EQ(r.counters.mailboxSteals, 0u);
}

TEST(SimScheduler, PackedSubsetUsesFewestSockets)
{
    const ComputationDag dag = balancedTree(8, 200.0);
    const SimResult r = simulatePacked(dag, 8, SimConfig::numaWs());
    EXPECT_EQ(r.cores, 8);
    // On one socket, no access can be remote.
    EXPECT_EQ(r.memory.remoteDramLines, 0u);
}

} // namespace
} // namespace numaws::sim
