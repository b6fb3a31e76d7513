/**
 * @file
 * Tests for the machine topology and the locality-biased steal
 * distribution, including the theory-critical property that every victim
 * keeps probability >= 1/(cP) (Section IV's Lemma 1 precondition).
 */
#include <gtest/gtest.h>

#include <vector>

#include "support/stats.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

namespace numaws {
namespace {

TEST(Machine, PaperMachineMatchesFigure1)
{
    const Machine m = Machine::paperMachine();
    EXPECT_EQ(m.numSockets(), 4);
    EXPECT_EQ(m.coresPerSocket(), 8);
    EXPECT_EQ(m.numCores(), 32);
    EXPECT_DOUBLE_EQ(m.ghz(), 2.2);
    // QPI square: 0-1, 0-2, 1-3, 2-3 adjacent; 0-3, 1-2 two hops.
    EXPECT_EQ(m.hops(0, 0), 0);
    EXPECT_EQ(m.hops(0, 1), 1);
    EXPECT_EQ(m.hops(0, 2), 1);
    EXPECT_EQ(m.hops(0, 3), 2);
    EXPECT_EQ(m.hops(1, 2), 2);
    EXPECT_EQ(m.hops(2, 3), 1);
    EXPECT_EQ(m.maxHops(), 2);
}

TEST(Machine, DistanceMatrixIsSymmetric)
{
    const Machine m = Machine::paperMachine();
    for (int i = 0; i < m.numSockets(); ++i)
        for (int j = 0; j < m.numSockets(); ++j)
            EXPECT_EQ(m.distance(i, j), m.distance(j, i));
}

TEST(Machine, SocketOfCorePacksSocketMajor)
{
    const Machine m = Machine::paperMachine();
    EXPECT_EQ(m.socketOfCore(0), 0);
    EXPECT_EQ(m.socketOfCore(7), 0);
    EXPECT_EQ(m.socketOfCore(8), 1);
    EXPECT_EQ(m.socketOfCore(31), 3);
    const auto [b, e] = m.coreRangeOfSocket(2);
    EXPECT_EQ(b, 16);
    EXPECT_EQ(e, 24);
}

TEST(Machine, SubsetUsesFewestSockets)
{
    EXPECT_EQ(Machine::paperMachineSubset(1).numSockets(), 1);
    EXPECT_EQ(Machine::paperMachineSubset(8).numSockets(), 1);
    EXPECT_EQ(Machine::paperMachineSubset(9).numSockets(), 2);
    EXPECT_EQ(Machine::paperMachineSubset(16).numSockets(), 2);
    EXPECT_EQ(Machine::paperMachineSubset(24).numSockets(), 3);
    EXPECT_EQ(Machine::paperMachineSubset(32).numSockets(), 4);
}

TEST(Machine, CyclesToSecondsUsesFrequency)
{
    const Machine m = Machine::paperMachine();
    EXPECT_DOUBLE_EQ(m.cyclesToSeconds(2.2e9), 1.0);
}

TEST(Machine, DescribeMentionsTopology)
{
    const std::string d = Machine::paperMachine().describe();
    EXPECT_NE(d.find("4-socket"), std::string::npos);
    EXPECT_NE(d.find("SLIT"), std::string::npos);
}

TEST(StealDistribution, RowsSumToOne)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    for (int t = 0; t < 32; ++t) {
        double sum = 0.0;
        for (int v = 0; v < 32; ++v)
            sum += d.probability(t, v);
        EXPECT_NEAR(sum, 1.0, 1e-9);
        EXPECT_DOUBLE_EQ(d.probability(t, t), 0.0);
    }
}

TEST(StealDistribution, BiasOrdersByHopCount)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    // Thief on socket 0: local victims > one-hop victims > two-hop.
    const double local = d.probability(0, 1);   // worker 1, socket 0
    const double one_hop = d.probability(0, 8); // worker 8, socket 1
    const double two_hop = d.probability(0, 24); // worker 24, socket 3
    EXPECT_GT(local, one_hop);
    EXPECT_GT(one_hop, two_hop);
    EXPECT_GT(two_hop, 0.0);
}

TEST(StealDistribution, UniformWeightsRecoverClassic)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights::uniform());
    for (int v = 1; v < 32; ++v)
        EXPECT_NEAR(d.probability(0, v), 1.0 / 31.0, 1e-12);
}

TEST(StealDistribution, MinProbabilityStaysConstantFactorOfUniform)
{
    // The proof needs every victim hit with probability >= 1/(cP); with
    // the default 8:2:1 weights, c is a small constant.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    const double uniform = 1.0 / 31.0;
    EXPECT_GT(d.minProbability(), uniform / 8.0);
}

TEST(StealDistribution, SamplingMatchesProbabilities)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 16, BiasWeights{});
    Rng rng(123);
    CategoryCounter counts(16);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        counts.add(static_cast<std::size_t>(d.sample(3, rng)));
    EXPECT_EQ(counts.count(3), 0); // never self
    for (int v = 0; v < 16; ++v) {
        if (v == 3)
            continue;
        EXPECT_NEAR(counts.fraction(static_cast<std::size_t>(v)),
                    d.probability(3, v), 0.01)
            << "victim " << v;
    }
}

TEST(StealDistribution, EvenSpreadAssignsWorkersToSockets)
{
    const Machine m = Machine::paperMachine();
    // 12 workers on the 4-socket machine: ceil(12/4)=3 per socket.
    const StealDistribution d(m, 12, BiasWeights{});
    EXPECT_EQ(d.socketOfWorker(0), 0);
    EXPECT_EQ(d.socketOfWorker(2), 0);
    EXPECT_EQ(d.socketOfWorker(3), 1);
    EXPECT_EQ(d.socketOfWorker(11), 3);
}

TEST(StealDistribution, PackingCanLeaveTrailingSocketsEmpty)
{
    // Packing is ceil(W/S) workers per socket, not an even spread: 6
    // workers on 4 sockets fill sockets 0-2 with two each, and socket 3
    // gets none.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 6, BiasWeights{});
    const std::vector<int> expected = {0, 0, 1, 1, 2, 2};
    EXPECT_EQ(d.workerSockets(), expected);
}

TEST(StealDistribution, TwoWorkersAlwaysPickEachOther)
{
    const Machine m = Machine::singleSocket(2);
    const StealDistribution d(m, 2, BiasWeights{});
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(d.sample(0, rng), 1);
        EXPECT_EQ(d.sample(1, rng), 0);
    }
}

} // namespace
} // namespace numaws
