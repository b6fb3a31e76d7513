/**
 * @file
 * StealCore policy-core tests: the differential engine-parity replay
 * and the EWMA park-tuning units.
 *
 * The parity test is the lock on PR 4's contract: the threaded runtime
 * and the simulator are thin drivers over one shared StealCore, so for
 * the same policy, seed, and topology they must make *identical*
 * decisions. Two drivers — one shaped like Worker::trySteal/mainLoop,
 * one shaped like the simulator's stepStealAttempt/run loop — replay
 * the same recorded world trace through separate cores under a mock
 * EngineView and must emit byte-identical action sequences. If someone
 * reintroduces an engine-side policy branch (the pre-PR 4 disease),
 * the traces diverge here before any bench gate can drift.
 *
 * The ShedCore claim-lane parity test locks the serving side of the
 * same contract: both engines' claim loops pick their lane through
 * ShedCore::claimLane, checked here exhaustively against brute force.
 *
 * Runs under ASan/UBSan in CI's sanitizer job.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sched/policy.h"
#include "sched/shed_core.h"
#include "sched/steal_core.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

using namespace numaws;

namespace {

// ---------------------------------------------------------------------
// Mock engine: a deterministic world both drivers replay in lockstep
// ---------------------------------------------------------------------

/**
 * Work-queue state for every worker plus an exact OccupancyBoard (the
 * simulator's discipline: every transition published at its mutation
 * site). All mutations are functions of the core's actions and a
 * private fixed-seed refill RNG, so two replays with equally-seeded
 * cores see identical worlds at every step.
 */
struct MockWorld
{
    const StealDistribution &dist;
    OccupancyBoard board;
    std::vector<int> deq;
    std::vector<int> mail;
    Rng refill{123};

    explicit MockWorld(const StealDistribution &d)
        : dist(d),
          board(d.numWorkers(), d.workerSockets()),
          deq(static_cast<std::size_t>(d.numWorkers()), 0),
          mail(static_cast<std::size_t>(d.numWorkers()), 0)
    {}

    void
    setDeque(int w, int n)
    {
        deq[static_cast<std::size_t>(w)] = n;
        board.publishDeque(w, n > 0);
    }

    void
    setMail(int w, int n)
    {
        mail[static_cast<std::size_t>(w)] = n;
        board.publishMailbox(w, n > 0);
    }

    /** Take one parked frame; false when the mailbox is empty. */
    bool
    takeMailbox(int w)
    {
        if (mail[static_cast<std::size_t>(w)] == 0)
            return false;
        setMail(w, mail[static_cast<std::size_t>(w)] - 1);
        return true;
    }

    /**
     * Steal one frame from @p w's deque. One shared semantic for both
     * drivers — the mock replaces the engines' deque mechanics, not the
     * core's decisions.
     * @return false on a failed probe (empty deque).
     */
    bool
    takeDeque(int w)
    {
        const int have = deq[static_cast<std::size_t>(w)];
        if (have == 0)
            return false;
        setDeque(w, have - 1);
        return true;
    }

    /** Periodic refill: pseudo-random but a pure function of the
     * refill RNG, identical across replays. */
    void
    refillSome()
    {
        for (int w = 0; w < dist.numWorkers(); ++w) {
            if (refill.nextBounded(4) == 0)
                setDeque(w, static_cast<int>(refill.nextBounded(6)));
            if (refill.nextBounded(8) == 0)
                setMail(w, static_cast<int>(refill.nextBounded(2)));
        }
    }

    /** Workers [first, last) of @p socket (even-spread packing). */
    std::pair<int, int>
    workersOfSocket(int socket) const
    {
        int first = -1, last = -1;
        for (int w = 0; w < dist.numWorkers(); ++w) {
            if (dist.socketOfWorker(w) == socket) {
                if (first < 0)
                    first = w;
                last = w + 1;
            }
        }
        return {first, last};
    }
};

std::string
serialize(const StealAction &a)
{
    std::ostringstream s;
    s << "P v" << a.victim << " m" << a.checkMailboxFirst;
    return s.str();
}

/**
 * One steal-path step, shaped like the named engine's driver. The two
 * shapes make the same core calls in the same order (that is PR 4's
 * point); they differ in how the surrounding mechanics would charge or
 * execute them, which the mock abstracts away. `threaded_shape` keeps
 * the cosmetic differences honest: e.g. the threaded driver passes
 * self=-1 to pickPushReceiver (its pusher is never in the target
 * range) where the sim passes its core id — same decision by contract.
 */
void
replayStep(StealCore &core, MockWorld &world, bool threaded_shape,
           int step, std::string &trace)
{
    if (step % 7 == 0)
        world.refillSome();

    const StealAction a = core.nextAction();
    trace += serialize(a);
    bool got = false;
    if (a.checkMailboxFirst)
        got = world.takeMailbox(a.victim);
    if (!got)
        got = world.takeDeque(a.victim);
    trace += got ? "|hit" : "|miss";

    // A successful steal on every 3rd step runs a PUSHBACK episode
    // toward the next socket over (pusher outside the target range).
    if (got && step % 3 == 0) {
        const int sockets = world.board.numSockets();
        const int target = (core.socket() + 1) % sockets;
        const auto [first, last] = world.workersOfSocket(target);
        uint32_t push_count = 0;
        while (push_count
               < static_cast<uint32_t>(core.pushThreshold())) {
            const int receiver = core.pickPushReceiver(
                first, last,
                threaded_shape ? -1 : core.self(), target);
            // Mock acceptance rule: capacity-1 mailboxes.
            const bool ok =
                world.mail[static_cast<std::size_t>(receiver)] == 0;
            trace += " push r" + std::to_string(receiver)
                     + (ok ? "+" : "-");
            if (ok) {
                world.setMail(receiver,
                              world.mail[static_cast<std::size_t>(
                                  receiver)]
                                  + 1);
                break;
            }
            ++push_count;
        }
    }

    // Park protocol: fruitless steps feed the streak; a park request
    // resolves immediately against the board (the mock's "wake").
    if (got) {
        core.noteProgress();
    } else {
        core.noteFruitless();
        if (core.takeParkRequest()) {
            const bool found =
                world.board.anyWorkFor(core.socket());
            trace += " park t"
                     + std::to_string(
                         static_cast<int64_t>(core.parkTimeoutUs()))
                     + (found ? "w" : "d");
            core.onParkOutcome(found);
        }
    }
    trace += "\n";
}

/** The shipped policy with a small spin budget so the EWMA park tuner
 * actually runs. */
SchedPolicy
fullPolicy()
{
    SchedPolicy p;
    p.parkSpinFailures = 4; // park often: exercise the tuner
    return p;
}

std::string
replay(bool threaded_shape, const SchedPolicy &policy, int self,
       uint64_t seed, int steps, StealCoreCounters *counters_out)
{
    const Machine machine = Machine::paperMachineSubset(16);
    StealDistribution dist(machine, 16, policy.biasWeights());
    MockWorld world(dist);
    StealCore core(policy, EngineView{&dist, &world.board}, self,
                   dist.socketOfWorker(self), seed);
    std::string trace;
    for (int step = 0; step < steps; ++step)
        replayStep(core, world, threaded_shape, step, trace);
    if (counters_out != nullptr)
        *counters_out = core.counters();
    return trace;
}

// ---------------------------------------------------------------------
// Differential engine parity
// ---------------------------------------------------------------------

TEST(EngineParity, DriversIssueByteIdenticalActionSequences)
{
    const SchedPolicy policy = fullPolicy();
    StealCoreCounters ct{}, cs{};
    const std::string threaded =
        replay(/*threaded_shape=*/true, policy, /*self=*/5,
               /*seed=*/0xfeed, /*steps=*/600, &ct);
    const std::string sim =
        replay(/*threaded_shape=*/false, policy, /*self=*/5,
               /*seed=*/0xfeed, /*steps=*/600, &cs);
    EXPECT_EQ(threaded, sim);
    // The decision counters are part of the contract too.
    EXPECT_EQ(ct.stealAttempts, cs.stealAttempts);
    // Every replay step probes exactly one victim.
    EXPECT_EQ(ct.stealAttempts, 600u);
    // And the replay genuinely exercised PUSHBACK and the park tuner.
    EXPECT_NE(threaded.find(" push r"), std::string::npos);
    EXPECT_NE(threaded.find(" park t"), std::string::npos);
}

TEST(EngineParity, HoldsAcrossSeedsWorkersAndPaperBaseline)
{
    for (const uint64_t seed : {1ULL, 0x5eedULL, 99991ULL}) {
        for (const int self : {0, 7, 15}) {
            const std::string a =
                replay(true, fullPolicy(), self, seed, 200, nullptr);
            const std::string b =
                replay(false, fullPolicy(), self, seed, 200, nullptr);
            EXPECT_EQ(a, b) << "seed=" << seed << " self=" << self;
            // The paper-literal baseline (random receivers) must
            // agree as well.
            const SchedPolicy paper = SchedPolicy::paperBaseline();
            EXPECT_EQ(replay(true, paper, self, seed, 200, nullptr),
                      replay(false, paper, self, seed, 200, nullptr))
                << "paper seed=" << seed << " self=" << self;
        }
    }
}

TEST(EngineParity, SameSeedSameTraceAcrossRuns)
{
    // Determinism of the core itself: the property that keeps the
    // simulator byte-reproducible per seed while sharing this code.
    const std::string a =
        replay(true, fullPolicy(), 3, 0xabc, 300, nullptr);
    const std::string b =
        replay(true, fullPolicy(), 3, 0xabc, 300, nullptr);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// EWMA park tuning
// ---------------------------------------------------------------------

TEST(ParkTuner, NeutralPriorMatchesConfiguredConstants)
{
    // At the neutral prior the tuned knobs equal the configured
    // constants; only evidence moves them.
    ParkTuner t(64);
    EXPECT_DOUBLE_EQ(t.dryRate(), 0.5);
    EXPECT_EQ(t.spinBudget(), 64);
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 1.0);
}

TEST(ParkTuner, ProductiveParksRaiseSpinAndShortenTimeouts)
{
    ParkTuner t(64);
    for (int i = 0; i < 64; ++i)
        t.observe(/*found_work=*/true);
    EXPECT_LT(t.dryRate(), 0.01);
    EXPECT_EQ(t.spinBudget(), 2 * 64); // clamped at 2x the base
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 0.5); // floor
}

TEST(ParkTuner, DryParksCutSpinAndStretchTimeouts)
{
    ParkTuner t(64);
    for (int i = 0; i < 64; ++i)
        t.observe(/*found_work=*/false);
    EXPECT_GT(t.dryRate(), 0.99);
    EXPECT_EQ(t.spinBudget(), 64 / 4); // floor: base/4
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 4.0); // ceiling
}

TEST(ParkTuner, BudgetNeverLeavesItsClamps)
{
    ParkTuner t(2);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        t.observe(rng.flip());
        EXPECT_GE(t.spinBudget(), 1);
        EXPECT_LE(t.spinBudget(), 4);
        EXPECT_GE(t.timeoutScale(), 0.5);
        EXPECT_LE(t.timeoutScale(), 4.0);
    }
}

TEST(StealCorePark, EwmaTuningMovesTheCoreTimeout)
{
    SchedPolicy p;
    const Machine machine = Machine::paperMachineSubset(8);
    StealDistribution dist(machine, 8, p.biasWeights());
    OccupancyBoard board(8, dist.workerSockets());
    StealCore core(p, EngineView{&dist, &board}, 0, 0, 1);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), p.parkFallbackUs);
    for (int i = 0; i < 32; ++i)
        core.onParkOutcome(/*found_work=*/false);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), 4.0 * p.parkFallbackUs);
    for (int i = 0; i < 64; ++i)
        core.onParkOutcome(/*found_work=*/true);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), 0.5 * p.parkFallbackUs);
}

TEST(StealCorePark, SpinBudgetGovernsParkRequests)
{
    SchedPolicy p;
    p.parkSpinFailures = 3;
    const Machine machine = Machine::paperMachineSubset(8);
    StealDistribution dist(machine, 8, p.biasWeights());
    OccupancyBoard board(8, dist.workerSockets());
    StealCore core(p, EngineView{&dist, &board}, 0, 0, 1);
    core.noteFruitless();
    core.noteFruitless();
    EXPECT_FALSE(core.takeParkRequest());
    core.noteFruitless();
    EXPECT_TRUE(core.takeParkRequest());
    EXPECT_FALSE(core.takeParkRequest()); // consumed
    // Progress resets the streak.
    core.noteFruitless();
    core.noteFruitless();
    core.noteProgress();
    core.noteFruitless();
    core.noteFruitless();
    EXPECT_FALSE(core.takeParkRequest());
}

// ---------------------------------------------------------------------
// ShedCore::claimLane parity: the one claim-lane decision
// ---------------------------------------------------------------------

/**
 * Every nonempty-lane mask x every @p below in 0..3 x head waits on
 * both sides of each aging step. Aging off must reproduce the strict
 * nominal scan; aging on must pick the brute-force lowest effective
 * class (nominal order breaking ties); `promoted` is set exactly when
 * aging, not nominal rank, won.
 */
TEST(ShedCoreClaimLane, MatchesStrictScanAndBruteForceAging)
{
    constexpr int kLanes = kNumServingClasses;
    constexpr int kAgingUs = 100;
    constexpr int64_t kStep = int64_t{kAgingUs} * 1000;
    const int64_t waits[] = {0,         1,         kStep - 1, kStep,
                             kStep + 1, 2 * kStep - 1, 2 * kStep,
                             9 * kStep};
    constexpr int kWaits = sizeof(waits) / sizeof(waits[0]);

    ServingPolicy aging_policy;
    aging_policy.agingWaitUs = kAgingUs;
    const ShedCore off{ServingPolicy{}};
    const ShedCore on{aging_policy};

    int cases = 0, promotions = 0;
    for (int mask = 1; mask < (1 << kLanes); ++mask) {
        for (int code = 0; code < kWaits * kWaits * kWaits; ++code) {
            int64_t head_wait[kLanes];
            for (int c = 0, rest = code; c < kLanes; ++c, rest /= kWaits)
                head_wait[c] = (mask >> c & 1) ? waits[rest % kWaits] : -1;
            for (int below = 0; below <= kLanes; ++below) {
                ++cases;
                // Aging off: the first nonempty lane strictly below.
                int strict = -1;
                for (int c = 0; c < below && strict < 0; ++c)
                    if (head_wait[c] >= 0)
                        strict = c;
                bool promoted = true;
                EXPECT_EQ(off.claimLane(head_wait, below, &promoted),
                          strict);
                EXPECT_FALSE(promoted);

                // Aging on: brute-force lowest effective class.
                int best = -1, best_eff = below;
                for (int c = 0; c < kLanes; ++c) {
                    if (head_wait[c] < 0)
                        continue;
                    const int64_t steps = head_wait[c] / kStep;
                    const int eff =
                        steps >= c ? 0 : c - static_cast<int>(steps);
                    if (eff < best_eff) {
                        best_eff = eff;
                        best = c;
                    }
                }
                EXPECT_EQ(on.claimLane(head_wait, below, &promoted), best)
                    << "mask=" << mask << " code=" << code
                    << " below=" << below;
                EXPECT_EQ(promoted, best >= 0 && best_eff < best);
                promotions += promoted;
                // The out-pointer is optional.
                EXPECT_EQ(on.claimLane(head_wait, below, nullptr), best);
            }
        }
    }
    EXPECT_EQ(cases, 7 * kWaits * kWaits * kWaits * (kLanes + 1));
    EXPECT_GT(promotions, 0);
}

/**
 * The shed-victim lane both engines take from ShedCore::shedLane: for
 * every lane-depth mask, with and without a standing queue, overloaded
 * or not, it is the brute-force lowest-priority nonempty lane exactly
 * when the queue stands and the delay signal is over target, else -1.
 */
TEST(ShedCoreShedLane, LowestNonemptyLaneOnlyWhileOverloadedAndStanding)
{
    constexpr int kLanes = kNumServingClasses;
    ServingPolicy pol;
    pol.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kLanes; ++c)
        pol.queueDelayTargetUs[c] = 10;
    int cases = 0, sheds = 0;
    for (const bool overloaded : {false, true}) {
        ShedCore core(pol);
        // 1ms observed against a 10us target is over; 1us is under.
        core.observeDelay(kLanes - 1, overloaded ? 1'000'000 : 1'000);
        ASSERT_EQ(core.overloaded(), overloaded);
        for (int mask = 0; mask < (1 << kLanes); ++mask) {
            int64_t depth[kLanes];
            for (int c = 0; c < kLanes; ++c)
                depth[c] = (mask >> c & 1) ? c + 1 : 0;
            int lowest = -1;
            for (int c = 0; c < kLanes; ++c)
                if (depth[c] > 0)
                    lowest = c;
            for (const bool standing : {false, true}) {
                ++cases;
                const int want = standing && overloaded ? lowest : -1;
                EXPECT_EQ(core.shedLane(standing, depth), want)
                    << "mask=" << mask << " standing=" << standing
                    << " overloaded=" << overloaded;
                sheds += want >= 0;
            }
        }
    }
    EXPECT_EQ(cases, 2 * (1 << kLanes) * 2);
    EXPECT_EQ(sheds, (1 << kLanes) - 1);
    // Policies without delay targets never shed at admission.
    const int64_t full[kLanes] = {1, 1, 1};
    EXPECT_EQ(ShedCore(ServingPolicy{}).shedLane(true, full), -1);
}

} // namespace
