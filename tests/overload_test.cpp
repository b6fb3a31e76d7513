/**
 * @file
 * PR 7 overload protection: job outcomes, cooperative cancellation,
 * deadlines, admission control, QueueDelay shedding, graceful teardown,
 * and the simulator mirror's byte-determinism under overload.
 *
 * Concurrency tests follow the repo's 1-core-host discipline: no
 * wall-clock speed assertions, only ordering, outcomes, counters, and
 * bounded liveness. Where a scenario needs a job to *stay queued*, a
 * blocker job pins the single worker so the queue state is
 * deterministic, and the blocker is released through an atomic flag.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "numaws.h"
#include "sched/shed_core.h"
#include "sim/serving.h"
#include "workloads/workloads.h"

using namespace numaws;
using namespace std::chrono_literals;

namespace {

RuntimeOptions
oneWorker()
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    return o;
}

/** Spin until @p flag turns true (bounded by the test timeout). */
void
awaitFlag(const std::atomic<bool> &flag)
{
    while (!flag.load(std::memory_order_acquire))
        std::this_thread::yield();
}

/** A job body that parks its worker until released. */
struct Blocker
{
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};

    auto
    body()
    {
        return [this] {
            started.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
        };
    }
};

} // namespace

// ---------------------------------------------------------------------
// ShedCore units (the engine-shared brain)
// ---------------------------------------------------------------------

TEST(ShedCore, NonePolicyAdmitsEverythingEvenOverCapacity)
{
    ServingPolicy p;
    p.shed = ShedPolicy::None;
    p.laneCapacity[0] = 1;
    ShedCore core(p);
    EXPECT_FALSE(core.enabled());
    EXPECT_TRUE(core.admit(0, 1000));
    EXPECT_FALSE(core.overloaded());
}

TEST(ShedCore, RejectPolicyHonorsPerLaneCapacity)
{
    ServingPolicy p;
    p.shed = ShedPolicy::Reject;
    p.laneCapacity[0] = 2;
    p.laneCapacity[1] = 0; // 0 = unbounded
    ShedCore core(p);
    EXPECT_TRUE(core.enabled());
    EXPECT_TRUE(core.admit(0, 0));
    EXPECT_TRUE(core.admit(0, 1));
    EXPECT_FALSE(core.admit(0, 2));
    EXPECT_FALSE(core.admit(0, 100));
    EXPECT_TRUE(core.admit(1, 1 << 20));
    // Capacity alone never flags overload (that is QueueDelay's signal).
    EXPECT_FALSE(core.overloaded());
}

TEST(ShedCore, DelayEwmaSeedsThenConvergesAndFlagsOverload)
{
    ServingPolicy p;
    p.shed = ShedPolicy::QueueDelay;
    p.queueDelayTargetUs[0] = 100; // 100us target on the latency class
    ShedCore core(p);
    EXPECT_EQ(core.delayEwmaNs(0), 0);
    EXPECT_FALSE(core.overloaded());
    // First observation seeds the filter outright.
    core.observeDelay(0, 40'000);
    EXPECT_EQ(core.delayEwmaNs(0), 40'000);
    EXPECT_FALSE(core.overloaded()); // 40us < 100us target
    // Sustained 200us observations walk the EWMA up past the target.
    for (int i = 0; i < 32; ++i)
        core.observeDelay(0, 200'000);
    EXPECT_GT(core.delayEwmaNs(0), 100'000);
    EXPECT_TRUE(core.overloaded());
    // And back down once the queue drains.
    for (int i = 0; i < 64; ++i)
        core.observeDelay(0, 0);
    EXPECT_FALSE(core.overloaded());
}

// ---------------------------------------------------------------------
// JobHandle hardening (invalid-use panics, not null derefs)
// ---------------------------------------------------------------------

using JobHandleDeathTest = ::testing::Test;

TEST(JobHandleDeathTest, AccessorsPanicWithMessageOnInvalidHandle)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    JobHandle h;
    ASSERT_FALSE(h.valid());
    EXPECT_DEATH(h.wait(), "JobHandle::wait on an invalid handle");
    EXPECT_DEATH((void)h.outcome(),
                 "JobHandle::outcome on an invalid handle");
    EXPECT_DEATH((void)h.cancel(),
                 "JobHandle::cancel on an invalid handle");
    EXPECT_DEATH((void)h.latencyNs(),
                 "JobHandle::latencyNs on an invalid handle");
    EXPECT_DEATH((void)h.waitFor(1000),
                 "JobHandle::waitFor on an invalid handle");
}

TEST(JobHandleDeathTest, MovedFromHandlePanicsToo)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Runtime rt(oneWorker());
    JobHandle h = rt.submit([] {});
    JobHandle moved = std::move(h);
    moved.wait();
    EXPECT_DEATH((void)h.done(), "JobHandle::done on an invalid handle");
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(Cancel, QueuedJobIsSkippedAtClaimTimeAndNeverStarts)
{
    Runtime rt(oneWorker());
    Blocker b;
    JobHandle blocker = rt.submit(b.body());
    awaitFlag(b.started);
    std::atomic<bool> ran{false};
    JobHandle victim = rt.submit([&ran] { ran.store(true); });
    EXPECT_TRUE(victim.cancel()); // recorded while still queued
    b.release.store(true, std::memory_order_release);
    blocker.wait();
    victim.wait(); // returns normally; the outcome tells the story
    EXPECT_FALSE(ran.load());
    EXPECT_EQ(victim.outcome(), JobOutcome::Cancelled);
    EXPECT_EQ(blocker.outcome(), JobOutcome::Done);
    const RuntimeStats s = rt.stats();
    const auto &normal =
        s.jobOutcomes[static_cast<int>(JobClass::Normal)];
    EXPECT_EQ(normal.cancelled, 1u);
    EXPECT_EQ(normal.done, 1u);
    // Never-ran jobs stay out of the latency percentiles.
    EXPECT_EQ(s.jobLatency.count(), 1u);
}

TEST(Cancel, RunningJobUnwindsAtSpawnBoundary)
{
    Runtime rt(oneWorker());
    std::atomic<bool> started{false};
    std::atomic<uint64_t> leaves{0};
    JobHandle h = rt.submit([&] {
        started.store(true, std::memory_order_release);
        // Spawn forever: only the cooperative boundary check can end
        // this loop. A missed cancellation hangs the test (bounded
        // liveness is the assertion).
        for (;;) {
            TaskGroup tg;
            tg.spawn([&leaves] { leaves.fetch_add(1); });
            tg.sync();
        }
    });
    awaitFlag(started);
    EXPECT_TRUE(h.cancel());
    h.wait();
    EXPECT_EQ(h.outcome(), JobOutcome::Cancelled);
    EXPECT_GE(h.execNs(), 0);
}

TEST(Cancel, TokenPollingBodyObservesCancelWithoutSpawning)
{
    Runtime rt(oneWorker());
    // Off-runtime there is no enclosing job: the token is invalid and
    // never reports cancellation.
    EXPECT_FALSE(currentCancelToken().valid());
    std::atomic<bool> started{false};
    std::atomic<bool> token_valid{false};
    JobHandle h = rt.submit([&] {
        const CancelToken tok = currentCancelToken();
        token_valid.store(tok.valid());
        started.store(true, std::memory_order_release);
        while (!tok.cancelled())
            std::this_thread::yield();
        tok.throwIfCancelled(); // the explicit-poll unwind
        ADD_FAILURE() << "throwIfCancelled did not throw";
    });
    awaitFlag(started);
    EXPECT_TRUE(h.cancel());
    h.wait();
    EXPECT_TRUE(token_valid.load());
    EXPECT_EQ(h.outcome(), JobOutcome::Cancelled);
}

TEST(Cancel, TokenPropagatesIntoSpawnedSubtasks)
{
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    Runtime rt(o);
    std::atomic<bool> all_valid{true};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 16; ++i)
            tg.spawn([&all_valid] {
                if (!currentCancelToken().valid())
                    all_valid.store(false);
            });
        tg.sync();
    });
    EXPECT_TRUE(all_valid.load());
}

TEST(Cancel, DoubleCancelIsIdempotentAndLateCancelReportsFalse)
{
    Runtime rt(oneWorker());
    Blocker b;
    JobHandle blocker = rt.submit(b.body());
    awaitFlag(b.started);
    JobHandle victim = rt.submit([] {});
    EXPECT_TRUE(victim.cancel());
    EXPECT_TRUE(victim.cancel()); // still unresolved: both report true
    b.release.store(true, std::memory_order_release);
    victim.wait();
    EXPECT_EQ(victim.outcome(), JobOutcome::Cancelled);
    EXPECT_FALSE(victim.cancel()); // resolved: the request is moot
    blocker.wait();
    // A cancel that loses the race outright: the job already finished.
    JobHandle done = rt.submit([] {});
    done.wait();
    EXPECT_FALSE(done.cancel());
    EXPECT_EQ(done.outcome(), JobOutcome::Done);
}

TEST(Cancel, CancelVsStartAndFinishRacesAlwaysResolve)
{
    // Hammer the claim-time and finish-time races from a second thread:
    // whatever interleaving lands, every job resolves to Done or
    // Cancelled (never Pending, never Failed) and every wait returns.
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    Runtime rt(o);
    int done_count = 0;
    int cancelled_count = 0;
    for (int i = 0; i < 300; ++i) {
        JobHandle h = rt.submit([] {
            volatile int x = 0;
            for (int k = 0; k < 50; ++k)
                x = x + k;
        });
        if (i % 3 == 0)
            std::this_thread::yield();
        h.cancel();
        h.wait();
        const JobOutcome out = h.outcome();
        ASSERT_TRUE(out == JobOutcome::Done
                    || out == JobOutcome::Cancelled)
            << "iteration " << i << ": " << jobOutcomeName(out);
        (out == JobOutcome::Done ? done_count : cancelled_count)++;
    }
    const auto &c = rt.stats().jobOutcomes[static_cast<int>(
        JobClass::Normal)];
    EXPECT_EQ(c.done, static_cast<uint64_t>(done_count));
    EXPECT_EQ(c.cancelled, static_cast<uint64_t>(cancelled_count));
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

TEST(Deadline, ExpiresAtDequeueWithoutStarting)
{
    Runtime rt(oneWorker());
    Blocker b;
    JobHandle blocker = rt.submit(b.body());
    awaitFlag(b.started);
    std::atomic<bool> ran{false};
    JobOptions opts;
    opts.deadlineNs = 1'000'000; // 1ms, spent entirely in the queue
    JobHandle victim = rt.submit([&ran] { ran.store(true); }, opts);
    std::this_thread::sleep_for(5ms); // let the deadline lapse queued
    b.release.store(true, std::memory_order_release);
    victim.wait();
    EXPECT_FALSE(ran.load());
    EXPECT_EQ(victim.outcome(), JobOutcome::Expired);
    blocker.wait();
    EXPECT_EQ(rt.stats()
                  .jobOutcomes[static_cast<int>(JobClass::Normal)]
                  .expired,
              1u);
}

TEST(Deadline, ExpiresMidRunAtSpawnBoundary)
{
    Runtime rt(oneWorker());
    JobOptions opts;
    opts.deadlineNs = 10'000'000; // 10ms
    JobHandle h = rt.submit(
        [] {
            // Spawn until the deadline boundary check fires; a missed
            // expiry hangs the test.
            for (;;) {
                TaskGroup tg;
                tg.spawn([] {
                    std::this_thread::sleep_for(500us);
                });
                tg.sync();
            }
        },
        opts);
    h.wait();
    EXPECT_EQ(h.outcome(), JobOutcome::Expired);
}

TEST(Deadline, SpawnOnlyBodyExpiresAtAmortizedSpawnBoundary)
{
    // The spawn boundary reads the deadline clock only on every
    // kDeadlineCheckPeriod-th spawn of a worker. A body that only
    // spawns (no explicit sync) must still stop within one period once
    // the deadline has passed — not run its loop to the end and merely
    // flip to Expired at the finish edge.
    Runtime rt(oneWorker());
    JobOptions opts;
    opts.deadlineNs = 50'000'000; // 50ms: the claim lands well inside
    std::atomic<int> spawned{0};
    std::atomic<bool> loop_finished{false};
    JobHandle h = rt.submit(
        [&] {
            std::this_thread::sleep_for(60ms); // overshoot the deadline
            TaskGroup tg;
            for (int i = 0; i < 10'000; ++i) {
                tg.spawn([] {});
                spawned.fetch_add(1, std::memory_order_relaxed);
            }
            loop_finished.store(true);
        },
        opts);
    h.wait();
    EXPECT_EQ(h.outcome(), JobOutcome::Expired);
    EXPECT_FALSE(loop_finished.load());
    EXPECT_LT(spawned.load(),
              static_cast<int>(Worker::kDeadlineCheckPeriod));
}

TEST(Deadline, LateFinishWithoutBoundariesStillResolvesExpired)
{
    // A body that runs past its deadline but never hits a spawn/sync
    // boundary completes its work — and still resolves Expired at the
    // finish edge (the deterministic flip finishJob applies, matching
    // the simulator's clock-edge semantics).
    Runtime rt(oneWorker());
    JobOptions opts;
    // Wide margins: the claim must land inside the deadline (else the
    // job is skipped at claim time and never runs), so the deadline is
    // generous relative to any plausible claim latency on a loaded CI
    // host, and the sleep comfortably overshoots it.
    opts.deadlineNs = 50'000'000; // 50ms
    std::atomic<bool> ran{false};
    JobHandle h = rt.submit(
        [&ran] {
            std::this_thread::sleep_for(60ms);
            ran.store(true);
        },
        opts);
    h.wait();
    EXPECT_TRUE(ran.load()); // the work itself was not abandoned
    EXPECT_EQ(h.outcome(), JobOutcome::Expired);
    // Expired jobs stay out of the served-latency percentiles.
    EXPECT_EQ(rt.stats().jobLatency.count(), 0u);
}

TEST(Deadline, WaitForTimesOutThenSucceeds)
{
    Runtime rt(oneWorker());
    Blocker b;
    JobHandle blocker = rt.submit(b.body());
    awaitFlag(b.started);
    JobHandle h = rt.submit([] {});
    EXPECT_FALSE(h.waitFor(2'000'000)); // 2ms: still queued behind b
    EXPECT_FALSE(h.done());
    b.release.store(true, std::memory_order_release);
    h.wait();
    EXPECT_TRUE(h.waitFor(1)); // already done: true without blocking
    EXPECT_EQ(h.outcome(), JobOutcome::Done);
    blocker.wait();
}

// ---------------------------------------------------------------------
// Admission control and shedding
// ---------------------------------------------------------------------

TEST(Admission, RejectPolicyBoundsLaneDepthDeterministically)
{
    RuntimeOptions o = oneWorker();
    o.sched.serving.shed = ShedPolicy::Reject;
    o.sched.serving.laneCapacity[static_cast<int>(JobClass::Normal)] = 3;
    Runtime rt(o);
    Blocker b;
    JobHandle blocker = rt.submit(b.body());
    awaitFlag(b.started);
    // Worker pinned: exactly laneCapacity jobs queue, the rest bounce.
    std::vector<JobHandle> hs;
    for (int i = 0; i < 8; ++i)
        hs.push_back(rt.submit([] {}));
    int rejected = 0;
    for (JobHandle &h : hs) {
        if (h.outcome() == JobOutcome::Rejected) {
            ++rejected;
            // Rejected handles resolve synchronously at submit.
            EXPECT_TRUE(h.done());
            h.wait(); // returns immediately, no exception
        }
    }
    EXPECT_EQ(rejected, 5);
    b.release.store(true, std::memory_order_release);
    for (JobHandle &h : hs)
        h.wait();
    blocker.wait();
    const auto &c =
        rt.stats().jobOutcomes[static_cast<int>(JobClass::Normal)];
    EXPECT_EQ(c.rejected, 5u);
    EXPECT_EQ(c.shed, 0u);
    EXPECT_EQ(c.done, 4u); // blocker + the 3 queued jobs
}

TEST(Admission, MultiSubmitterStressNeverHangsAndTalliesAddUp)
{
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    o.sched.serving.shed = ShedPolicy::Reject;
    for (int c = 0; c < kNumServingClasses; ++c)
        o.sched.serving.laneCapacity[c] = 2;
    Runtime rt(o);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::atomic<int> done{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&rt, &done, &rejected, t] {
            for (int i = 0; i < kPerThread; ++i) {
                JobOptions opts;
                opts.cls =
                    static_cast<JobClass>((t + i) % kNumJobClasses);
                JobHandle h = rt.submit(
                    [] {
                        volatile int x = 0;
                        for (int k = 0; k < 200; ++k)
                            x = x + k;
                    },
                    opts);
                h.wait();
                const JobOutcome out = h.outcome();
                if (out == JobOutcome::Done)
                    done.fetch_add(1);
                else if (out == JobOutcome::Rejected)
                    rejected.fetch_add(1);
                else
                    ADD_FAILURE()
                        << "unexpected outcome " << jobOutcomeName(out);
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    EXPECT_EQ(done.load() + rejected.load(), kThreads * kPerThread);
    uint64_t stat_done = 0;
    uint64_t stat_rejected = 0;
    const RuntimeStats s = rt.stats();
    for (int c = 0; c < kNumJobClasses; ++c) {
        stat_done += s.jobOutcomes[c].done;
        stat_rejected += s.jobOutcomes[c].rejected;
        EXPECT_EQ(s.jobOutcomes[c].shed, 0u);
    }
    EXPECT_EQ(stat_done, static_cast<uint64_t>(done.load()));
    EXPECT_EQ(stat_rejected, static_cast<uint64_t>(rejected.load()));
    // Latency percentiles cover exactly the served jobs.
    EXPECT_EQ(s.jobLatency.count(), stat_done);
}

TEST(Shedding, QueueDelayShedsOnceOverloadedAndCountsTheCause)
{
    RuntimeOptions o = oneWorker();
    o.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        o.sched.serving.queueDelayTargetUs[c] = 1; // 1us: trip easily
    Runtime rt(o);
    // Phase 1: trip the delay EWMA over target — pin the worker, let a
    // job soak in the queue, release. Either the soaked job's claim
    // observes the multi-millisecond delay, or an earlier claim already
    // tripped the 1us target and the soaked job was itself shed; both
    // paths end overloaded.
    Blocker b1;
    JobHandle blocker1 = rt.submit(b1.body());
    awaitFlag(b1.started);
    JobHandle soaked = rt.submit([] {});
    std::this_thread::sleep_for(5ms); // queue delay >> 1us target
    b1.release.store(true, std::memory_order_release);
    soaked.wait();
    blocker1.wait();
    EXPECT_TRUE(rt.shedCore().overloaded());
    // Phase 2: pin the worker again — the blocker arrives into empty
    // lanes, so CoDel's standing-queue rule admits it unshed and the
    // worker claims it. Every further admission finds a standing queue
    // while overloaded and sheds one victim from the lowest class:
    // submitting Batch B1, Batch B2, then Latency L sheds B1 (B2's
    // admission) and B2 (L's admission), leaving only L queued — the
    // Latency job is structurally the last to feel the shedding.
    Blocker b2;
    JobHandle blocker2 = rt.submit(b2.body());
    awaitFlag(b2.started);
    JobOptions batch;
    batch.cls = JobClass::Batch;
    JobHandle victim1 = rt.submit([] {}, batch);
    JobHandle victim2 = rt.submit([] {}, batch);
    EXPECT_EQ(victim1.outcome(), JobOutcome::Rejected);
    JobOptions lat;
    lat.cls = JobClass::Latency;
    JobHandle protectee = rt.submit([] {}, lat);
    EXPECT_EQ(victim2.outcome(), JobOutcome::Rejected);
    b2.release.store(true, std::memory_order_release);
    protectee.wait();
    blocker2.wait();
    EXPECT_EQ(protectee.outcome(), JobOutcome::Done);
    const RuntimeStats s = rt.stats();
    const auto &batch_counts =
        s.jobOutcomes[static_cast<int>(JobClass::Batch)];
    EXPECT_EQ(batch_counts.shed, 2u);
    EXPECT_EQ(batch_counts.rejected, 0u); // sheds, not capacity bounces
    EXPECT_EQ(s.jobOutcomes[static_cast<int>(JobClass::Latency)].shed,
              0u);
}

// ---------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------

TEST(Shutdown, CancelQueuedResolvesEveryLaneWithoutRunning)
{
    Blocker b;
    std::atomic<int> ran{0};
    std::vector<JobHandle> queued;
    std::thread releaser;
    {
        RuntimeOptions o = oneWorker();
        o.shutdownPolicy = ShutdownPolicy::CancelQueued;
        Runtime rt(o);
        JobHandle blocker = rt.submit(b.body());
        awaitFlag(b.started);
        // One queued job in every lane while the only worker is pinned.
        for (int c = 0; c < kNumJobClasses; ++c) {
            JobOptions opts;
            opts.cls = static_cast<JobClass>(c);
            queued.push_back(
                rt.submit([&ran] { ran.fetch_add(1); }, opts));
        }
        // The destructor first cancels the queue (the worker is still
        // pinned, so all three are there), then waits for the blocker —
        // released from a helper thread so teardown can finish.
        releaser = std::thread([&b] {
            std::this_thread::sleep_for(20ms);
            b.release.store(true, std::memory_order_release);
        });
    }
    releaser.join();
    EXPECT_EQ(ran.load(), 0);
    for (JobHandle &h : queued) {
        EXPECT_TRUE(h.done());
        EXPECT_EQ(h.outcome(), JobOutcome::Cancelled);
        h.wait(); // returns normally after the runtime is gone
    }
}

TEST(Shutdown, DrainPolicyStillRunsQueuedJobs)
{
    std::atomic<int> ran{0};
    {
        Runtime rt(oneWorker()); // default ShutdownPolicy::Drain
        for (int i = 0; i < 4; ++i)
            rt.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 4);
}

// ---------------------------------------------------------------------
// Simulator mirror
// ---------------------------------------------------------------------

namespace {

struct SimOverloadSetup
{
    sim::ComputationDag dag;
    std::vector<sim::SimJob> jobs;
};

/** @p n fib(10) jobs arriving at @p rate_per_sec, round-robin classes. */
SimOverloadSetup
overloadSetup(int n, double rate_per_sec, uint64_t seed = 7)
{
    SimOverloadSetup s;
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
            roots[static_cast<std::size_t>(i)], at[static_cast<std::size_t>(i)],
            i % 3};
    }
    return s;
}

} // namespace

TEST(SimOverload, OutcomeTalliesPartitionTheJobsAndShedOnlyUnderQueueDelay)
{
    SimOverloadSetup s = overloadSetup(120, 2e6); // far over capacity
    sim::SimConfig cfg;
    cfg.sched.serving.shed = ShedPolicy::None;
    const sim::ServingResult none =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_EQ(none.done, s.jobs.size());
    EXPECT_EQ(none.rejected + none.expired + none.cancelled, 0u);
    EXPECT_GT(none.goodputPerSec, 0.0);

    cfg.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        cfg.sched.serving.queueDelayTargetUs[c] = 5;
    const sim::ServingResult qd =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_EQ(qd.done + qd.expired + qd.cancelled + qd.rejected,
              s.jobs.size());
    EXPECT_GT(qd.shed, 0u);
    EXPECT_EQ(qd.shed, qd.rejected); // no capacities: all rejects are sheds
    // Shedding keeps the claim queue short: the served jobs' queue
    // delay collapses against the unprotected run's.
    EXPECT_LT(qd.queueP99Us, none.queueP99Us);
}

TEST(SimOverload, RejectPolicyBouncesAtArrivalWhenLanesAreFull)
{
    SimOverloadSetup s = overloadSetup(120, 2e6);
    sim::SimConfig cfg;
    cfg.sched.serving.shed = ShedPolicy::Reject;
    for (int c = 0; c < kNumServingClasses; ++c)
        cfg.sched.serving.laneCapacity[c] = 2;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_EQ(r.shed, 0u); // submit-time rejections, not sheds
    EXPECT_EQ(r.done + r.rejected + r.expired + r.cancelled,
              s.jobs.size());
    // Rejected jobs resolve at their arrival instant.
    for (const sim::SimJobStats &j : r.jobs) {
        if (j.outcome == JobOutcome::Rejected && !j.shed) {
            EXPECT_DOUBLE_EQ(j.finishCycles, j.arrivalCycles);
        }
    }
}

TEST(SimOverload, DeadlinesExpireQueuedAndLateJobsDeterministically)
{
    SimOverloadSetup s = overloadSetup(60, 2e6);
    // Give every third job a deadline too tight for an overloaded
    // queue; cancel every seventh shortly after its arrival.
    for (std::size_t i = 0; i < s.jobs.size(); ++i) {
        if (i % 3 == 0)
            s.jobs[i].deadlineCycles = s.jobs[i].arrivalCycles + 1000.0;
        if (i % 7 == 0)
            s.jobs[i].cancelAtCycles = s.jobs[i].arrivalCycles + 500.0;
    }
    sim::SimConfig cfg;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_GT(r.expired, 0u);
    EXPECT_GT(r.cancelled, 0u);
    EXPECT_EQ(r.done + r.expired + r.cancelled + r.rejected,
              s.jobs.size());
    // Latency percentiles are a statement about served jobs only.
    EXPECT_EQ(r.latency.count(), r.done);
}

TEST(SimOverload, OverloadRunsAreByteDeterministic)
{
    SimOverloadSetup s = overloadSetup(100, 2e6);
    for (std::size_t i = 0; i < s.jobs.size(); ++i)
        if (i % 4 == 0)
            s.jobs[i].deadlineCycles =
                s.jobs[i].arrivalCycles + 50'000.0;
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        cfg.sched.serving.queueDelayTargetUs[c] = 10;

    const sim::ServingResult a =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    const sim::ServingResult b =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].outcome, b.jobs[i].outcome) << "job " << i;
        EXPECT_EQ(a.jobs[i].shed, b.jobs[i].shed) << "job " << i;
        // Bitwise-equal doubles, not approximately equal: the decision
        // sequence must be identical, not merely close.
        EXPECT_EQ(a.jobs[i].startCycles, b.jobs[i].startCycles);
        EXPECT_EQ(a.jobs[i].finishCycles, b.jobs[i].finishCycles);
    }
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.expired, b.expired);
    EXPECT_EQ(a.sim.elapsedCycles, b.sim.elapsedCycles);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.queueP99Us, b.queueP99Us);
    EXPECT_EQ(a.goodputPerSec, b.goodputPerSec);
}
