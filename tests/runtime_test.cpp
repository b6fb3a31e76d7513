/**
 * @file
 * Threaded runtime tests: fork-join correctness, nesting, exceptions,
 * parallel_for semantics, repeated runs, work-stealing liveness, and
 * stats() polled while workers run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "workloads/workloads.h"

namespace numaws {
namespace {

RuntimeOptions
smallOptions(int workers, int places = 1)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = places;
    return o;
}

TEST(Runtime, RunsRootToCompletion)
{
    Runtime rt(smallOptions(2));
    int x = 0;
    rt.run([&] { x = 42; });
    EXPECT_EQ(x, 42);
}

TEST(Runtime, RepeatedRunsWork)
{
    Runtime rt(smallOptions(2));
    int total = 0;
    for (int i = 0; i < 20; ++i)
        rt.run([&] { ++total; });
    EXPECT_EQ(total, 20);
}

TEST(Runtime, SingleWorkerExecutesEverything)
{
    Runtime rt(smallOptions(1));
    EXPECT_EQ(workloads::fibParallel(rt, 20, 5),
              workloads::fibSerial(20));
}

TEST(Runtime, FibMatchesSerial)
{
    Runtime rt(smallOptions(4));
    EXPECT_EQ(workloads::fibParallel(rt, 24, 10),
              workloads::fibSerial(24));
}

TEST(Runtime, SpawnsActuallyRunConcurrentTasks)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> count{0};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 100; ++i)
            tg.spawn([&] { count.fetch_add(1); });
        tg.sync();
    });
    EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, NestedGroups)
{
    Runtime rt(smallOptions(3));
    std::atomic<int> leaves{0};
    rt.run([&] {
        TaskGroup outer;
        for (int i = 0; i < 8; ++i) {
            outer.spawn([&] {
                TaskGroup inner;
                for (int j = 0; j < 8; ++j)
                    inner.spawn([&] { leaves.fetch_add(1); });
                inner.sync();
            });
        }
        outer.sync();
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(Runtime, GroupDestructorSyncs)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> done{0};
    rt.run([&] {
        {
            TaskGroup tg;
            for (int i = 0; i < 16; ++i)
                tg.spawn([&] { done.fetch_add(1); });
            // no explicit sync: the destructor must wait
        }
        EXPECT_EQ(done.load(), 16);
    });
}

TEST(Runtime, ExceptionPropagatesFromSpawnedTask)
{
    Runtime rt(smallOptions(2));
    EXPECT_THROW(
        rt.run([&] {
            TaskGroup tg;
            tg.spawn([] { throw std::runtime_error("boom"); });
            tg.sync();
        }),
        std::runtime_error);
}

TEST(Runtime, ExceptionFromRootPropagates)
{
    Runtime rt(smallOptions(2));
    EXPECT_THROW(rt.run([] { throw std::logic_error("root"); }),
                 std::logic_error);
    // The runtime stays usable afterwards.
    int x = 0;
    rt.run([&] { x = 1; });
    EXPECT_EQ(x, 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    Runtime rt(smallOptions(4));
    std::vector<std::atomic<int>> hits(1000);
    rt.run([&] {
        parallelFor(0, 1000, 16, [&](int64_t i) { hits[i].fetch_add(1); });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> count{0};
    rt.run([&] {
        parallelFor(5, 5, 4, [&](int64_t) { count.fetch_add(1); });
        parallelFor(5, 6, 4, [&](int64_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForPlaces, CoversRange)
{
    Runtime rt(smallOptions(4, 2));
    std::vector<std::atomic<int>> hits(512);
    rt.run([&] {
        parallelForPlaces(0, 512, 8,
                          [&](int64_t lo, int64_t hi) {
                              for (int64_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ChunkOf, PartitionsEvenly)
{
    int64_t covered = 0;
    for (int c = 0; c < 7; ++c) {
        const RangeChunk rc = chunkOf(100, 7, c);
        covered += rc.end - rc.begin;
        EXPECT_LE(rc.end - rc.begin, 15);
        EXPECT_GE(rc.end - rc.begin, 14);
    }
    EXPECT_EQ(covered, 100);
    EXPECT_EQ(chunkOf(100, 7, 0).begin, 0);
    EXPECT_EQ(chunkOf(100, 7, 6).end, 100);
}

TEST(Runtime, StatsCountSpawnsAndTasks)
{
    Runtime rt(smallOptions(2));
    rt.resetStats();
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 50; ++i)
            tg.spawn([] {});
        tg.sync();
    });
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.counters.spawns, 50u);
    // 50 spawned tasks + 1 root.
    EXPECT_EQ(s.counters.tasksExecuted, 51u);

    // One worker, nested groups: every child is popped back by its own
    // group's sync and runs on the join's lean path, which must count
    // it and recycle its frame exactly like executeTask. The first run
    // warms the frame pool, so the second allocates no fresh frame.
    Runtime one(smallOptions(1));
    EXPECT_EQ(workloads::fibParallel(one, 20, 2), workloads::fibSerial(20));
    one.resetStats();
    EXPECT_EQ(workloads::fibParallel(one, 20, 2), workloads::fibSerial(20));
    const RuntimeStats f = one.stats();
    EXPECT_GT(f.counters.spawns, 0u);
    EXPECT_EQ(f.counters.tasksExecuted, f.counters.spawns + 1);
    EXPECT_EQ(f.counters.framesRecycled, f.counters.spawns);
}

uint64_t
fibSpawning(int n)
{
    if (n < 2)
        return static_cast<uint64_t>(n);
    uint64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n] { a = fibSpawning(n - 1); });
    const uint64_t b = fibSpawning(n - 2);
    tg.sync();
    return a + b;
}

/** Spawns fibSpawning(n) issues: one per call with n >= 2. */
uint64_t
fibSpawnCount(int n)
{
    return n < 2 ? 0 : 1 + fibSpawnCount(n - 1) + fibSpawnCount(n - 2);
}

/** Every counter, time bucket and outcome tally of @p s, in a fixed
 * order. WorkerCounters is all uint64_t fields, so it is copied whole
 * and a newly added counter is checked too. */
std::vector<uint64_t>
statWords(const RuntimeStats &s)
{
    static_assert(sizeof(WorkerCounters) % sizeof(uint64_t) == 0);
    std::vector<uint64_t> w(sizeof(WorkerCounters) / sizeof(uint64_t));
    std::memcpy(w.data(), &s.counters, sizeof(WorkerCounters));
    for (int b = 0; b < TimeSplit::NumBuckets; ++b)
        w.push_back(static_cast<uint64_t>(
            s.time.ns(static_cast<TimeSplit::Bucket>(b))));
    for (const JobOutcomeCounts &o : s.jobOutcomes)
        for (uint64_t v : {o.done, o.failed, o.cancelled, o.expired,
                           o.rejected, o.shed})
            w.push_back(v);
    return w;
}

TEST(Runtime, StatsPolledWhileWorkersRunNeverGoBackwards)
{
    constexpr int kJobs = 24;
    constexpr int kFib = 16;
    Runtime rt(smallOptions(4));
    // Odd while a resetStats() is in flight: a poll is compared with the
    // previous one only if both saw the same even value around stats().
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> polls{0};
    std::atomic<uint64_t> compared{0};
    std::atomic<uint64_t> decreases{0};
    std::thread poller([&] {
        std::vector<uint64_t> prev;
        uint64_t prev_epoch = 1;
        while (!stop.load()) {
            const uint64_t e = epoch.load();
            const std::vector<uint64_t> cur = statWords(rt.stats());
            const bool stable = (e & 1) == 0 && epoch.load() == e;
            if (stable && e == prev_epoch) {
                for (std::size_t i = 0; i < cur.size(); ++i)
                    if (cur[i] < prev[i])
                        decreases.fetch_add(1);
                compared.fetch_add(1);
            }
            prev = cur;
            prev_epoch = stable ? e : 1;
            polls.fetch_add(1);
            std::this_thread::yield();
        }
    });
    auto burst = [&] {
        std::vector<JobHandle> handles;
        for (int j = 0; j < kJobs; ++j)
            handles.push_back(rt.submit([] {
                EXPECT_EQ(fibSpawning(kFib), workloads::fibSerial(kFib));
            }));
        for (JobHandle &h : handles)
            h.wait();
    };
    burst();
    epoch.fetch_add(1);
    rt.resetStats();
    epoch.fetch_add(1);
    burst();
    // Three more polls after the last job: the one in flight may have
    // read the epoch mid-reset, but the next two both start after it
    // and compare, so at least one comparison is guaranteed.
    const uint64_t seen = polls.load();
    while (polls.load() < seen + 3)
        std::this_thread::yield();
    stop.store(true);
    poller.join();
    EXPECT_GT(compared.load(), 0u);
    EXPECT_EQ(decreases.load(), 0u);

    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.counters.spawns, kJobs * fibSpawnCount(kFib));
    EXPECT_EQ(s.counters.tasksExecuted, s.counters.spawns + kJobs);
    EXPECT_EQ(s.counters.jobsCompleted, static_cast<uint64_t>(kJobs));
    uint64_t done = 0;
    for (const JobOutcomeCounts &o : s.jobOutcomes)
        done += o.done;
    EXPECT_EQ(done, static_cast<uint64_t>(kJobs));
}

TEST(Runtime, ResetStatsReadsLikeAFreshRuntime)
{
    // One worker: no steals, so every count below is deterministic.
    Runtime reset(smallOptions(1));
    workloads::fibParallel(reset, 20, 2);
    reset.resetStats();
    workloads::fibParallel(reset, 20, 2);
    const WorkerCounters a = reset.stats().counters;

    Runtime fresh(smallOptions(1));
    workloads::fibParallel(fresh, 20, 2);
    const WorkerCounters first = fresh.stats().counters;
    workloads::fibParallel(fresh, 20, 2);
    const WorkerCounters both = fresh.stats().counters;

    EXPECT_EQ(a.spawns, first.spawns);
    EXPECT_EQ(a.tasksExecuted, first.tasksExecuted);
    // The second run recycles from a warm pool on either runtime.
    EXPECT_EQ(a.framesRecycled, both.framesRecycled - first.framesRecycled);
    EXPECT_EQ(a.framesRecycled, a.spawns);
    // The slab gauge survives the reset: it is never subtracted.
    EXPECT_GT(a.slabBytes, 0u);
    EXPECT_EQ(a.slabBytes, both.slabBytes);
}

TEST(Runtime, ApiQueriesInsideAndOutside)
{
    EXPECT_EQ(currentPlace(), kAnyPlace);
    EXPECT_EQ(currentRuntime(), nullptr);
    Runtime rt(smallOptions(4, 2));
    rt.run([&] {
        EXPECT_EQ(numPlaces(), 2);
        EXPECT_NE(currentRuntime(), nullptr);
        EXPECT_GE(currentPlace(), 0);
    });
}

TEST(Runtime, ManySmallRunsDoNotLeakWork)
{
    Runtime rt(smallOptions(3));
    for (int round = 0; round < 30; ++round) {
        std::atomic<int> n{0};
        rt.run([&] {
            TaskGroup tg;
            for (int i = 0; i < 20; ++i)
                tg.spawn([&] { n.fetch_add(1); });
            tg.sync();
        });
        ASSERT_EQ(n.load(), 20) << "round " << round;
    }
}

} // namespace
} // namespace numaws
