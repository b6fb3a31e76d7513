/**
 * @file
 * TaskGroup join-counter coverage: the owner-local counter (plain
 * spawn/local-completion counts, an atomic only for children that left
 * the worker) under real stealing, mailbox routing, stolen-child
 * exceptions, nesting, and the destructor's implicit sync; and the
 * join's lean path (Worker::runLocalChild, for the joining group's own
 * children) beside the full executeTask path it keeps for other tasks.
 *
 * Every test runs 200 jobs, most on 4 workers over 2 places. A "holder" child
 * — spawned last, so the owner pops it first inside sync() — keeps the
 * owner inside sync until a sibling has run elsewhere. Its waits yield
 * and are bounded, so a host that never steals only weakens coverage,
 * never hangs; the suite asserts the coverage in aggregate. It runs under
 * ThreadSanitizer in CI, so it never calls Runtime::stats() while
 * workers run (the known, separate counter race): where a child ran is
 * observed from inside the child instead.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "runtime/api.h"

namespace numaws {
namespace {

constexpr int kIterations = 200;

RuntimeOptions
fourWorkersTwoPlaces()
{
    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    return o;
}

RuntimeOptions
oneWorker()
{
    RuntimeOptions o;
    o.numWorkers = 1;
    return o;
}

int64_t
outstandingFrames(Runtime &rt)
{
    int64_t n = 0;
    for (int w = 0; w < rt.numWorkers(); ++w)
        n += rt.worker(w).framePool().outstanding();
    return n;
}

/** Frames still live once every run has returned, waiting (bounded) for
 * thieves that finished a stolen child after its join — a thief bumps
 * the group's counter before it routes the frame home. No worker
 * allocates or frees locally between runs, so the owner-written pool
 * counters are quiescent here. */
int64_t
settledOutstandingFrames(Runtime &rt)
{
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    int64_t n = outstandingFrames(rt);
    while (n != 0 && std::chrono::steady_clock::now() < limit) {
        std::this_thread::yield();
        n = outstandingFrames(rt);
    }
    return n;
}

int
workerId()
{
    return Worker::current()->id();
}

/** Wait until @p flag is set or a short bound passes. */
void
holdUntil(const std::atomic<bool> &flag)
{
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (!flag.load(std::memory_order_acquire)
           && std::chrono::steady_clock::now() < limit)
        std::this_thread::yield();
}

/** A few microseconds of work, so thieves have something to take. */
void
briefWork()
{
    volatile uint64_t x = 1;
    for (int k = 0; k < 2000; ++k)
        x = x * 3 + 1;
}

/**
 * Makes one group complete children on both paths. The holder waits
 * for a thief to start a child; that stolen child then waits for the
 * owner to run one locally. (A thief woken by the owner's push often
 * lands on the owner's CPU, so without the second wait it would drain
 * the whole deque while the owner sits descheduled in the holder.)
 */
struct BothPaths
{
    const int owner = workerId();
    std::atomic<bool> stolen{false};
    std::atomic<bool> local{false};
    std::atomic<int> away{0};
    std::atomic<int> done{0};

    void
    child()
    {
        if (workerId() != owner) {
            away.fetch_add(1);
            stolen.store(true, std::memory_order_release);
            holdUntil(local);
        } else {
            local.store(true, std::memory_order_release);
        }
        briefWork();
        done.fetch_add(1);
    }

    void
    holder()
    {
        holdUntil(stolen);
        done.fetch_add(1);
    }
};

int64_t
fibNested(int n)
{
    if (n < 2)
        return n;
    int64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n] { a = fibNested(n - 1); });
    const int64_t b = fibNested(n - 2);
    tg.sync();
    return a + b;
}

TEST(TaskGroupJoin, ChildrenStolenMidSync)
{
    // One group, both completion paths: thieves take children from the
    // head while the owner, inside sync(), drains the tail.
    Runtime rt(fourWorkersTwoPlaces());
    constexpr int kChildren = 16;
    int stolen_runs = 0;
    int local_runs = 0;
    for (int it = 0; it < kIterations; ++it) {
        int ran = -1;
        int64_t pending_after = -1;
        int away = 0;
        rt.run([&] {
            BothPaths b;
            TaskGroup tg;
            for (int i = 0; i < kChildren; ++i)
                tg.spawn([&b] { b.child(); });
            tg.spawn([&b] { b.holder(); });
            tg.sync();
            ran = b.done.load();
            pending_after = tg.pending();
            away = b.away.load();
        });
        ASSERT_EQ(ran, kChildren + 1) << "iteration " << it;
        ASSERT_EQ(pending_after, 0) << "iteration " << it;
        stolen_runs += away;
        local_runs += kChildren - away;
    }
    EXPECT_GT(stolen_runs, 0) << "no child ever left its spawner";
    EXPECT_GT(local_runs, 0) << "the owner never ran a child itself";
}

TEST(TaskGroupJoin, MailboxRoutedChildren)
{
    // Children hinted at the other place: a thief on the spawner's
    // place pushes them into the hinted place's mailboxes (or a worker
    // there steals them directly). Either way they run stolen.
    Runtime rt(fourWorkersTwoPlaces());
    int on_hinted = 0;
    for (int it = 0; it < kIterations; ++it) {
        int ran = -1;
        int hinted = 0;
        rt.run([&] {
            const Place other = 1 - currentPlace();
            std::atomic<int> done{0};
            std::atomic<int> there{0};
            std::atomic<bool> arrived{false};
            TaskGroup tg;
            for (int i = 0; i < 6; ++i)
                tg.spawn(
                    [&, other] {
                        briefWork();
                        if (currentPlace() == other) {
                            there.fetch_add(1);
                            arrived.store(true, std::memory_order_release);
                        }
                        done.fetch_add(1);
                    },
                    other);
            tg.spawn([&] {
                holdUntil(arrived);
                done.fetch_add(1);
            });
            tg.sync();
            ran = done.load();
            hinted = there.load();
        });
        ASSERT_EQ(ran, 7) << "iteration " << it;
        on_hinted += hinted;
    }
    EXPECT_GT(on_hinted, 0) << "no hinted child reached its place";
}

TEST(TaskGroupJoin, StolenChildExceptionRethrownAtSync)
{
    // Two throwing children, both likely stolen by different thieves:
    // concurrent recordException calls, one exception rethrown.
    Runtime rt(fourWorkersTwoPlaces());
    int caught = 0;
    int stolen_throws = 0;
    for (int it = 0; it < kIterations; ++it) {
        bool rethrown = false;
        int away = 0;
        rt.run([&] {
            const int owner = workerId();
            std::atomic<int> started{0};
            std::atomic<int> elsewhere{0};
            std::atomic<bool> both{false};
            TaskGroup tg;
            for (int i = 0; i < 2; ++i)
                tg.spawn([&, owner] {
                    if (workerId() != owner)
                        elsewhere.fetch_add(1);
                    if (started.fetch_add(1) == 1)
                        both.store(true, std::memory_order_release);
                    throw std::runtime_error("child");
                });
            tg.spawn([&] { holdUntil(both); });
            try {
                tg.sync();
            } catch (const std::runtime_error &) {
                rethrown = true;
            }
            away = elsewhere.load();
        });
        ASSERT_TRUE(rethrown) << "iteration " << it;
        ++caught;
        stolen_throws += away;
    }
    EXPECT_EQ(caught, kIterations);
    EXPECT_GT(stolen_throws, 0) << "no throwing child was ever stolen";
}

/**
 * The lean path's exception plumbing: a child spawned last — so the
 * owner pops it first, inside sync(), on Worker::runLocalChild — throws
 * while its siblings are still pending. sync() must keep joining and
 * rethrow only once every sibling has finished, and every frame must
 * come back to its pool. The thrower is hinted at the owner's place
 * (the root runs unhinted), so it also checks the lean path's hint.
 */
void
localChildThrowsBeforeSiblings(Runtime &rt, int *lean_throws)
{
    constexpr int kSiblings = 8;
    for (int it = 0; it < kIterations; ++it) {
        bool rethrown = false;
        int done_at_rethrow = -1;
        int64_t pending_after = -1;
        bool on_owner = false;
        bool hint_ok = false;
        rt.run([&] {
            const int owner = workerId();
            const Place home = currentPlace();
            std::atomic<int> siblings_done{0};
            std::atomic<bool> threw_on_owner{false};
            TaskGroup tg;
            for (int i = 0; i < kSiblings; ++i)
                tg.spawn([&siblings_done] {
                    briefWork();
                    siblings_done.fetch_add(1);
                });
            tg.spawn(
                [&threw_on_owner, &hint_ok, owner, home] {
                    if (workerId() == owner)
                        threw_on_owner.store(true);
                    hint_ok = Worker::current()->currentHint() == home;
                    throw std::runtime_error("local child");
                },
                home);
            try {
                tg.sync();
            } catch (const std::runtime_error &) {
                rethrown = true;
                done_at_rethrow = siblings_done.load();
            }
            pending_after = tg.pending();
            on_owner = threw_on_owner.load();
        });
        ASSERT_TRUE(rethrown) << "iteration " << it;
        ASSERT_EQ(done_at_rethrow, kSiblings) << "iteration " << it;
        ASSERT_EQ(pending_after, 0) << "iteration " << it;
        ASSERT_TRUE(hint_ok) << "iteration " << it;
        *lean_throws += on_owner ? 1 : 0;
    }
    EXPECT_EQ(settledOutstandingFrames(rt), 0);
}

TEST(TaskGroupJoin, LocalChildExceptionWaitsForSiblingsOneWorker)
{
    Runtime rt(oneWorker());
    int lean_throws = 0;
    localChildThrowsBeforeSiblings(rt, &lean_throws);
    EXPECT_EQ(lean_throws, kIterations);
}

TEST(TaskGroupJoin, LocalChildExceptionWaitsForSiblingsFourWorkers)
{
    Runtime rt(fourWorkersTwoPlaces());
    int lean_throws = 0;
    localChildThrowsBeforeSiblings(rt, &lean_throws);
    EXPECT_GT(lean_throws, 0) << "the thrower never ran on its owner";
}

TEST(TaskGroupJoin, OuterGroupTaskPoppedBySyncKeepsItsJobAndHint)
{
    // The inner group's child C is the oldest entry on the deque, so a
    // thief takes it; the outer group's task X, hinted at the other
    // place, is the youngest, so inner.sync() pops it back itself. X is
    // not the joined group's child and must run with its own context —
    // its hint and its job — and complete on its own group.
    Runtime rt(fourWorkersTwoPlaces());
    int covered = 0;
    for (int it = 0; it < kIterations; ++it) {
        bool hint_ok = false;
        bool job_ok = false;
        int64_t inner_after = -1;
        int64_t outer_after = -1;
        bool popped_by_sync = false;
        rt.run([&] {
            const int owner = workerId();
            const Place other = 1 - currentPlace();
            JobState *const job = Worker::current()->currentJob();
            std::atomic<bool> c_away{false};
            std::atomic<bool> x_ran{false};
            std::atomic<bool> x_on_owner{false};
            TaskGroup outer;
            {
                TaskGroup inner;
                inner.spawn([&, owner] {
                    if (workerId() != owner) {
                        c_away.store(true, std::memory_order_release);
                        holdUntil(x_ran);
                    }
                    briefWork();
                });
                outer.spawn(
                    [&, owner, other, job] {
                        Worker *w = Worker::current();
                        hint_ok = w->currentHint() == other;
                        job_ok = job != nullptr && w->currentJob() == job;
                        // The owner runs X only inside inner.sync().
                        if (workerId() == owner) {
                            x_on_owner.store(true);
                            holdUntil(c_away);
                        }
                        x_ran.store(true, std::memory_order_release);
                    },
                    other);
                inner.sync();
                inner_after = inner.pending();
            }
            outer.sync();
            outer_after = outer.pending();
            popped_by_sync = x_on_owner.load() && c_away.load();
        });
        ASSERT_TRUE(hint_ok) << "iteration " << it;
        ASSERT_TRUE(job_ok) << "iteration " << it;
        ASSERT_EQ(inner_after, 0) << "iteration " << it;
        ASSERT_EQ(outer_after, 0) << "iteration " << it;
        covered += popped_by_sync ? 1 : 0;
    }
    EXPECT_GT(covered, 0)
        << "inner.sync() never ran the outer task while its child was away";
}

TEST(TaskGroupJoin, NestedGroups)
{
    // Every node owns a group; stolen subtrees sync their own groups on
    // the thief, whose counters are then owner-local to *it*.
    Runtime rt(fourWorkersTwoPlaces());
    for (int it = 0; it < kIterations; ++it) {
        int64_t result = -1;
        rt.run([&] { result = fibNested(14); });
        ASSERT_EQ(result, 377) << "iteration " << it;
    }
}

TEST(TaskGroupJoin, DestructorImplicitSync)
{
    Runtime rt(fourWorkersTwoPlaces());
    constexpr int kChildren = 6;
    int stolen_runs = 0;
    for (int it = 0; it < kIterations; ++it) {
        int ran = -1;
        int away = 0;
        rt.run([&] {
            BothPaths b;
            {
                TaskGroup tg;
                for (int i = 0; i < kChildren; ++i)
                    tg.spawn([&b] { b.child(); });
                tg.spawn([&b] { b.holder(); });
            } // no sync(): the destructor joins
            ran = b.done.load();
            away = b.away.load();
        });
        ASSERT_EQ(ran, kChildren + 1) << "iteration " << it;
        stolen_runs += away;
    }
    EXPECT_GT(stolen_runs, 0) << "no child ever left its spawner";
}

} // namespace
} // namespace numaws
