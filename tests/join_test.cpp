/**
 * @file
 * TaskGroup join-counter coverage: the owner-local counter (plain
 * spawn/local-completion counts, an atomic only for children that left
 * the worker) under real stealing, mailbox routing, stolen-child
 * exceptions, nesting, and the destructor's implicit sync.
 *
 * Every test runs 200 jobs on 4 workers over 2 places. A "holder" child
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
