/**
 * @file
 * Mailbox tests. The single-entry capacity is load-bearing in the
 * Section IV analysis, so it is pinned down here, including under
 * concurrent contention.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "deque/mailbox.h"

namespace numaws {
namespace {

struct Frame
{
    int id;
};

TEST(Mailbox, PutTakeRoundTrip)
{
    Mailbox<Frame> m;
    Frame f{7};
    EXPECT_FALSE(m.full());
    EXPECT_TRUE(m.tryPut(&f));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.tryTake(), &f);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.tryTake(), nullptr);
}

TEST(Mailbox, SecondPutFailsWhileFull)
{
    Mailbox<Frame> m;
    Frame a{1}, b{2};
    EXPECT_TRUE(m.tryPut(&a));
    // Capacity one: the pusher must retry elsewhere (PUSHBACK semantics).
    EXPECT_FALSE(m.tryPut(&b));
    EXPECT_EQ(m.tryTake(), &a);
    EXPECT_TRUE(m.tryPut(&b));
    EXPECT_EQ(m.tryTake(), &b);
}

TEST(Mailbox, PeekDoesNotRemove)
{
    Mailbox<Frame> m;
    Frame f{3};
    m.tryPut(&f);
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.tryTake(), &f);
    EXPECT_EQ(m.peek(), nullptr);
}

TEST(Mailbox, DefaultCapacityIsOne)
{
    // The paper's protocol: exactly one parked frame per worker.
    Mailbox<Frame> m;
    EXPECT_EQ(m.capacity(), 1);
}

TEST(MailboxCapacity, HoldsExactlyCapacityFrames)
{
    Mailbox<Frame> m(4);
    EXPECT_EQ(m.capacity(), 4);
    Frame f[5] = {{0}, {1}, {2}, {3}, {4}};
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(m.full());
        EXPECT_TRUE(m.tryPut(&f[i])) << "slot " << i;
    }
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.occupied(), 4);
    EXPECT_FALSE(m.tryPut(&f[4])); // batch is bounded, PUSHBACK retries
    // Drain: every parked frame comes back exactly once.
    bool seen[4] = {};
    for (int i = 0; i < 4; ++i) {
        Frame *got = m.tryTake();
        ASSERT_NE(got, nullptr);
        ASSERT_GE(got->id, 0);
        ASSERT_LT(got->id, 4);
        EXPECT_FALSE(seen[got->id]);
        seen[got->id] = true;
    }
    EXPECT_EQ(m.tryTake(), nullptr);
    EXPECT_FALSE(m.full());
}

TEST(MailboxCapacity, ClampsToTheCompileTimeCap)
{
    Mailbox<Frame> m(1000);
    EXPECT_EQ(m.capacity(), kMaxMailboxCapacity);
    Mailbox<Frame> zero(0);
    EXPECT_EQ(zero.capacity(), 1);
}

TEST(MailboxBoard, PublishesOccupancyTransitions)
{
    OccupancyBoard board(2, {0, 0});
    Mailbox<Frame> m(2);
    m.attachBoard(&board, 1);
    const auto occupied = [&board](int w) {
        return (board.mailboxBits(0) & board.workerMask(w)) != 0;
    };
    Frame a{1}, b{2};
    EXPECT_FALSE(occupied(1));
    m.tryPut(&a);
    EXPECT_TRUE(occupied(1));
    EXPECT_TRUE(board.anyWorkFor(0));
    m.tryPut(&b);
    EXPECT_TRUE(occupied(1));
    m.tryTake();
    // One frame still parked: the bit stays up...
    EXPECT_TRUE(occupied(1));
    m.tryTake();
    // ...and clears when the last one leaves.
    EXPECT_FALSE(occupied(1));
    EXPECT_FALSE(occupied(0)); // neighbor untouched
    EXPECT_FALSE(board.anyWorkFor(0));
}

/** Many producers race to deposit; consumers race to take. Every frame is
 * taken exactly once and the slots never "hold" duplicate frames. */
void
exactlyOnceDelivery(int capacity)
{
    constexpr int kProducers = 3;
    constexpr int kFramesPer = 8000;
    Mailbox<Frame> m(capacity);
    std::vector<Frame> frames(kProducers * kFramesPer);
    for (int i = 0; i < static_cast<int>(frames.size()); ++i)
        frames[i].id = i;

    std::vector<std::atomic<int>> taken(frames.size());
    for (auto &t : taken)
        t.store(0);
    std::atomic<bool> done{false};

    std::thread consumer([&] {
        while (!done.load(std::memory_order_acquire)) {
            if (Frame *f = m.tryTake())
                taken[f->id].fetch_add(1);
            else
                std::this_thread::yield();
        }
        while (Frame *f = m.tryTake())
            taken[f->id].fetch_add(1);
    });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kFramesPer; ++i) {
                Frame *f = &frames[p * kFramesPer + i];
                // Yield while the slot is full: a busy-spin here livelocks
                // single-core hosts (the consumer never gets scheduled).
                while (!m.tryPut(f))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : producers)
        t.join();
    done.store(true, std::memory_order_release);
    consumer.join();

    for (std::size_t i = 0; i < frames.size(); ++i)
        ASSERT_EQ(taken[i].load(), 1) << "frame " << i;
}

TEST(MailboxStress, ExactlyOnceDelivery)
{
    exactlyOnceDelivery(1);
}

TEST(MailboxStress, ExactlyOnceDeliveryBatched)
{
    exactlyOnceDelivery(4);
}

} // namespace
} // namespace numaws
