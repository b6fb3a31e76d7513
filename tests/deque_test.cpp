/**
 * @file
 * THE-protocol deque tests: sequential LIFO/FIFO semantics, the
 * one-element owner/thief conflict, and multithreaded stress tests
 * (a deep deque, and a one-element race every round) checking that
 * every pushed item is extracted exactly once.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "deque/ws_deque.h"

namespace numaws {
namespace {

struct Node
{
    int value;
};

TEST(WsDeque, OwnerLifoOrder)
{
    WsDeque<Node> d(16);
    Node a{1}, b{2}, c{3};
    d.pushTail(&a);
    d.pushTail(&b);
    d.pushTail(&c);
    EXPECT_EQ(d.popTail(), &c);
    EXPECT_EQ(d.popTail(), &b);
    EXPECT_EQ(d.popTail(), &a);
    EXPECT_EQ(d.popTail(), nullptr);
}

TEST(WsDeque, ThiefFifoOrder)
{
    WsDeque<Node> d(16);
    Node a{1}, b{2}, c{3};
    d.pushTail(&a);
    d.pushTail(&b);
    d.pushTail(&c);
    EXPECT_EQ(d.stealHead(), &a);
    EXPECT_EQ(d.stealHead(), &b);
    EXPECT_EQ(d.stealHead(), &c);
    EXPECT_EQ(d.stealHead(), nullptr);
}

TEST(WsDeque, OwnerAndThiefMeetInTheMiddle)
{
    WsDeque<Node> d(16);
    Node n[4] = {{0}, {1}, {2}, {3}};
    for (auto &x : n)
        d.pushTail(&x);
    EXPECT_EQ(d.stealHead(), &n[0]);
    EXPECT_EQ(d.popTail(), &n[3]);
    EXPECT_EQ(d.stealHead(), &n[1]);
    EXPECT_EQ(d.popTail(), &n[2]);
    EXPECT_TRUE(d.empty());
}

TEST(WsDeque, EmptyChecks)
{
    WsDeque<Node> d(8);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0);
    Node a{1};
    d.pushTail(&a);
    EXPECT_FALSE(d.empty());
    EXPECT_EQ(d.size(), 1);
    d.popTail();
    EXPECT_TRUE(d.empty());
}

TEST(WsDeque, WrapsAroundRingBuffer)
{
    WsDeque<Node> d(4);
    Node n[3] = {{0}, {1}, {2}};
    for (int round = 0; round < 10; ++round) {
        for (auto &x : n)
            d.pushTail(&x);
        EXPECT_EQ(d.stealHead(), &n[0]);
        EXPECT_EQ(d.popTail(), &n[2]);
        EXPECT_EQ(d.popTail(), &n[1]);
        EXPECT_EQ(d.popTail(), nullptr);
    }
}

TEST(WsDeque, PopReportsWhetherItemsRemain)
{
    WsDeque<Node> d(8);
    Node a{1}, b{2};
    d.pushTail(&a);
    d.pushTail(&b);
    bool more = false;
    EXPECT_EQ(d.popTail(more), &b);
    EXPECT_TRUE(more);
    EXPECT_EQ(d.popTail(more), &a);
    EXPECT_FALSE(more);
    more = true;
    EXPECT_EQ(d.popTail(more), nullptr);
    EXPECT_FALSE(more);
}

TEST(WsDeque, CapacityRoundsUpToPowerOfTwo)
{
    // Three requested slots become four: four items fit and wrap.
    WsDeque<Node> d(3);
    Node n[4] = {{0}, {1}, {2}, {3}};
    for (int round = 0; round < 5; ++round) {
        for (auto &x : n)
            d.pushTail(&x);
        EXPECT_EQ(d.stealHead(), &n[0]);
        EXPECT_EQ(d.popTail(), &n[3]);
        EXPECT_EQ(d.popTail(), &n[2]);
        EXPECT_EQ(d.stealHead(), &n[1]);
        EXPECT_TRUE(d.empty());
    }
}

/** Owner pushes/pops while thieves steal; every node must be extracted
 * exactly once across all parties. */
TEST(WsDequeStress, NoLossNoDuplication)
{
    constexpr int kItems = 200000;
    constexpr int kThieves = 3;
    // Capacity covers the worst case (owner pushes all items before any
    // extraction); overflow is a panic by design, not a resize.
    WsDeque<Node> d(1 << 18);
    std::vector<Node> nodes(kItems);
    for (int i = 0; i < kItems; ++i)
        nodes[i].value = i;

    std::vector<std::atomic<int>> extracted(kItems);
    for (auto &e : extracted)
        e.store(0);
    std::atomic<bool> done{false};
    std::atomic<int64_t> total{0};

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            int64_t mine = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (Node *n = d.stealHead()) {
                    extracted[n->value].fetch_add(1);
                    ++mine;
                }
            }
            // Final drain.
            while (Node *n = d.stealHead()) {
                extracted[n->value].fetch_add(1);
                ++mine;
            }
            total.fetch_add(mine);
        });
    }

    int64_t owner_got = 0;
    for (int i = 0; i < kItems; ++i) {
        d.pushTail(&nodes[i]);
        // Pop occasionally so the owner contends at the tail.
        if (i % 3 == 0) {
            if (Node *n = d.popTail()) {
                extracted[n->value].fetch_add(1);
                ++owner_got;
            }
        }
    }
    while (Node *n = d.popTail()) {
        extracted[n->value].fetch_add(1);
        ++owner_got;
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();
    total.fetch_add(owner_got);

    EXPECT_EQ(total.load(), kItems);
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(extracted[i].load(), 1) << "item " << i;
}

/** The one-element race, every round: the owner pushes one item and
 * pops it straight back while thieves keep stealing, so each extraction
 * runs popTail's and stealHead's store-load handshakes against each
 * other (and the owner's lock path). Each item must be extracted
 * exactly once, by the owner or by a thief. */
TEST(WsDequeStress, OneElementRaceExtractsEachItemOnce)
{
    constexpr int kRounds = 100000;
    constexpr int kThieves = 3;
    WsDeque<Node> d(16);
    std::vector<Node> nodes(kRounds);
    for (int i = 0; i < kRounds; ++i)
        nodes[i].value = i;

    std::vector<std::atomic<int>> extracted(kRounds);
    for (auto &e : extracted)
        e.store(0);
    std::atomic<bool> done{false};

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            while (!done.load(std::memory_order_acquire))
                if (Node *n = d.stealHead())
                    extracted[n->value].fetch_add(1);
        });
    }

    for (int i = 0; i < kRounds; ++i) {
        d.pushTail(&nodes[i]);
        if (Node *n = d.popTail())
            extracted[n->value].fetch_add(1);
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();

    // Every round left the deque empty: whoever lost the race retreated.
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.stealHead(), nullptr);
    for (int i = 0; i < kRounds; ++i)
        ASSERT_EQ(extracted[i].load(), 1) << "item " << i;
}

} // namespace
} // namespace numaws
