/**
 * @file
 * OccupancyBoard tests: 0<->1 transition correctness single-threaded,
 * and the concurrency contract under real threads (run under ASan/UBSan
 * in CI): a set bit is never *invented* — reading "occupied" with
 * acquire semantics happens-after a real deposit, so the deposited frame
 * is visible — while a transiently unset bit over real work
 * (false-empty) is allowed and must only delay, never lose, work.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "deque/mailbox.h"
#include "sched/occupancy.h"

namespace numaws {
namespace {

/** 8 workers spread over 2 sockets (4 each), socket-major. */
std::vector<int>
twoSockets()
{
    return {0, 0, 0, 0, 1, 1, 1, 1};
}

/** Socket of worker @p w under twoSockets(). The helpers below read a
 * twoSockets() board through its raw socket bitmaps. */
int
socketOf(int w)
{
    return w / 4;
}

/** Worker @p w's deque bit. */
bool
dequeBit(const OccupancyBoard &b, int w)
{
    return (b.dequeBits(socketOf(w)) & b.workerMask(w)) != 0;
}

/** Worker @p w's mailbox bit. */
bool
mailboxBit(const OccupancyBoard &b, int w)
{
    return (b.mailboxBits(socketOf(w)) & b.workerMask(w)) != 0;
}

/** Any bit set on @p socket. */
bool
socketBits(const OccupancyBoard &b, int socket)
{
    return (b.dequeBits(socket) | b.mailboxBits(socket)) != 0;
}

/** Any bit set anywhere on the two-socket board. */
bool
anyBits(const OccupancyBoard &b)
{
    return socketBits(b, 0) || socketBits(b, 1);
}

TEST(OccupancyBoard, EmptyBoardIsInertAndDisabled)
{
    OccupancyBoard b;
    EXPECT_FALSE(b.enabled());
    b.publishDeque(0, true);    // must not crash
    b.publishMailbox(0, true);
    EXPECT_FALSE(b.anyWorkFor(0));
}

TEST(OccupancyBoard, TransitionsSetAndClearExactly)
{
    OccupancyBoard b(8, twoSockets());
    EXPECT_EQ(b.numWorkers(), 8);
    EXPECT_EQ(b.numSockets(), 2);
    for (int w = 0; w < 8; ++w) {
        EXPECT_FALSE(dequeBit(b, w));
        EXPECT_FALSE(mailboxBit(b, w));
    }
    EXPECT_FALSE(anyBits(b));

    b.publishDeque(2, true);
    EXPECT_TRUE(dequeBit(b, 2));
    EXPECT_FALSE(mailboxBit(b, 2));
    EXPECT_TRUE(socketBits(b, 0));
    EXPECT_FALSE(socketBits(b, 1));
    EXPECT_TRUE(b.anyWorkFor(0));
    EXPECT_TRUE(b.anyWorkFor(1));

    b.publishMailbox(5, true);
    EXPECT_TRUE(mailboxBit(b, 5));
    EXPECT_TRUE(socketBits(b, 1));
    EXPECT_EQ(b.mailboxBits(1), 1ULL << 1); // second worker on socket 1

    // Idempotent publishes: re-asserting a state changes nothing.
    b.publishDeque(2, true);
    EXPECT_EQ(b.dequeBits(0), 1ULL << 2);
    b.publishDeque(2, false);
    b.publishDeque(2, false);
    EXPECT_FALSE(dequeBit(b, 2));
    EXPECT_FALSE(socketBits(b, 0));
    b.publishMailbox(5, false);
    EXPECT_FALSE(anyBits(b));
    EXPECT_FALSE(b.anyWorkFor(0));
    EXPECT_FALSE(b.anyWorkFor(1));
}

TEST(OccupancyBoard, BitsAreIndependentPerWorkerAndKind)
{
    OccupancyBoard b(8, twoSockets());
    for (int w = 0; w < 8; ++w)
        b.publishDeque(w, true);
    b.publishDeque(3, false);
    for (int w = 0; w < 8; ++w)
        EXPECT_EQ(dequeBit(b, w), w != 3) << "worker " << w;
    // Mailbox bits never moved.
    EXPECT_EQ(b.mailboxBits(0), 0u);
    EXPECT_EQ(b.mailboxBits(1), 0u);
}

TEST(OccupancyBoard, AnyWorkForCountsMailboxOnlyOnOwnSocket)
{
    OccupancyBoard b(8, twoSockets());
    // A parked frame on socket 1 is earmarked for socket 1's place:
    // stealable for socket-1 thieves, churn for socket-0 thieves.
    b.publishMailbox(5, true);
    EXPECT_TRUE(anyBits(b));
    EXPECT_TRUE(b.anyWorkFor(1));
    EXPECT_FALSE(b.anyWorkFor(0));
    // Deque work counts for everyone.
    b.publishMailbox(5, false);
    b.publishDeque(5, true);
    EXPECT_TRUE(b.anyWorkFor(0));
    EXPECT_TRUE(b.anyWorkFor(1));
}

struct Frame
{
    std::atomic<int> payload{0};
};

/**
 * The release/acquire pairing, end to end through Mailbox: a consumer
 * that observes the occupancy bit must also observe the frame deposited
 * before the bit was set — occupancy is never invented. Payload writes
 * happen strictly before tryPut; the consumer asserts it never reads a
 * stale payload through a set bit.
 */
TEST(OccupancyBoardStress, SetBitAlwaysHappensAfterADeposit)
{
    constexpr int kWorkers = 4;
    // Each round is a full produce->publish->observe->drain handshake,
    // i.e. kWorkers * kRounds *serialized* cross-thread handoffs. On a
    // contended 1-core host every handoff can cost a scheduler
    // timeslice, so the count directly bounds worst-case wall time —
    // 1500 rounds flaked into the ctest timeout under -j2 plus load;
    // 500 keeps the same happens-after coverage at a third the cost.
    constexpr int kRounds = 500;
    OccupancyBoard board(kWorkers, {0, 0, 1, 1});
    std::vector<Mailbox<Frame>> boxes(kWorkers);
    for (int w = 0; w < kWorkers; ++w)
        boxes[w].attachBoard(&board, w);
    const auto occupied = [&board](int w) {
        return (board.mailboxBits(w / 2) & board.workerMask(w)) != 0;
    };

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> delivered{0};
    std::vector<Frame> frames(kWorkers);

    std::vector<std::thread> producers;
    for (int w = 0; w < kWorkers; ++w) {
        producers.emplace_back([&, w] {
            for (int r = 1; r <= kRounds; ++r) {
                frames[w].payload.store(r, std::memory_order_relaxed);
                while (!boxes[w].tryPut(&frames[w]))
                    std::this_thread::yield();
                // Wait until a consumer drained the slot before reusing
                // the frame (each frame object cycles through its box).
                while (boxes[w].peek() != nullptr
                       && !stop.load(std::memory_order_relaxed))
                    std::this_thread::yield();
            }
        });
    }

    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
        consumers.emplace_back([&] {
            unsigned sweep = 0;
            while (!stop.load(std::memory_order_acquire)) {
                // The bit is advisory: false-empty is allowed, so a
                // consumer gated *only* on it could strand a parked
                // frame forever. Mirror the product's insurance probe:
                // mostly trust the board, but every 8th *pass* probe
                // every slot regardless. The cadence must be per pass,
                // not per observation — a per-observation counter with
                // kWorkers dividing the cadence always falls through on
                // the same worker index, which livelocked this test
                // when the one stale-cleared frame sat on a different
                // worker.
                const bool full_sweep = (++sweep & 7) == 0;
                for (int w = 0; w < kWorkers; ++w) {
                    if (!occupied(w) && !full_sweep)
                        continue;
                    // Bit observed with acquire: the deposit (and the
                    // payload written before it) must be visible. The
                    // frame may already be gone (another consumer), but
                    // occupancy was never invented: when we do get the
                    // frame, its payload is a real round number.
                    if (Frame *f = boxes[w].tryTake()) {
                        const int p =
                            f->payload.load(std::memory_order_relaxed);
                        ASSERT_GE(p, 1);
                        ASSERT_LE(p, kRounds);
                        delivered.fetch_add(1,
                                            std::memory_order_relaxed);
                    }
                }
            }
        });
    }

    for (auto &t : producers)
        t.join();
    // Drain what is left, then stop the consumers.
    while (delivered.load() < static_cast<uint64_t>(kWorkers) * kRounds)
        std::this_thread::yield();
    stop.store(true, std::memory_order_release);
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(delivered.load(),
              static_cast<uint64_t>(kWorkers) * kRounds);

    // Quiescence: all frames consumed, every publication complete — the
    // board must now be exact (no stale false-nonempty survives).
    for (int w = 0; w < kWorkers; ++w)
        EXPECT_FALSE(occupied(w)) << "worker " << w;
    EXPECT_FALSE(board.anyWorkFor(0) || board.anyWorkFor(1));
}

/**
 * Concurrent deque-bit publishing from every worker plus observers:
 * after all threads quiesce with known final states the board matches
 * them exactly, and during the run observers only ever see bit patterns
 * some worker actually published (no cross-worker corruption from the
 * fetch_or/fetch_and masks).
 */
TEST(OccupancyBoardStress, ConcurrentTogglesNeverCorruptNeighbors)
{
    constexpr int kWorkers = 8;
    constexpr int kToggles = 20000;
    OccupancyBoard board(kWorkers, twoSockets());

    // Workers 0 and 4 stay permanently occupied; everyone else toggles.
    board.publishDeque(0, true);
    board.publishDeque(4, true);

    std::vector<std::thread> togglers;
    for (int w : {1, 2, 3, 5, 6, 7}) {
        togglers.emplace_back([&board, w] {
            for (int i = 0; i < kToggles; ++i) {
                board.publishDeque(w, (i & 1) == 0);
                board.publishMailbox(w, (i & 1) != 0);
            }
            board.publishDeque(w, false);
            board.publishMailbox(w, false);
        });
    }

    std::atomic<bool> stop{false};
    std::thread observer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            // The permanently-published bits must never flicker: masks
            // are per-worker, so neighbors' RMWs cannot clear them.
            ASSERT_TRUE(dequeBit(board, 0));
            ASSERT_TRUE(dequeBit(board, 4));
            ASSERT_TRUE(board.anyWorkFor(0));
            ASSERT_TRUE(board.anyWorkFor(1));
        }
    });

    for (auto &t : togglers)
        t.join();
    stop.store(true, std::memory_order_release);
    observer.join();

    // Quiescent exactness.
    EXPECT_EQ(board.dequeBits(0), 1ULL << 0);
    EXPECT_EQ(board.dequeBits(1), 1ULL << 0); // worker 4 is bit 0 there
    EXPECT_EQ(board.mailboxBits(0), 0u);
    EXPECT_EQ(board.mailboxBits(1), 0u);
}

TEST(OccupancyBoard, DescribeMentionsShape)
{
    OccupancyBoard b(8, twoSockets());
    const std::string d = b.describe();
    EXPECT_NE(d.find("8w"), std::string::npos);
    EXPECT_NE(d.find("2s"), std::string::npos);
}

} // namespace
} // namespace numaws
