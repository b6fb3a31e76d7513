/**
 * @file
 * Bounded mailbox for lazy work pushing (Section III-B), capacity-knobbed.
 *
 * Each worker owns one mailbox into which other workers may deposit full
 * frames earmarked for this worker's place, *without interrupting it*. The
 * paper's mailbox holds exactly one frame — that single entry is
 * load-bearing in the Section IV theory: with at most one frame parked per
 * worker the top-heavy-deques argument survives and the pushing cost
 * amortizes against successful steals. The capacity here is therefore a
 * construct-time knob that *defaults to one* (tests pin the capacity-one
 * behaviour); capacities up to kMaxMailboxCapacity batch several parked
 * frames per worker, and sim_bounds_test re-checks the Section IV bounds
 * with capacity in {1, 4} — the amortization constant scales with the
 * capacity, the bound shape survives.
 *
 * The mailbox optionally publishes its occupancy to an OccupancyBoard
 * (attachBoard): tryPut sets the owner's mailbox bit after the deposit is
 * visible, tryTake clears it when the last frame leaves. That ordering
 * makes a set bit always happen-after a real deposit (never-invented
 * occupancy) while an unset bit may transiently lag a deposit
 * (false-empty, which the board contract allows).
 */
#ifndef NUMAWS_DEQUE_MAILBOX_H
#define NUMAWS_DEQUE_MAILBOX_H

#include <atomic>

#include "sched/occupancy.h"
#include "sched/parking.h"
#include "support/cache_aligned.h"
#include "support/panic.h"

namespace numaws {

/** Hard cap on Mailbox capacity (slots are preallocated inline). */
inline constexpr int kMaxMailboxCapacity = 8;

/** Lock-free bounded mailbox of T*. */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(int capacity = 1)
        : _capacity(capacity < 1 ? 1
                                 : (capacity > kMaxMailboxCapacity
                                        ? kMaxMailboxCapacity
                                        : capacity))
    {
        for (auto &slot : _slots)
            slot.store(nullptr, std::memory_order_relaxed);
    }

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    int capacity() const { return _capacity; }

    /** Publish occupancy transitions for @p worker on @p board. */
    void
    attachBoard(OccupancyBoard *board, int worker)
    {
        _board = board;
        _worker = worker;
    }

    /**
     * Also wake @p lot's slot for @p socket whenever a deposit flips
     * the socket's board occupancy 0 -> nonzero. The deposit is the
     * runtime's second publish point (after Worker::pushTask), so
     * parked workers learn about frames parked for their place without
     * waiting out the fallback timeout. Requires attachBoard.
     */
    void
    attachParking(ParkingLot *lot, int socket)
    {
        _lot = lot;
        _socket = socket;
    }

    /**
     * Attempt to deposit @p item into a free slot.
     * @return false if all capacity slots hold frames (the pusher then
     *         retries with a different random receiver, per PUSHBACK).
     */
    bool
    tryPut(T *item)
    {
        for (int i = 0; i < _capacity; ++i) {
            T *expected = nullptr;
            if (_slots[i].compare_exchange_strong(
                    expected, item, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                // Deposit first, then advertise: a thief that reads the
                // occupancy bit (acquire) observes this frame. A socket
                // occupancy edge wakes the owner's parked socket.
                if (_board != nullptr
                    && _board->publishMailbox(_worker, true)
                    && _lot != nullptr)
                    _lot->wake(_socket);
                return true;
            }
        }
        return false;
    }

    /**
     * Remove and return a parked frame, or nullptr if empty. Used by the
     * owner in its scheduling loop (POPMAILBOX) and by thieves that win
     * the coin flip (BIASEDSTEALWITHPUSH outcome 2/3).
     *
     * The scan starts one past the last taken slot and wraps, so with
     * capacity > 1 takes rotate through the slots: any parked frame is
     * taken within at most `capacity` successful takes (approximate
     * FIFO; the simulator models the strict-FIFO limit of the same
     * knob). A fixed scan-from-0 would let a frame in a high slot be
     * bypassed unboundedly while lower slots cycle.
     */
    T *
    tryTake()
    {
        const unsigned start =
            _takeCursor.load(std::memory_order_relaxed);
        for (int k = 0; k < _capacity; ++k) {
            const int i = static_cast<int>(
                (start + static_cast<unsigned>(k))
                % static_cast<unsigned>(_capacity));
            if (_slots[i].load(std::memory_order_relaxed) == nullptr)
                continue;
            if (T *item =
                    _slots[i].exchange(nullptr, std::memory_order_acq_rel)) {
                _takeCursor.store(static_cast<unsigned>(i) + 1,
                                  std::memory_order_relaxed);
                if (_board != nullptr && !occupiedApprox())
                    _board->publishMailbox(_worker, false);
                return item;
            }
        }
        // Dry scan: the caller just paid to inspect every slot, so
        // repair a stale 1-bit for free (the board contract's "repaired
        // eagerly" promise; racing a concurrent deposit at worst leaves
        // a transient false-empty, which the contract allows and the
        // owner's unconditional POPMAILBOX drains regardless).
        if (_board != nullptr)
            _board->publishMailbox(_worker, false);
        return nullptr;
    }

    /**
     * Read a parked frame without removing it (a thief inspects the
     * frame's place before deciding to take it or push it onward).
     */
    T *
    peek() const
    {
        for (int i = 0; i < _capacity; ++i) {
            if (T *item = _slots[i].load(std::memory_order_acquire))
                return item;
        }
        return nullptr;
    }

    /** All capacity slots occupied (a deposit would be rejected)? */
    bool
    full() const
    {
        for (int i = 0; i < _capacity; ++i) {
            if (_slots[i].load(std::memory_order_acquire) == nullptr)
                return false;
        }
        return true;
    }

    /** Occupied slot count (approximate under concurrency). */
    int
    occupied() const
    {
        int n = 0;
        for (int i = 0; i < _capacity; ++i)
            n += _slots[i].load(std::memory_order_acquire) != nullptr;
        return n;
    }

  private:
    bool
    occupiedApprox() const
    {
        for (int i = 0; i < _capacity; ++i) {
            if (_slots[i].load(std::memory_order_relaxed) != nullptr)
                return true;
        }
        return false;
    }

    alignas(kCacheLineBytes)
        std::atomic<T *> _slots[kMaxMailboxCapacity];
    /** Rotation cursor for tryTake (relaxed: fairness hint, not a
     * correctness invariant — a racy update just restarts the scan
     * elsewhere). */
    std::atomic<unsigned> _takeCursor{0};
    int _capacity;
    OccupancyBoard *_board = nullptr;
    int _worker = -1;
    ParkingLot *_lot = nullptr;
    int _socket = -1;
};

} // namespace numaws

#endif // NUMAWS_DEQUE_MAILBOX_H
