/**
 * @file
 * THE-protocol work-stealing deque (Frigo, Leiserson, Randall, PLDI'98).
 *
 * The deque embodies the work-first principle at the data-structure level:
 * the busy owner pushes at the tail with two plain stores and pops with
 * one store-load handshake, taking the lock only when it races a thief for
 * the final element; thieves always take the lock and steal from the head.
 * The paper inherits this protocol unchanged from Cilk Plus (Section II),
 * and so do both of our engines.
 *
 * Terminology matches the paper: the *head* is where thieves steal (oldest
 * work) and the *tail* is where the owner works (youngest work). The ABP
 * analysis calls these "top" and "bottom".
 *
 * Memory ordering follows the C11 Chase-Lev form: slots are atomics
 * accessed relaxed (a plain mov on x86), and the owner's release store of
 * the tail in pushTail pairs with the thief's acquire load of the tail in
 * stealHead, so a thief that sees an item also sees the slot write and
 * every write the owner made to the task it points to.
 *
 * The THE handshake is Dekker's: the owner stores the tail then loads the
 * head (popTail), a thief stores the head then loads the tail (stealHead),
 * and at least one side must see the other's store. Both sides write it as
 * a seq_cst store followed by a seq_cst load rather than relaxed accesses
 * around a seq_cst fence; the C++ model gives the two forms the same
 * guarantee here. The store form keeps the barrier on the deque's own
 * line: GCC 12 lowers the fence to `lock orq $0,(%rsp)`, a locked write
 * to the caller's stack top (in a frameless caller such as the worker's
 * pop path, its own return address), while the store is one `xchg` on
 * the tail (or head) and the load a plain `mov`. ThreadSanitizer models
 * the store/load pair but not a standalone fence (GCC warns under
 * -Wtsan), so the sanitizer sees the handshake as written.
 * docs/architecture.md has the measured cost of both forms.
 */
#ifndef NUMAWS_DEQUE_WS_DEQUE_H
#define NUMAWS_DEQUE_WS_DEQUE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "support/cache_aligned.h"
#include "support/panic.h"
#include "support/spin_lock.h"

namespace numaws {

/**
 * Fixed-capacity deque of pointers.
 *
 * Capacity bounds the *spawn depth* (continuations outstanding at once),
 * not total spawns, so a few thousand slots accommodate any reasonable
 * recursion; overflow is a panic rather than silent resizing because
 * resizing under the THE protocol would require a stop-the-world handshake
 * with thieves. It is rounded up to a power of two, so a slot index is a
 * mask rather than a 64-bit `div`: behind popTail's `xchg` the division
 * made the store/load handshake slower than the fence form it replaced
 * (docs/architecture.md has the numbers).
 *
 * @tparam T element type; the deque stores T* and never owns them.
 */
template <typename T>
class WsDeque
{
  public:
    explicit WsDeque(std::size_t capacity = 8192)
        : _capacity(roundUpPow2(capacity)),
          _buffer(new std::atomic<T *>[_capacity])
    {
        NUMAWS_ASSERT(capacity >= 2);
    }

    WsDeque(const WsDeque &) = delete;
    WsDeque &operator=(const WsDeque &) = delete;

    /**
     * Owner-only: push @p item at the tail. This is the work path — one
     * relaxed slot store plus one release store of the tail.
     */
    void
    pushTail(T *item)
    {
        const int64_t t = _tail.load(std::memory_order_relaxed);
        // Overflow check against a cached head bound, hoisting the
        // acquire load of _head off the common case: _head only ever
        // advances, so a stale cache understates it and the test is
        // conservative — the cache is refreshed (and the check
        // repeated) only when the pessimistic bound trips, i.e. at
        // most once per `capacity` pushes on a deque thieves are
        // draining, and once ever on one they are not.
        if (t - _headCache >= static_cast<int64_t>(_capacity)) {
            _headCache = _head.load(std::memory_order_acquire);
            if (t - _headCache >= static_cast<int64_t>(_capacity))
                NUMAWS_PANIC("work deque overflow (capacity %zu); spawn "
                             "depth exceeds the configured bound",
                             _capacity);
        }
        slot(t).store(item, std::memory_order_relaxed);
        // Publish the element before advertising the new tail to thieves.
        _tail.store(t + 1, std::memory_order_release);
    }

    /**
     * Owner-only: pop from the tail (THE protocol fast path).
     * @return the youngest item, or nullptr if the deque was empty or the
     *         last item was lost to a thief.
     */
    T *
    popTail()
    {
        bool more;
        return popTail(more);
    }

    /**
     * popTail that also sets @p more to whether items remained below the
     * popped one when the pop read the head: the owner's occupancy
     * snapshot, taken without re-reading the tail it just exchanged (a
     * load of that address right behind the `xchg` stalls until the
     * locked store commits).
     */
    T *
    popTail(bool &more)
    {
        int64_t t = _tail.load(std::memory_order_relaxed) - 1;
        // The T/H exchange at the heart of the THE protocol, as a
        // seq_cst store then a seq_cst load (see the file comment): the
        // tail decrement is ordered before the head read.
        _tail.store(t, std::memory_order_seq_cst);
        const int64_t h = _head.load(std::memory_order_seq_cst);
        more = h < t;
        if (h <= t) {
            // No conflict possible: at least one item remains below any
            // concurrent thief's claim.
            if (h < t)
                return slot(t).load(std::memory_order_relaxed);
            // Exactly one item: race a thief for it under the lock.
            std::lock_guard<SpinLock> g(_lock);
            const int64_t h2 = _head.load(std::memory_order_relaxed);
            if (h2 <= t)
                return slot(t).load(std::memory_order_relaxed);
            // Thief won; restore the tail to the empty position.
            _tail.store(t + 1, std::memory_order_relaxed);
            return nullptr;
        }
        // Deque was empty; undo the decrement.
        _tail.store(t + 1, std::memory_order_relaxed);
        return nullptr;
    }

    /**
     * Thief: steal from the head. Thieves serialize on the deque lock
     * (overhead deliberately placed on the steal path).
     * @return the oldest item, or nullptr if the deque is empty.
     */
    T *
    stealHead()
    {
        std::lock_guard<SpinLock> g(_lock);
        const int64_t h = _head.load(std::memory_order_relaxed);
        // Claim the slot before validating against the tail, mirroring the
        // original protocol's H increment-then-check: popTail's handshake
        // mirrored, a seq_cst store then a seq_cst load. The load also
        // acquires, pairing with pushTail's release store, so the slot
        // and the task it points to are visible before we hand them out.
        _head.store(h + 1, std::memory_order_seq_cst);
        const int64_t t = _tail.load(std::memory_order_seq_cst);
        if (h < t)
            return slot(h).load(std::memory_order_relaxed);
        // Deque empty (or owner won the conflict); retreat.
        _head.store(h, std::memory_order_relaxed);
        return nullptr;
    }

    /** Approximate emptiness check (exact for the owner when quiescent). */
    bool
    empty() const
    {
        return _head.load(std::memory_order_acquire)
               >= _tail.load(std::memory_order_acquire);
    }

    /** Approximate current size (for stats/tests, not for decisions). */
    int64_t
    size() const
    {
        const int64_t s = _tail.load(std::memory_order_acquire)
                          - _head.load(std::memory_order_acquire);
        return s < 0 ? 0 : s;
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::atomic<T *> &
    slot(int64_t i)
    {
        return _buffer[static_cast<std::size_t>(i) & (_capacity - 1)];
    }

    /** Read-only after construction, on a line of their own: the owner
     * indexes slots on every push and pop, and a line shared with the
     * thieves' lock would bounce whenever they contend for it. */
    std::size_t _capacity;
    /** Slots are left uninitialized: a slot is only ever read after
     * pushTail wrote it, so zero-filling would just fault in every
     * page of a buffer that typical spawn depths never reach. */
    std::unique_ptr<std::atomic<T *>[]> _buffer;
    alignas(kCacheLineBytes) std::atomic<int64_t> _head{0};
    alignas(kCacheLineBytes) std::atomic<int64_t> _tail{0};
    /** Owner-only lower bound on _head for pushTail's overflow check;
     * shares the owner's tail line, never touched by thieves. */
    int64_t _headCache = 0;
    alignas(kCacheLineBytes) SpinLock _lock;
};

} // namespace numaws

#endif // NUMAWS_DEQUE_WS_DEQUE_H
