/**
 * @file
 * NUMA-local task-frame pools: the allocation-free spawn fast path.
 *
 * The work-first principle moves overhead off the spawn path onto the
 * steal path. Before this pool the threaded engine paid a global-heap
 * `new` on every spawn and a `delete` on every completion — and a stolen
 * task's delete ran on the *thief's* socket, turning the heap into a
 * hidden cross-socket channel exercised once per steal. The pool makes
 * the spawn→run→free cycle allocation-free in steady state and keeps
 * every frame's memory homed on its spawner's socket:
 *
 *  - Each Worker owns one TaskFramePool. Slabs are carved page-aligned
 *    from NumaArena (carveSlab) and first-touched by the owning worker,
 *    so on a real NUMA kernel the frames live on the worker's socket.
 *  - allocate() serves from a size-classed local LIFO free list (the
 *    cache-hot path), then from a bump pointer into the current slab;
 *    both are owner-only and fence-free.
 *  - Same-worker frees push back onto the local LIFO (the common case:
 *    a task popped from the own deque is freed by its spawner).
 *  - A thief that finishes a stolen task pushes the frame onto the
 *    owning pool's lock-free MPSC *remote-free stack* (the
 *    mimalloc-style local/remote split) instead of freeing cross-socket
 *    through the global heap.
 *  - The owner drains that stack opportunistically on the *steal* path
 *    (Worker::trySteal) and on the allocation slow path before carving
 *    a new slab — never on the spawn fast path, which is exactly where
 *    the work-first principle says the cost must not sit.
 *
 * Frames that do not fit the largest size class (or need stricter
 * alignment than kFrameAlign) fall back to the global heap; such tasks
 * carry poolOwner() == -1 and are freed with plain delete. The root
 * task frame is always heap-allocated: it is constructed on a
 * non-worker thread, before any pool exists to own it.
 *
 * Thread safety: allocate/freeLocal/drainRemote are owner-thread only;
 * freeRemote may be called from any thread. Frame state words make a
 * double free panic instead of corrupting a free list (always-on, one
 * predictable compare per transition — the repo's protocol-violation
 * discipline).
 */
#ifndef NUMAWS_RUNTIME_TASK_POOL_H
#define NUMAWS_RUNTIME_TASK_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/cache_aligned.h"
#include "support/panic.h"
#include "support/relaxed.h"

namespace numaws {

/** Threaded-engine task-frame allocation policy (RuntimeOptions). */
enum class TaskPoolPolicy : uint8_t
{
    /** Global-heap new/delete per spawn (the pre-pool behavior; the
     * ablation baseline). */
    Heap,
    /** NUMA-local per-worker frame pools with cross-socket remote free
     * (the default). */
    Pooled,
};

/** Stable name for bench JSON / CLI ("heap" | "pooled"). */
inline const char *
taskPoolPolicyName(TaskPoolPolicy p)
{
    switch (p) {
      case TaskPoolPolicy::Heap:
        return "heap";
      case TaskPoolPolicy::Pooled:
        return "pooled";
    }
    return "?";
}

/**
 * Header preceding every pooled frame's object storage. Links the frame
 * through the free lists, names its owning pool and size class, and
 * carries the live/free state word behind the double-free panic.
 */
struct TaskFrameHeader
{
    TaskFrameHeader *next = nullptr; ///< free-list / remote-stack link
    uint32_t ownerWorker = 0;        ///< worker whose pool owns the frame
    uint32_t sizeClass = 0;
    uint32_t state = 0;              ///< kFrameLive | kFrameFree
};

/** Per-worker size-classed slab recycler (file docs above). */
class TaskFramePool
{
  public:
    /** Object storage starts this many bytes into a frame; also the
     * header reservation (static_assert below). */
    static constexpr std::size_t kFrameHeaderBytes = 32;
    /** Guaranteed alignment of allocate() results; types needing more
     * must fall back to the heap. */
    static constexpr std::size_t kFrameAlign = 16;
    /** Frame sizes (header included) per class. */
    static constexpr std::size_t kClassBytes[] = {128, 256, 512, 1024};
    static constexpr int kNumClasses = 4;
    /** Bytes carved from NumaArena per slab. */
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    static constexpr uint32_t kFrameLive = 0x4c49u; // "LI"
    static constexpr uint32_t kFrameFree = 0x4652u; // "FR"

    TaskFramePool(int owner_worker, bool enabled)
        : _owner(static_cast<uint32_t>(owner_worker)), _enabled(enabled)
    {}

    TaskFramePool(const TaskFramePool &) = delete;
    TaskFramePool &operator=(const TaskFramePool &) = delete;

    /** Drains the remote stack, then releases every slab wholesale —
     * frames parked on the remote stack at teardown need no individual
     * handling (Runtime joins all workers before destroying any pool,
     * so no concurrent freeRemote can race this). */
    ~TaskFramePool();

    /**
     * Owner-only spawn fast path: object storage for @p bytes, aligned
     * to kFrameAlign, or nullptr when the pool is disabled or @p bytes
     * exceeds the largest class (caller falls back to the heap).
     */
    void *
    allocate(std::size_t bytes)
    {
        if (!_enabled)
            return nullptr;
        const int cls = classForBytes(bytes);
        if (cls < 0)
            return nullptr;
        FreeClass &c = _classes[cls];
        if (TaskFrameHeader *h = c.freeList) {
            // LIFO reuse: the most recently freed frame is the one
            // still hot in this worker's cache.
            c.freeList = h->next;
            NUMAWS_ASSERT(h->state == kFrameFree);
            h->state = kFrameLive;
            relaxedAdd(_framesRecycled);
            relaxedAdd(_framesAllocated);
            return objectOf(h);
        }
        return allocateSlow(cls);
    }

    /** Owner-only: return a frame to its class's local LIFO. */
    void
    freeLocal(TaskFrameHeader *h)
    {
        NUMAWS_ASSERT(h->state == kFrameLive); // double free trips here
        h->state = kFrameFree;
        FreeClass &c = _classes[h->sizeClass];
        h->next = c.freeList;
        c.freeList = h;
        relaxedAdd(_localFrees);
    }

    /**
     * Any-thread: push a frame onto the owning pool's remote-free
     * stack (Treiber MPSC; the single consumer is the owner's drain).
     * The release publishes the frame's contents-free state to the
     * owner's acquire in drainRemote.
     */
    void
    freeRemote(TaskFrameHeader *h)
    {
        NUMAWS_ASSERT(h->state == kFrameLive);
        h->state = kFrameFree;
        TaskFrameHeader *head = _remoteHead.load(std::memory_order_relaxed);
        do {
            h->next = head;
        } while (!_remoteHead.compare_exchange_weak(
            head, h, std::memory_order_release,
            std::memory_order_relaxed));
        _remoteFrees.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Owner-only: splice every remotely freed frame back into the
     * local lists. The no-pending case is one relaxed load — cheap
     * enough for every trySteal() entry. @return frames drained.
     */
    std::size_t
    drainRemote()
    {
        if (_remoteHead.load(std::memory_order_relaxed) == nullptr)
            return 0;
        return drainRemoteSlow();
    }

    /** @name Frame <-> object storage conversion */
    /// @{
    static TaskFrameHeader *
    headerOf(void *object)
    {
        return reinterpret_cast<TaskFrameHeader *>(
            static_cast<char *>(object) - kFrameHeaderBytes);
    }

    static void *
    objectOf(TaskFrameHeader *h)
    {
        return reinterpret_cast<char *>(h) + kFrameHeaderBytes;
    }
    /// @}

    /** Smallest class whose payload fits @p bytes, or -1 (heap). */
    static int
    classForBytes(std::size_t bytes)
    {
        for (int c = 0; c < kNumClasses; ++c)
            if (bytes + kFrameHeaderBytes <= kClassBytes[c])
                return c;
        return -1;
    }

    bool enabled() const { return _enabled; }
    int owner() const { return static_cast<int>(_owner); }

    /** @name Counters since construction
     * Owner-written single-writer words (support/relaxed.h) except the
     * thief-bumped remoteFrees; any thread may read them. */
    /// @{
    uint64_t framesRecycled() const { return relaxedLoad(_framesRecycled); }
    uint64_t
    remoteFrees() const
    {
        return _remoteFrees.load(std::memory_order_relaxed);
    }
    uint64_t slabBytes() const { return relaxedLoad(_slabBytes); }
    uint64_t slabsCarved() const { return slabBytes() / kSlabBytes; }
    /** Carve attempts that failed and degraded this allocation to the
     * caller's heap fallback (graceful OOM; see carveSlab). */
    uint64_t slabFallbacks() const { return relaxedLoad(_slabFallbacks); }

    /** Frames live right now = allocations minus frees since
     * construction (exact when quiescent; a nonzero value at
     * quiescence is a leak). */
    int64_t
    outstanding() const
    {
        return static_cast<int64_t>(relaxedLoad(_framesAllocated))
               - static_cast<int64_t>(relaxedLoad(_localFrees))
               - static_cast<int64_t>(remoteFrees());
    }
    /// @}

  private:
    struct FreeClass
    {
        TaskFrameHeader *freeList = nullptr; ///< local LIFO
        char *bumpPtr = nullptr;             ///< next fresh frame
        char *bumpEnd = nullptr;             ///< current slab's end
    };

    /** Free list empty: drain remotes, bump, or carve a new slab. */
    void *allocateSlow(int cls);
    std::size_t drainRemoteSlow();

    uint32_t _owner;
    bool _enabled;
    FreeClass _classes[kNumClasses];
    std::vector<void *> _slabs;
    uint64_t _framesRecycled = 0;
    uint64_t _framesAllocated = 0;
    uint64_t _localFrees = 0;
    uint64_t _slabBytes = 0;
    uint64_t _slabFallbacks = 0;
    /** Remote-free stack head — the only cross-thread word; on its own
     * cache line so thieves' pushes never false-share the owner's
     * bump/free-list state. */
    alignas(kCacheLineBytes)
        std::atomic<TaskFrameHeader *> _remoteHead{nullptr};
    /** Thief-written like _remoteHead; shares its line deliberately. */
    std::atomic<uint64_t> _remoteFrees{0};
};

static_assert(sizeof(TaskFrameHeader) <= TaskFramePool::kFrameHeaderBytes,
              "frame header must fit its reservation");
static_assert(TaskFramePool::kFrameHeaderBytes % TaskFramePool::kFrameAlign
                  == 0,
              "object storage must stay kFrameAlign-aligned");

} // namespace numaws

#endif // NUMAWS_RUNTIME_TASK_POOL_H
