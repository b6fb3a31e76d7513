/**
 * @file
 * Per-worker NUMA heap for user data — `TaskFramePool`'s design
 * (size-classed slabs, owner-only LIFO free list + bump pointer, lock-free
 * MPSC remote-free stack drained off the hot path) generalized from task
 * frames to arbitrary user allocations up to 32 KiB.
 *
 * The frame pool made *spawns* allocation-free and NUMA-local (PR 5); this
 * layer does the same for the *data* those tasks touch, which is what the
 * paper's locality argument is actually about: the occupancy+affinity
 * victim weighting can only steer steals toward data homes it can see.
 * Slabs are carved via `NumaArena::carveSlabOnSocket`, so every pooled
 * block's home is registered in the `PageMap`; allocations too big for the
 * size classes fall through to an arena-backed big-object path that is
 * registered the same way. The style follows dphim's
 * `util/override_new_delete.hpp` per-node pools, without hijacking global
 * `operator new` — callers opt in through `numa::allocate` /
 * `NumaAllocator<T>` / `PartedVec<T>`.
 *
 * Concurrency contract (identical to the frame pool's):
 *  - allocate / freeLocal / drainRemote: owner thread only;
 *  - freeRemote: any thread (Treiber push, release-CAS);
 *  - the destructor runs after workers join, so it may drain and release
 *    without synchronization.
 */
#ifndef NUMAWS_MEM_NUMA_HEAP_H
#define NUMAWS_MEM_NUMA_HEAP_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/numa_arena.h"
#include "support/cache_aligned.h"
#include "support/panic.h"
#include "support/relaxed.h"
#include "topology/place.h"

namespace numaws {

class NumaHeap;

/**
 * How `numa::allocate` (and everything built on it: `NumaAllocator`,
 * `PartedVec`, the workload data buffers) is backed. Engine-side like
 * `TaskPoolPolicy`: the simulator has no allocator, and no scheduling
 * decision may depend on this knob, so it lives in `RuntimeOptions`
 * outside `SchedPolicy`.
 */
enum class DataHeapPolicy : uint8_t {
    /** Plain process heap, no PageMap registration — today's behavior,
     * kept as the ablation baseline. */
    Heap,
    /** Per-worker NUMA heaps + registered arena blocks (default). */
    Pooled,
};

inline const char *
dataHeapPolicyName(DataHeapPolicy p)
{
    return p == DataHeapPolicy::Heap ? "heap" : "pooled";
}

/**
 * Header preceding every block handed out by the data plane, pooled or
 * not. 64 bytes are reserved so payloads are cache-line aligned and
 * never false-share with the header's remote-free link.
 *
 * `sizeClass` doubles as the routing tag for `numa::deallocate`: a real
 * class index for pooled blocks, `kClassArena` for registered big/
 * partitioned blocks (freed through `arena`), `kClassPlain` for global-
 * heap blocks (freed through `std::free`).
 */
struct DataBlockHeader
{
    DataBlockHeader *next = nullptr; ///< free-list / remote-stack link
    NumaHeap *ownerHeap = nullptr;   ///< pooled blocks: heap to return to
    NumaArena *arena = nullptr;      ///< kClassArena blocks: freeing arena
    uint32_t sizeClass = 0;
    uint32_t state = 0; ///< kBlockLive / kBlockFree (always checked)
};

/**
 * One worker's size-classed heap. Payload classes are powers of two from
 * 64 B to 32 KiB; each block is header + payload, carved from 256 KiB
 * slabs homed on the worker's socket and registered in the PageMap.
 */
class NumaHeap
{
  public:
    /** Reserved bytes before each payload (holds DataBlockHeader). */
    static constexpr std::size_t kHeaderBytes = 64;
    /** Payload alignment guaranteed by every data-plane path. */
    static constexpr std::size_t kDataAlign = 64;
    static constexpr int kNumClasses = 10;
    /** Payload capacity per class: 64 << class. */
    static constexpr std::size_t kClassPayload[kNumClasses] = {
        64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
    static constexpr std::size_t kMaxPooledBytes = 32768;
    static constexpr std::size_t kSlabBytes = 256 * 1024;

    /** Block states — checked on every free, pooled or not, so a double
     * free or a stray pointer panics instead of corrupting a free list
     * (same contract as the frame pool's kFrameLive/kFrameFree). */
    static constexpr uint32_t kBlockLive = 0x444c; // "DL"
    static constexpr uint32_t kBlockFree = 0x4446; // "DF"
    /** sizeClass tags for blocks that bypass the pooled classes. */
    static constexpr uint32_t kClassArena = 0xfffffffe;
    static constexpr uint32_t kClassPlain = 0xffffffff;

    /**
     * @p arena == nullptr disables the heap (DataHeapPolicy::Heap):
     * allocate() then always returns nullptr and callers fall through
     * to the plain path.
     */
    NumaHeap(int owner_worker, int socket, NumaArena *arena)
        : _ownerWorker(owner_worker), _socket(socket), _arena(arena)
    {
        for (int c = 0; c < kNumClasses; ++c)
            _freeHead[c] = nullptr;
    }

    /** Runs after workers join: drains stragglers, returns every slab
     * to the arena (which unregisters it from the PageMap). */
    ~NumaHeap();

    NumaHeap(const NumaHeap &) = delete;
    NumaHeap &operator=(const NumaHeap &) = delete;

    /** Smallest class whose payload holds @p bytes; -1 if too big. */
    static int
    classForBytes(std::size_t bytes)
    {
        if (bytes > kMaxPooledBytes)
            return -1;
        if (bytes <= kClassPayload[0])
            return 0;
        // Index of the smallest power-of-two payload >= bytes
        // (class 0 holds 2^6 bytes).
        return 63 - __builtin_clzll(bytes - 1) - 5;
    }

    static DataBlockHeader *
    headerOf(void *payload)
    {
        return reinterpret_cast<DataBlockHeader *>(
            static_cast<char *>(payload) - kHeaderBytes);
    }

    static void *
    payloadOf(DataBlockHeader *h)
    {
        return reinterpret_cast<char *>(h) + kHeaderBytes;
    }

    /**
     * Owner-only fast path: pop the class free list, else bump the
     * current slab. Returns nullptr when disabled or @p bytes exceeds
     * the largest class — the caller (numa::allocate) falls through to
     * the arena big-object path.
     */
    void *
    allocate(std::size_t bytes)
    {
        const int cls = classForBytes(bytes);
        if (_arena == nullptr || cls < 0)
            return nullptr;
        DataBlockHeader *h = _freeHead[cls];
        if (h != nullptr) {
            NUMAWS_ASSERT(h->state == kBlockFree);
            _freeHead[cls] = h->next;
            relaxedAdd(_blocksRecycled);
        } else {
            h = allocateSlow(cls);
            if (h == nullptr)
                return nullptr; // carve failed; caller falls through
        }
        h->state = kBlockLive;
        relaxedAdd(_blocksAllocated);
        relaxedAdd(_bytesPooled, bytes);
        return payloadOf(h);
    }

    /** Owner-only free. Panics on double free. */
    void
    freeLocal(DataBlockHeader *h)
    {
        NUMAWS_ASSERT(h->state == kBlockLive);
        NUMAWS_ASSERT(h->ownerHeap == this);
        h->state = kBlockFree;
        const int cls = static_cast<int>(h->sizeClass);
        h->next = _freeHead[cls];
        _freeHead[cls] = h;
        relaxedAdd(_localFrees);
    }

    /**
     * Any-thread free: push onto the owner's remote stack (Treiber,
     * release-CAS). The owner relinks the batch into its class lists
     * on its next drainRemote() — off the allocation fast path.
     */
    void
    freeRemote(DataBlockHeader *h)
    {
        NUMAWS_ASSERT(h->state == kBlockLive);
        NUMAWS_ASSERT(h->ownerHeap == this);
        h->state = kBlockFree;
        DataBlockHeader *head = _remoteHead.load(std::memory_order_relaxed);
        do {
            h->next = head;
        } while (!_remoteHead.compare_exchange_weak(
            head, h, std::memory_order_release, std::memory_order_relaxed));
        _remoteFrees.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Owner-only: reclaim remotely freed blocks. The empty check is a
     * relaxed load — stealing-path callers pay one uncontended load
     * when nothing is parked. Returns the number reclaimed.
     */
    std::size_t
    drainRemote()
    {
        if (_remoteHead.load(std::memory_order_relaxed) == nullptr)
            return 0;
        return drainRemoteSlow();
    }

    /** @name Counters since construction
     * Owner-written single-writer words (support/relaxed.h) except the
     * cross-thread remoteFrees; any thread may read them. */
    /// @{
    uint64_t bytesPooled() const { return relaxedLoad(_bytesPooled); }
    uint64_t blocksRecycled() const { return relaxedLoad(_blocksRecycled); }
    uint64_t
    remoteFrees() const
    {
        return _remoteFrees.load(std::memory_order_relaxed);
    }
    uint64_t slabBytes() const { return relaxedLoad(_slabBytes); }
    uint64_t slabsCarved() const { return _slabs.size(); }
    /** Carve attempts that failed and degraded this allocation to a
     * plain-heap block (graceful OOM; see NumaArena::carveSlab). */
    uint64_t slabFallbacks() const { return relaxedLoad(_slabFallbacks); }

    /** Blocks live right now = allocations minus frees since
     * construction (exact when quiescent; a nonzero value at
     * quiescence is a leak). */
    int64_t
    outstanding() const
    {
        return static_cast<int64_t>(relaxedLoad(_blocksAllocated))
               - static_cast<int64_t>(relaxedLoad(_localFrees))
               - static_cast<int64_t>(remoteFrees());
    }
    /// @}

    int ownerWorker() const { return _ownerWorker; }
    int socket() const { return _socket; }
    bool enabled() const { return _arena != nullptr; }

  private:
    DataBlockHeader *allocateSlow(int cls);
    std::size_t drainRemoteSlow();

    const int _ownerWorker;
    const int _socket;
    NumaArena *const _arena;

    DataBlockHeader *_freeHead[kNumClasses];
    char *_bumpPtr = nullptr;
    char *_bumpEnd = nullptr;
    std::vector<void *> _slabs;

    uint64_t _bytesPooled = 0;
    uint64_t _blocksAllocated = 0;
    uint64_t _blocksRecycled = 0;
    uint64_t _localFrees = 0;
    uint64_t _slabBytes = 0;
    uint64_t _slabFallbacks = 0;
    /** Atomic: bumped by freeRemote callers on any thread. */
    std::atomic<uint64_t> _remoteFrees{0};

    /** Own cache line: thieves CAS here while the owner allocates. */
    alignas(kCacheLineBytes) std::atomic<DataBlockHeader *> _remoteHead{
        nullptr};
};

/**
 * Free-function allocation API over the data plane. Routing:
 *  - on a worker of a Pooled runtime, sizes up to 32 KiB with no (or the
 *    worker's own) place come from the worker's NumaHeap — the fast path;
 *  - otherwise, under a Pooled runtime, blocks come from the runtime's
 *    arena homed on the requested socket and registered in the PageMap;
 *  - with no runtime alive or under DataHeapPolicy::Heap, blocks come
 *    from the plain process heap, unregistered.
 * `deallocate` routes by header tag, so any block may be freed from any
 * thread — but pooled/arena blocks must be freed before their runtime is
 * destroyed.
 */
namespace numa {

/** Per-thread data-plane binding (installed by worker mainLoop). */
struct ThreadBinding
{
    NumaHeap *heap = nullptr;
    NumaArena *arena = nullptr;
    Place place = kAnyPlace;
    bool pooled = false;
};

/** Install/remove the calling thread's binding (runtime-internal). */
void bindThread(const ThreadBinding &b);
void unbindThread();

/** Process-wide fallback binding for non-worker threads, owned by the
 * Runtime (last constructed wins; cleared by its destructor). */
void setAmbient(NumaArena *arena, bool pooled, const void *owner);
void clearAmbient(const void *owner);

/** Allocate @p bytes homed on @p place (kAnyPlace = caller's socket). */
void *allocate(std::size_t bytes, Place place = kAnyPlace);

/** Registered big-block path from an explicit arena (PartedVec shards,
 * workload buffers — unambiguous when several runtimes exist). */
void *allocateOn(NumaArena &arena, std::size_t bytes, int socket);

/** Registered block with pages split across sockets in contiguous
 * chunks (NumaArena::allocPartitioned under a data-plane header). */
void *allocatePartitioned(NumaArena &arena, std::size_t bytes, int chunks);

/** Plain-heap path with a data-plane header (DataHeapPolicy::Heap). */
void *allocatePlain(std::size_t bytes);

/** Free any block from any data-plane path; nullptr is a no-op. */
void deallocate(void *ptr);

} // namespace numa

/**
 * Standard-library allocator over numa::allocate, so `std::vector<T,
 * NumaAllocator<T>>` lands on a chosen socket. Place-holding and
 * stateful: copies (and container copy/rebind) propagate the place.
 */
template <typename T>
class NumaAllocator
{
  public:
    using value_type = T;
    static_assert(alignof(T) <= NumaHeap::kDataAlign,
                  "data-plane blocks are 64-byte aligned");

    NumaAllocator() = default;
    explicit NumaAllocator(Place place) : _place(place) {}
    template <typename U>
    NumaAllocator(const NumaAllocator<U> &other) : _place(other.place())
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(numa::allocate(n * sizeof(T), _place));
    }

    void deallocate(T *p, std::size_t) { numa::deallocate(p); }

    Place place() const { return _place; }

  private:
    Place _place = kAnyPlace;
};

template <typename T, typename U>
bool
operator==(const NumaAllocator<T> &a, const NumaAllocator<U> &b)
{
    return a.place() == b.place();
}

template <typename T, typename U>
bool
operator!=(const NumaAllocator<T> &a, const NumaAllocator<U> &b)
{
    return !(a == b);
}

} // namespace numaws

#endif // NUMAWS_MEM_NUMA_HEAP_H
