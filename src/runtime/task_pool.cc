#include "runtime/task_pool.h"

#include <cstring>

#include "mem/numa_arena.h"

namespace numaws {

TaskFramePool::~TaskFramePool()
{
    drainRemote();
    for (void *slab : _slabs)
        NumaArena::releaseSlab(slab);
}

void *
TaskFramePool::allocateSlow(int cls)
{
    FreeClass &c = _classes[cls];
    // Frames freed by thieves are preferable to fresh memory: they are
    // this pool's own NUMA-local frames, and reclaiming them here keeps
    // a spawn-heavy owner whose children all die on thieves from
    // carving slabs forever. Still off the fast path: one CAS exchange,
    // only when the local list is already dry.
    if (drainRemote() > 0 && c.freeList != nullptr) {
        TaskFrameHeader *h = c.freeList;
        c.freeList = h->next;
        NUMAWS_ASSERT(h->state == kFrameFree);
        h->state = kFrameLive;
        relaxedAdd(_framesRecycled);
        relaxedAdd(_framesAllocated);
        return objectOf(h);
    }
    const std::size_t frame = kClassBytes[cls];
    if (c.bumpPtr == nullptr
        || c.bumpPtr + frame > c.bumpEnd) {
        void *slab = NumaArena::carveSlab(kSlabBytes);
        if (slab == nullptr) {
            // Graceful degradation: the spawn path treats a nullptr
            // from allocate() as "heap-allocate this frame" already
            // (oversized frames take it every day), so a failed carve
            // just widens that path and counts itself.
            relaxedAdd(_slabFallbacks);
            return nullptr;
        }
        // First touch on the owning worker's thread: on a real NUMA
        // kernel this homes the slab's pages on the worker's socket
        // (the carveSlab contract; see mem/numa_arena.h).
        std::memset(slab, 0, kSlabBytes);
        _slabs.push_back(slab);
        relaxedAdd(_slabBytes, kSlabBytes);
        c.bumpPtr = static_cast<char *>(slab);
        c.bumpEnd = c.bumpPtr + kSlabBytes;
    }
    TaskFrameHeader *h = reinterpret_cast<TaskFrameHeader *>(c.bumpPtr);
    c.bumpPtr += frame;
    h->next = nullptr;
    h->ownerWorker = _owner;
    h->sizeClass = static_cast<uint32_t>(cls);
    h->state = kFrameLive;
    relaxedAdd(_framesAllocated);
    return objectOf(h);
}

std::size_t
TaskFramePool::drainRemoteSlow()
{
    // Single consumer: one exchange detaches the whole stack; the
    // acquire pairs with freeRemote's release so every frame's
    // thief-side writes happen-before the owner relinks it.
    TaskFrameHeader *h =
        _remoteHead.exchange(nullptr, std::memory_order_acquire);
    std::size_t n = 0;
    while (h != nullptr) {
        TaskFrameHeader *next = h->next;
        NUMAWS_ASSERT(h->state == kFrameFree);
        FreeClass &c = _classes[h->sizeClass];
        h->next = c.freeList;
        c.freeList = h;
        h = next;
        ++n;
    }
    return n;
}

} // namespace numaws
