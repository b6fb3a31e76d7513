#include "mem/numa_heap.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

namespace numaws {

NumaHeap::~NumaHeap()
{
    // Workers have joined by the time a heap destructs (the Runtime's
    // arena and page map are declared before the worker array), so the
    // remote stack is quiescent: drain it for the outstanding() book,
    // then return every slab wholesale — individual block free lists
    // need no walking.
    drainRemote();
    for (void *slab : _slabs)
        _arena->free(slab);
}

DataBlockHeader *
NumaHeap::allocateSlow(int cls)
{
    // Order mirrors the frame pool: reclaim remote frees first (reuse
    // beats carving), then bump the current slab, then carve.
    if (drainRemote() > 0 && _freeHead[cls] != nullptr) {
        DataBlockHeader *h = _freeHead[cls];
        NUMAWS_ASSERT(h->state == kBlockFree);
        _freeHead[cls] = h->next;
        relaxedAdd(_blocksRecycled);
        return h;
    }
    const std::size_t block = kHeaderBytes + kClassPayload[cls];
    if (_bumpPtr == nullptr
        || static_cast<std::size_t>(_bumpEnd - _bumpPtr) < block) {
        void *slab = _arena->carveSlabOnSocket(kSlabBytes, _socket);
        if (slab == nullptr) {
            // Graceful degradation: numa::allocate treats a nullptr
            // from the heap as "route this block elsewhere", so a
            // failed carve widens the existing fallback path.
            relaxedAdd(_slabFallbacks);
            return nullptr;
        }
        // First touch by the owning thread — on a real NUMA kernel this
        // homes the pages exactly where carveSlabOnSocket registered
        // them.
        std::memset(slab, 0, kSlabBytes);
        _slabs.push_back(slab);
        relaxedAdd(_slabBytes, kSlabBytes);
        _bumpPtr = static_cast<char *>(slab);
        _bumpEnd = _bumpPtr + kSlabBytes;
    }
    auto *h = reinterpret_cast<DataBlockHeader *>(_bumpPtr);
    _bumpPtr += block;
    h->next = nullptr;
    h->ownerHeap = this;
    h->arena = nullptr;
    h->sizeClass = static_cast<uint32_t>(cls);
    h->state = kBlockFree; // allocate() flips to live
    return h;
}

std::size_t
NumaHeap::drainRemoteSlow()
{
    DataBlockHeader *h =
        _remoteHead.exchange(nullptr, std::memory_order_acquire);
    std::size_t n = 0;
    while (h != nullptr) {
        DataBlockHeader *next = h->next;
        NUMAWS_ASSERT(h->state == kBlockFree);
        const int cls = static_cast<int>(h->sizeClass);
        h->next = _freeHead[cls];
        _freeHead[cls] = h;
        h = next;
        ++n;
    }
    return n;
}

namespace numa {
namespace {

thread_local ThreadBinding tlsBinding;

/** Process-wide fallback for non-worker threads. A mutex is fine: the
 * ambient path is already the slow path (registered arena alloc under
 * the arena's own locks). */
struct Ambient
{
    std::mutex mutex;
    NumaArena *arena = nullptr;
    bool pooled = false;
    const void *owner = nullptr;
};

Ambient &
ambient()
{
    static Ambient a;
    return a;
}

ThreadBinding
currentBinding()
{
    if (tlsBinding.arena != nullptr)
        return tlsBinding;
    Ambient &a = ambient();
    std::lock_guard<std::mutex> g(a.mutex);
    ThreadBinding b;
    b.arena = a.arena;
    b.pooled = a.pooled;
    return b;
}

void
stampHeader(DataBlockHeader *h, uint32_t cls, NumaArena *arena)
{
    h->next = nullptr;
    h->ownerHeap = nullptr;
    h->arena = arena;
    h->sizeClass = cls;
    h->state = NumaHeap::kBlockLive;
}

} // namespace

void
bindThread(const ThreadBinding &b)
{
    tlsBinding = b;
}

void
unbindThread()
{
    tlsBinding = ThreadBinding{};
}

void
setAmbient(NumaArena *arena, bool pooled, const void *owner)
{
    Ambient &a = ambient();
    std::lock_guard<std::mutex> g(a.mutex);
    a.arena = arena;
    a.pooled = pooled;
    a.owner = owner;
}

void
clearAmbient(const void *owner)
{
    Ambient &a = ambient();
    std::lock_guard<std::mutex> g(a.mutex);
    if (a.owner == owner) {
        a.arena = nullptr;
        a.pooled = false;
        a.owner = nullptr;
    }
}

void *
allocatePlain(std::size_t bytes)
{
    const std::size_t total =
        (NumaHeap::kHeaderBytes + bytes + NumaHeap::kDataAlign - 1)
        / NumaHeap::kDataAlign * NumaHeap::kDataAlign;
    void *base = std::aligned_alloc(NumaHeap::kDataAlign, total);
    if (base == nullptr)
        NUMAWS_FATAL("numa::allocatePlain: out of memory (%zu bytes)",
                     total);
    stampHeader(static_cast<DataBlockHeader *>(base),
                NumaHeap::kClassPlain, nullptr);
    return NumaHeap::payloadOf(static_cast<DataBlockHeader *>(base));
}

void *
allocateOn(NumaArena &arena, std::size_t bytes, int socket)
{
    const int sockets = arena.pageMap().numSockets();
    if (socket < 0)
        socket = 0;
    if (socket >= sockets)
        socket = sockets - 1;
    void *base =
        arena.allocOnSocket(NumaHeap::kHeaderBytes + bytes, socket);
    if (base == nullptr)
        return allocatePlain(bytes); // graceful carve failure
    stampHeader(static_cast<DataBlockHeader *>(base),
                NumaHeap::kClassArena, &arena);
    return NumaHeap::payloadOf(static_cast<DataBlockHeader *>(base));
}

void *
allocatePartitioned(NumaArena &arena, std::size_t bytes, int chunks)
{
    void *base =
        arena.allocPartitioned(NumaHeap::kHeaderBytes + bytes, chunks);
    if (base == nullptr)
        return allocatePlain(bytes); // graceful carve failure
    stampHeader(static_cast<DataBlockHeader *>(base),
                NumaHeap::kClassArena, &arena);
    return NumaHeap::payloadOf(static_cast<DataBlockHeader *>(base));
}

void *
allocate(std::size_t bytes, Place place)
{
    if (bytes == 0)
        bytes = 1;
    const ThreadBinding b = currentBinding();
    if (!b.pooled || b.arena == nullptr)
        return allocatePlain(bytes);
    // Worker fast path: the local heap serves any placeless request and
    // requests for the worker's own socket.
    if (b.heap != nullptr
        && (!isConcretePlace(place) || place == b.place)) {
        if (void *p = b.heap->allocate(bytes))
            return p;
    }
    // Cross-socket or oversized: registered arena block.
    const int socket = isConcretePlace(place)
                           ? place
                           : (isConcretePlace(b.place) ? b.place : 0);
    return allocateOn(*b.arena, bytes, socket);
}

void
deallocate(void *ptr)
{
    if (ptr == nullptr)
        return;
    DataBlockHeader *h = NumaHeap::headerOf(ptr);
    switch (h->sizeClass) {
      case NumaHeap::kClassPlain:
        NUMAWS_ASSERT(h->state == NumaHeap::kBlockLive);
        h->state = NumaHeap::kBlockFree;
        std::free(h);
        return;
      case NumaHeap::kClassArena:
        NUMAWS_ASSERT(h->state == NumaHeap::kBlockLive);
        h->state = NumaHeap::kBlockFree;
        h->arena->free(h);
        return;
      default: {
        NumaHeap *owner = h->ownerHeap;
        NUMAWS_ASSERT(owner != nullptr);
        // freeLocal/freeRemote re-check the live state themselves.
        if (owner == tlsBinding.heap)
            owner->freeLocal(h);
        else
            owner->freeRemote(h);
        return;
      }
    }
}

} // namespace numa

} // namespace numaws
