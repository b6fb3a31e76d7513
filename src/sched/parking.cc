#include "sched/parking.h"

#include "support/panic.h"

namespace numaws {

ParkingLot::ParkingLot(int sockets) : _numSockets(sockets)
{
    NUMAWS_ASSERT(sockets >= 1);
    _slots = std::make_unique<Slot[]>(static_cast<std::size_t>(sockets));
}

void
ParkingLot::wake(int socket)
{
    Slot &s = _slots[socket];
    // Fast path: nobody parked here. A parker concurrently entering
    // park() re-checks its predicate after registering, so skipping the
    // notify can only delay it by one fallback period (file docs).
    if (s.waiters.load(std::memory_order_seq_cst) == 0)
        return;
    {
        // Bump under the mutex: a parker between its epoch snapshot and
        // cv.wait holds the mutex for both, so this wake either
        // serializes before the snapshot (parker sees the new epoch) or
        // notifies an already-registered waiter.
        std::lock_guard<std::mutex> g(s.m);
        s.epoch.fetch_add(1, std::memory_order_relaxed);
    }
    s.delivered.fetch_add(1, std::memory_order_relaxed);
    s.cv.notify_all();
}

void
ParkingLot::wakeAll()
{
    for (int s = 0; s < _numSockets; ++s) {
        Slot &slot = _slots[s];
        {
            std::lock_guard<std::mutex> g(slot.m);
            slot.epoch.fetch_add(1, std::memory_order_relaxed);
        }
        if (slot.waiters.load(std::memory_order_seq_cst) != 0)
            slot.delivered.fetch_add(1, std::memory_order_relaxed);
        slot.cv.notify_all();
    }
}

} // namespace numaws
