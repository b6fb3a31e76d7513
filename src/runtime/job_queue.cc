#include "runtime/job_queue.h"

#include <mutex>

#include "support/panic.h"

namespace numaws {

void
JobQueue::push(TaskBase *root, std::shared_ptr<JobState> state)
{
    NUMAWS_ASSERT(root != nullptr && state != nullptr);
    Lane &lane = _lanes[static_cast<int>(state->opts.cls)];
    {
        std::lock_guard<SpinLock> g(lane.lock);
        lane.q.push_back(QueuedJob{root, std::move(state)});
    }
    // Size bumps after the push is visible: a popper that observes the
    // increment will find the root when it scans (lane lock acquire
    // orders after this push's release).
    lane.depth.fetch_add(1, std::memory_order_release);
    _size.fetch_add(1, std::memory_order_release);
    _pushes.fetch_add(1, std::memory_order_relaxed);
}

QueuedJob
JobQueue::popFromLane(Lane &lane)
{
    std::lock_guard<SpinLock> g(lane.lock);
    if (lane.q.empty())
        return QueuedJob{};
    QueuedJob job = std::move(lane.q.front());
    lane.q.pop_front();
    lane.depth.fetch_sub(1, std::memory_order_release);
    _size.fetch_sub(1, std::memory_order_release);
    return job;
}

QueuedJob
JobQueue::tryPop()
{
    if (empty())
        return QueuedJob{};
    for (Lane &lane : _lanes) {
        QueuedJob job = popFromLane(lane);
        if (job.valid())
            return job;
    }
    return QueuedJob{};
}

} // namespace numaws
