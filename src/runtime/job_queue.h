/**
 * @file
 * MPMC admission queue feeding job roots to the worker pool.
 *
 * Submitters (any thread) deposit a job's root task into its class lane;
 * idle workers claim roots in class order (Latency > Normal > Batch,
 * reranked by priority aging — ShedCore::claimLane picks the lane),
 * FIFO within a class. The queue is deliberately *not* on the
 * spawn fast path — admission happens at most once per job, so a short
 * per-lane spinlock critical section is the right trade against lock-free
 * complexity. What must be cheap is the *dry check* the worker idle loop
 * and the park predicates perform: empty() is a single atomic load of an
 * approximate size (exact when quiescent, momentarily conservative under
 * concurrent pops — a false "nonempty" costs one lane scan, a false
 * "empty" cannot outlive the concurrent push's admission wake plus the
 * parking fallback period).
 *
 * Since PR 7 each entry pairs the root with its shared JobState, so the
 * claimer can decide the job's fate *before* running it (cancelled or
 * past-deadline roots are skipped at claim time), and the overload layer
 * can bound lanes (laneDepth vs ServingPolicy::laneCapacity) and shed
 * queued jobs from the lowest class (ShedCore::shedLane names the lane,
 * tryPopLane pops it).
 */
#ifndef NUMAWS_RUNTIME_JOB_QUEUE_H
#define NUMAWS_RUNTIME_JOB_QUEUE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "runtime/job.h"
#include "support/spin_lock.h"

namespace numaws {

class TaskBase;

/** One admission-queue entry: a job's root and its completion record.
 * Holding the state by shared_ptr keeps it alive across a claim-time
 * skip, where the root (whose closure owns the other reference) is
 * deleted without running. */
struct QueuedJob
{
    TaskBase *root = nullptr;
    std::shared_ptr<JobState> state;

    bool valid() const { return root != nullptr; }
};

/** Priority-lane MPMC FIFO of unclaimed job root tasks. */
class JobQueue
{
  public:
    /** Deposit @p root on its class lane (class from @p state). */
    void push(TaskBase *root, std::shared_ptr<JobState> state);

    /** Claim the oldest entry of the highest non-empty class, or an
     * invalid QueuedJob. */
    QueuedJob tryPop();

    /** Pop the oldest entry of one specific lane, or invalid. Claim
     * loops that rank lanes by *effective* class (priority aging) and
     * the QueueDelay shedder pick the lane in ShedCore first, then pop
     * from it directly. */
    QueuedJob
    tryPopLane(int cls)
    {
        return popFromLane(_lanes[cls]);
    }

    /** Submit timestamp (ns) of @p cls's oldest queued job, or -1 when
     * the lane is empty — the head-wait signal claims rank lanes by
     * (ShedCore::claimLane). An empty lane answers from its depth
     * counter without the lock (laneDepth's staleness contract); a
     * nonempty one takes the lane lock. Claim-path only, never spawn. */
    int64_t
    headSubmitNs(int cls)
    {
        if (laneDepth(cls) == 0)
            return -1;
        Lane &lane = _lanes[cls];
        std::lock_guard<SpinLock> g(lane.lock);
        return lane.q.empty() ? -1 : lane.q.front().state->submitNs;
    }

    /** Fast dry check (one atomic load; see file comment for the
     * transient-staleness contract). */
    bool
    empty() const
    {
        return _size.load(std::memory_order_acquire) == 0;
    }

    /** Queued-but-unclaimed jobs on @p cls's lane (same staleness
     * contract as empty(); the admission-control depth signal). */
    int64_t
    laneDepth(int cls) const
    {
        return _lanes[cls].depth.load(std::memory_order_acquire);
    }

    /** Jobs ever admitted (diagnostics). */
    uint64_t
    pushes() const
    {
        return _pushes.load(std::memory_order_relaxed);
    }

  private:
    struct Lane
    {
        SpinLock lock;
        std::deque<QueuedJob> q;
        /** Per-lane size signal with the same push-then-increment /
         * decrement-on-pop contract as _size. */
        std::atomic<int64_t> depth{0};
    };

    QueuedJob popFromLane(Lane &lane);

    Lane _lanes[kNumJobClasses];
    /** Upper-bound size signal: incremented after a push is visible,
     * decremented only on a successful pop. */
    std::atomic<int64_t> _size{0};
    std::atomic<uint64_t> _pushes{0};
};

} // namespace numaws

#endif // NUMAWS_RUNTIME_JOB_QUEUE_H
