#include "runtime/runtime.h"

#include "support/panic.h"

#include <utility>

namespace numaws {

void
TaskGroup::sync()
{
    Worker *w = Worker::current();
    NUMAWS_ASSERT(w != nullptr); // sync only from inside run()
    w->helpSync(*this);
    NUMAWS_ASSERT(pending() == 0);

    // No lock: with pending() == 0 every child's recordException
    // happened-before this read — local children ran on this thread,
    // and stolen ones wrote before their release increment, which
    // pending()'s acquire load observed.
    std::exception_ptr e = std::exchange(_exception, nullptr);
    if (e)
        std::rethrow_exception(e);

    // Cooperative cancellation boundary, checked *after* the join: the
    // children are accounted for either way (a JobCancelled unwind must
    // not orphan live tasks), but a cancelled or past-deadline job
    // stops here rather than proceeding into the next serial stage.
    // The destructor's implicit sync deliberately skips this — it must
    // not throw — so the unwind it helps along still joins cleanly.
    if (JobState *job = w->currentJob();
        job != nullptr && jobInterrupted(*job))
        throw JobCancelled{};

    // Preemption boundary, after the join for the same reason: the
    // nested higher-class job runs while *this* job is at a quiescent
    // point (no outstanding children in this group), so the yield can
    // never deadlock the join it sits behind.
    if (w->yieldPending())
        w->serviceYield();
}

void
TaskGroup::recordException(std::exception_ptr e)
{
    // Locked: stolen children can throw concurrently.
    std::lock_guard<SpinLock> g(_exceptionLock);
    if (!_exception)
        _exception = std::move(e);
}

} // namespace numaws
