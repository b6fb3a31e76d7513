#include "runtime/job.h"

#include <chrono>

#include "runtime/runtime.h"

namespace numaws {

void
JobHandle::wait()
{
    requireValid("wait");
    JobState &s = *_state;
    if (!s.done.load(std::memory_order_acquire)) {
        if (Worker *w = Worker::current()) {
            // Worker thread: help instead of blocking (claims queued
            // jobs too, so nested submit-and-wait cannot deadlock).
            w->helpJobUntil(s, Worker::kNoDeadline);
        } else {
            std::unique_lock<std::mutex> lock(s.mutex);
            s.cv.wait(lock, [&s] {
                return s.done.load(std::memory_order_acquire);
            });
        }
    }
    if (s.exception)
        std::rethrow_exception(s.exception);
}

bool
JobHandle::waitUntil(int64_t deadline_ns)
{
    requireValid("waitUntil");
    JobState &s = *_state;
    if (!s.done.load(std::memory_order_acquire)) {
        if (Worker *w = Worker::current()) {
            // Bounded help: execute queued work until the job resolves
            // or the instant passes (same no-deadlock property as
            // wait()).
            w->helpJobUntil(s, deadline_ns);
        } else {
            using clock = std::chrono::steady_clock;
            const clock::time_point until{
                std::chrono::nanoseconds(deadline_ns)};
            std::unique_lock<std::mutex> lock(s.mutex);
            s.cv.wait_until(lock, until, [&s] {
                return s.done.load(std::memory_order_acquire);
            });
        }
    }
    if (!s.done.load(std::memory_order_acquire))
        return false;
    if (s.exception)
        std::rethrow_exception(s.exception);
    return true;
}

bool
JobHandle::cancel()
{
    requireValid("cancel");
    JobState &s = *_state;
    // Record the request before checking done: a finishJob racing this
    // publishes done after its outcome, so observing !done here means
    // claim-time skips and boundary checks can still see the flag.
    s.cancelRequested.store(true, std::memory_order_release);
    return !s.done.load(std::memory_order_acquire);
}

} // namespace numaws
