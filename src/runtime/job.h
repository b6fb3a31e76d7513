/**
 * @file
 * The serving front door: jobs, job handles, outcomes, cancellation.
 *
 * A *job* is an independent root computation submitted to the runtime —
 * the open-loop analogue of a batch run(). Each job carries a place hint,
 * a priority class, an optional deadline, and arrival/start/finish
 * timestamps; the returned JobHandle is joinable and exposes the job's
 * latency decomposition and JobOutcome once it resolves. Inside a job the
 * existing fork-join surface (TaskGroup, parallelFor*) is unchanged: jobs
 * are the inter-computation layer, TaskGroup the intra-job layer, and
 * batch Runtime::run(fn) is literally submit(fn).wait() — one code path.
 *
 * Overload protection (PR 7): a job resolves to exactly one of five
 * outcomes. Done/Failed are the PR 6 completions; Cancelled (handle
 * cancel), Expired (deadline), and Rejected (admission control /
 * shedding, sched/policy.h's ShedPolicy) can resolve a job *without
 * running it* — a queued root whose cancel or deadline fires is skipped
 * at claim time — or unwind a running one cooperatively: TaskGroup's
 * spawn/sync boundaries observe the job's CancelToken and throw the
 * internal JobCancelled signal, so deep fork-join trees unwind promptly.
 * A body that never reaches another boundary simply finishes (Done wins
 * a finish-vs-cancel race).
 *
 * Those same spawn/sync boundaries also host *latency-class preemption*
 * (ServingPolicy::preempt): a worker whose StealCore carries a raised
 * yield directive checkpoints the running job — its just-pushed child
 * stays on the deque as the stealable continuation — and runs a
 * strictly-higher-class queued job to completion nested on the same
 * stack before resuming, so a Latency job admitted under Batch
 * saturation waits for one task body, not one whole job.
 */
#ifndef NUMAWS_RUNTIME_JOB_H
#define NUMAWS_RUNTIME_JOB_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "sched/policy.h"
#include "support/panic.h"
#include "support/timing.h"
#include "topology/place.h"

namespace numaws {

class Runtime;

/**
 * Priority class of a job: the admission queue serves Latency before
 * Normal before Batch (strict, FIFO within a class), and per-class
 * latency histograms are reported separately in RuntimeStats.
 */
enum class JobClass : uint8_t { Latency = 0, Normal = 1, Batch = 2 };

inline constexpr int kNumJobClasses = 3;
static_assert(kNumJobClasses == kNumServingClasses,
              "ServingPolicy's per-class knobs index by JobClass");

inline const char *
jobClassName(JobClass c)
{
    switch (c) {
      case JobClass::Latency: return "latency";
      case JobClass::Normal: return "normal";
      case JobClass::Batch: return "batch";
    }
    return "?";
}

/** Terminal state of a job (Pending until it resolves). */
enum class JobOutcome : uint8_t
{
    Pending = 0,  ///< not yet resolved (queued or running)
    Done,         ///< body returned normally
    Failed,       ///< body threw; wait() rethrows the exception
    Cancelled,    ///< JobHandle::cancel(), skipped or unwound
    Expired,      ///< deadline passed, skipped or unwound
    Rejected,     ///< admission control or load shedding (never ran)
};

inline const char *
jobOutcomeName(JobOutcome o)
{
    switch (o) {
      case JobOutcome::Pending: return "pending";
      case JobOutcome::Done: return "done";
      case JobOutcome::Failed: return "failed";
      case JobOutcome::Cancelled: return "cancelled";
      case JobOutcome::Expired: return "expired";
      case JobOutcome::Rejected: return "rejected";
    }
    return "?";
}

/** Submission parameters for Runtime::submit. */
struct JobOptions
{
    /** Locality hint for the job's root (inherited by its spawns, the
     * paper's inheritance rule); kAnyPlace for no preference. */
    Place place = kAnyPlace;
    JobClass cls = JobClass::Normal;
    /** Deadline relative to submission, nanoseconds; 0 = none. A job
     * whose deadline passes while queued is shed at dequeue (never
     * started, outcome Expired); one already running observes it at
     * the next spawn/sync boundary via its CancelToken. */
    int64_t deadlineNs = 0;
};

/**
 * Shared completion record of one job, owned jointly by the handle, the
 * in-flight root task, and the admission queue entry. Runtime-internal
 * except through JobHandle / CancelToken.
 */
struct JobState
{
    JobOptions opts;
    uint64_t id = 0;
    /** Timestamps (nowNs clock): submit at admission, start when a
     * worker begins executing the root, finish when the job resolves. */
    int64_t submitNs = 0;
    /** Absolute deadline (nowNs clock), 0 = none; submit + deadlineNs. */
    int64_t deadlineAtNs = 0;
    std::atomic<int64_t> startNs{0};
    std::atomic<int64_t> finishNs{0};
    /** A worker claimed the root and began the body (never set for
     * jobs resolved at claim time or rejected at submit). */
    std::atomic<bool> started{false};
    /** Cancellation request flag; observed at claim time and at
     * TaskGroup spawn/sync boundaries. Sticky once set. */
    std::atomic<bool> cancelRequested{false};
    std::atomic<bool> done{false};
    std::atomic<JobOutcome> outcome{JobOutcome::Pending};
    /** First exception escaping the job body; rethrown by wait(). */
    std::exception_ptr exception;
    std::mutex mutex;
    std::condition_variable cv;
};

/**
 * Internal unwind signal thrown at TaskGroup spawn/sync boundaries of a
 * cancelled or expired job. Deliberately an std::exception so partially
 * exception-safe user code cleans up on the way out; Runtime::submit's
 * wrapper catches it and resolves the job Cancelled/Expired instead of
 * Failed. User code should let it propagate (a catch(...) that swallows
 * it merely delays the unwind until the next boundary).
 */
struct JobCancelled : std::exception
{
    const char *
    what() const noexcept override
    {
        return "numaws job cancelled (cooperative unwind)";
    }
};

/** Has @p s been asked to stop — cancel requested, or deadline passed?
 * One relaxed load for deadline-free jobs; deadline'd jobs pay a clock
 * read per check (sync boundaries and CancelToken polls; the spawn
 * boundary amortizes the clock read, Worker::spawnInterrupted). */
inline bool
jobInterrupted(const JobState &s)
{
    if (s.cancelRequested.load(std::memory_order_relaxed))
        return true;
    return s.deadlineAtNs != 0 && nowNs() > s.deadlineAtNs;
}

/**
 * Cooperative cancellation view of the enclosing job, observable from
 * inside a job body via currentCancelToken() (runtime/api.h). Checking
 * is cheap (see jobInterrupted); bodies with long boundary-free loops
 * should poll it explicitly, everything spawn/sync-structured is
 * covered automatically.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** False for the default token (off-runtime, or not inside a job):
     * such a token never reports cancellation. */
    bool valid() const { return _state != nullptr; }

    /** Cancellation or expiry requested: the body should unwind. */
    bool
    cancelled() const
    {
        return _state != nullptr && jobInterrupted(*_state);
    }

    /** Throw the cooperative unwind signal if cancelled() — the same
     * check TaskGroup's spawn/sync boundaries perform. */
    void
    throwIfCancelled() const
    {
        if (cancelled())
            throw JobCancelled{};
    }

    /** Absolute deadline (nowNs clock) of the job, 0 = none. */
    int64_t
    deadlineNs() const
    {
        return _state != nullptr ? _state->deadlineAtNs : 0;
    }

  private:
    friend class Runtime;
    friend CancelToken currentCancelToken();

    explicit CancelToken(const JobState *state) : _state(state) {}

    /** Non-owning: valid while the job body runs (the root task's
     * closure holds the state alive for the token's whole scope). */
    const JobState *_state = nullptr;
};

/**
 * Joinable reference to a submitted job. Copyable and cheap (one
 * shared_ptr); outliving the runtime is safe for the accessors because
 * the runtime resolves every submitted job before shutting down. All
 * accessors panic — with a message, not a null-deref — on a
 * default-constructed or moved-from handle; check valid() first when a
 * handle may be empty.
 */
class JobHandle
{
  public:
    JobHandle() = default;

    bool valid() const { return _state != nullptr; }

    uint64_t
    id() const
    {
        requireValid("id");
        return _state->id;
    }

    JobClass
    cls() const
    {
        requireValid("cls");
        return _state->opts.cls;
    }

    bool
    done() const
    {
        requireValid("done");
        return _state->done.load(std::memory_order_acquire);
    }

    /** Terminal outcome, or JobOutcome::Pending while in flight. */
    JobOutcome
    outcome() const
    {
        requireValid("outcome");
        return _state->outcome.load(std::memory_order_acquire);
    }

    /**
     * Request cancellation: a still-queued job is skipped at claim
     * time (outcome Cancelled, never started); a running one unwinds
     * at its next spawn/sync boundary. Idempotent; a job that already
     * resolved is unaffected (Done wins a finish-vs-cancel race).
     * @return true when the request was recorded before the job
     *         resolved (it may still finish Done — cooperative).
     */
    bool cancel();

    /**
     * Block until the job resolves, then rethrow its exception (if
     * any; every wait() call on a Failed job rethrows). On a worker
     * thread this *helps*: it executes queued jobs and steals instead
     * of blocking, so nested submit-and-wait cannot deadlock even on a
     * single-worker runtime. Cancelled/Expired/Rejected jobs return
     * normally — check outcome().
     */
    void wait();

    /** wait() bounded by an absolute nowNs-clock instant. @return
     * done() at return; does not rethrow until the job resolves. */
    bool waitUntil(int64_t deadline_ns);

    /** wait() bounded by a relative timeout. */
    bool
    waitFor(int64_t timeout_ns)
    {
        requireValid("waitFor");
        return waitUntil(nowNs() + timeout_ns);
    }

    /** @name Latency decomposition (valid once done()) */
    /// @{
    /** submit -> finish: the per-job serving latency. */
    int64_t
    latencyNs() const
    {
        requireValid("latencyNs");
        return _state->finishNs.load(std::memory_order_acquire)
               - _state->submitNs;
    }
    /** submit -> start: admission-queue delay. */
    int64_t
    queueNs() const
    {
        requireValid("queueNs");
        return _state->startNs.load(std::memory_order_acquire)
               - _state->submitNs;
    }
    /** start -> finish: execution (including intra-job parallelism). */
    int64_t
    execNs() const
    {
        requireValid("execNs");
        return _state->finishNs.load(std::memory_order_acquire)
               - _state->startNs.load(std::memory_order_acquire);
    }
    /// @}

  private:
    friend class Runtime;

    explicit JobHandle(std::shared_ptr<JobState> state)
        : _state(std::move(state))
    {
    }

    void
    requireValid(const char *op) const
    {
        if (_state == nullptr)
            NUMAWS_PANIC("JobHandle::%s on an invalid handle "
                         "(default-constructed or moved-from)",
                         op);
    }

    std::shared_ptr<JobState> _state;
};

} // namespace numaws

#endif // NUMAWS_RUNTIME_JOB_H
