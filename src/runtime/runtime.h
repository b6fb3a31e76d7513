/**
 * @file
 * NUMA-WS threaded runtime: the adoptable task-parallel platform.
 *
 * Workers are surrogates of processing cores (paper Section II). Each owns
 * a THE-protocol deque, a single-entry mailbox, and a private RNG. Workers
 * are grouped into virtual places; the scheduler honors place hints with
 * best effort via locality-biased steals and lazy work pushing, but load
 * balancing always comes first (a starving worker will steal against the
 * hint rather than idle).
 *
 * Since PR 4 every scheduling *decision* — victim selection, the
 * mailbox-vs-deque coin flip, PUSHBACK receivers and the pushing
 * threshold, parking streaks and tuning — lives in
 * the engine-agnostic StealCore (sched/steal_core.h), configured by the
 * SchedPolicy nested in RuntimeOptions (sched/policy.h, where the full
 * knob table is documented). Worker::trySteal/pushBack/mainLoop are
 * thin drivers that execute the core's actions against the threaded
 * mechanics: real deques, mailboxes, and the ParkingLot. The simulator drives the very same core, so ablations on
 * either engine toggle one shared implementation.
 *
 * Since PR 6 the public entry point is *job submission* (the serving
 * front door): Runtime::submit(fn, JobOptions) deposits an independent
 * root computation into the JobQueue and returns a joinable JobHandle
 * with per-job latency; batch run(fn) is submit(fn).wait() — the same
 * code path. Idle workers claim queued jobs between steals, and the
 * pool is *elastic*: workers park through the ParkingLot whenever the
 * occupancy board and the JobQueue are both dry, waking on admission
 * edges, so idle cores are yielded between bursts.
 */
#ifndef NUMAWS_RUNTIME_RUNTIME_H
#define NUMAWS_RUNTIME_RUNTIME_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "deque/mailbox.h"
#include "deque/ws_deque.h"
#include "mem/numa_heap.h"
#include "runtime/job.h"
#include "runtime/job_queue.h"
#include "runtime/task.h"
#include "runtime/task_pool.h"
#include "sched/interference_core.h"
#include "sched/occupancy.h"
#include "sched/parking.h"
#include "sched/policy.h"
#include "sched/shed_core.h"
#include "sched/steal_core.h"
#include "support/cache_aligned.h"
#include "support/latency_hist.h"
#include "support/panic.h"
#include "support/pressure.h"
#include "support/relaxed.h"
#include "support/rng.h"
#include "support/spin_lock.h"
#include "support/timing.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

namespace numaws {

class Runtime;

/**
 * What Runtime teardown does with jobs still queued (running jobs are
 * always completed — a body cannot be abandoned mid-flight).
 */
enum class ShutdownPolicy : uint8_t
{
    /** Wait for every submitted job, queued included, to finish (the
     * PR 6 behavior and the default). */
    Drain,
    /** Resolve queued-but-unstarted jobs as Cancelled without running
     * them, then wait only for the jobs already executing. The
     * fast-teardown choice for servers dying under load. */
    CancelQueued,
};

/**
 * Runtime construction parameters: engine-side knobs only. Every
 * scheduling *decision* knob (victim selection, parking, PUSHBACK
 * targeting, ...) lives in the nested
 * SchedPolicy, shared verbatim with the simulator's SimConfig — see
 * sched/policy.h for the full table and PR 4 migration notes.
 */
struct RuntimeOptions
{
    /** Worker threads; 0 means one per host CPU. */
    int numWorkers = 0;
    /** Virtual places the workers are spread over. */
    int numPlaces = 1;
    /** The unified scheduling policy (sched/policy.h). */
    SchedPolicy sched{};
    /**
     * Optional page-home registry for data-home placement (not owned;
     * must outlive the runtime). Tasks spawned with a data range resolve
     * their home sockets through it.
     */
    const PageMap *pageMap = nullptr;
    /** Pin worker threads to host CPUs (best effort). */
    bool pinThreads = false;
    /**
     * Task-frame allocation: NUMA-local per-worker pools (default) or
     * global-heap new/delete per spawn (the ablation baseline). An
     * engine-side mechanics knob, deliberately *not* in SchedPolicy:
     * the simulator has no allocator to steer, and no scheduling
     * decision may depend on it (the engine-parity contract).
     */
    TaskPoolPolicy taskPool = TaskPoolPolicy::Pooled;
    /**
     * User-data allocation (numa::allocate / NumaAllocator / PartedVec):
     * per-worker NUMA heaps plus PageMap-registered arena blocks
     * (default), or plain unregistered heap blocks (the ablation
     * baseline — pre-data-plane behavior). Engine-side like taskPool:
     * the simulator has no allocator, and no scheduling decision may
     * depend on this knob.
     */
    DataHeapPolicy dataHeap = DataHeapPolicy::Pooled;
    /** Root seed; worker RNGs derive from it. */
    uint64_t seed = 0x5eed;
    /** Deque capacity (spawn depth bound). */
    std::size_t dequeCapacity = 1 << 16;
    /** Teardown policy for jobs still queued when the Runtime is
     * destroyed (see ShutdownPolicy). */
    ShutdownPolicy shutdownPolicy = ShutdownPolicy::Drain;
    /**
     * Stall watchdog, milliseconds; 0 (default) disables. When set, a
     * monitor thread checks every window that at least one task or job
     * completed while work was active; a silent window emits a
     * one-line-per-worker state dump (park state, running class, deque
     * depth, socket pressure) to stderr. Diagnosis only — it never
     * kills or unwedges anything.
     */
    int watchdogMs = 0;
};

/** Per-worker event counters, aggregated by Runtime::stats(). Each field
 * of a worker's live copy is a single-writer word (support/relaxed.h). */
struct WorkerCounters
{
    uint64_t spawns = 0;
    uint64_t stealAttempts = 0;
    uint64_t steals = 0;          ///< successful deque steals
    uint64_t mailboxTakes = 0;    ///< frames obtained from a mailbox
    uint64_t pushbackAttempts = 0;
    uint64_t pushbackSuccesses = 0;
    uint64_t pushbackGiveUps = 0; ///< threshold reached, ran it ourselves
    uint64_t tasksExecuted = 0;
    uint64_t tasksOnHintedPlace = 0; ///< hinted tasks run where hinted
    /** Decision counters (stealAttempts above, and yields below) are
     * maintained by each worker's StealCore — the shared policy brain —
     * and folded in by Worker::fold. */
    uint64_t yields = 0;             ///< preemption yields serviced
    /** Jobs claimed at an aged (promoted) effective class — the
     * priority-aging counter, bumped by the claiming worker. */
    uint64_t agedClaims = 0;
    /** @name Task-frame pool counters
     * Maintained by each worker's TaskFramePool and folded in by
     * Worker::fold. framesRecycled / spawns is the steady-state figure
     * of merit (~1.0 once the pool is warm); remoteFrees counts frames
     * thieves pushed home across workers; slabBytes is a gauge of
     * carved pool memory. */
    /// @{
    uint64_t framesRecycled = 0; ///< pool allocations served from a free list
    uint64_t remoteFrees = 0;    ///< frames freed onto a remote-free stack
    uint64_t slabBytes = 0;      ///< pool memory carved from NumaArena
    uint64_t slabFallbacks = 0;  ///< failed carves degraded to heap frames
    /// @}
    /** @name Data-plane counters
     * Maintained by each worker's NumaHeap (the user-data sibling of
     * the frame pool) and folded in by Worker::fold.
     * dataBytesPooled is user bytes served from the size-classed fast
     * path; dataRemoteFrees counts blocks freed cross-thread onto a
     * remote stack; dataSlabBytes gauges carved heap memory. */
    /// @{
    uint64_t dataBytesPooled = 0;
    uint64_t dataRemoteFrees = 0;
    uint64_t dataSlabBytes = 0;
    uint64_t dataSlabFallbacks = 0; ///< failed carves, plain-heap blocks
    /// @}
    /** @name Parking counters
     * Unlike the others these advance on the idle path too: workers
     * park while the runtime is quiescent. */
    /// @{
    uint64_t parks = 0;              ///< idleWait entries
    uint64_t parkWakes = 0;          ///< parks ended by a notification
    uint64_t parkTimeouts = 0;       ///< parks ended by the timeout
    uint64_t spuriousWakes = 0;      ///< wakes with a still-dry board
    /** Nanoseconds spent parked in idleWait: the elastic-pool yield
     * metric (parkedNs over total worker-idle time is the fraction of
     * idleness actually handed back to the OS). */
    uint64_t parkedNs = 0;
    /** Interference adaptation (ServingPolicy::interference): times
     * this worker entered retirement (parked by the InterferenceCore
     * verdict) and times it was reinstated. */
    uint64_t interferenceRetires = 0;
    uint64_t interferenceReinstates = 0;
    /// @}
    /** Jobs whose root completed on this worker (serving front door). */
    uint64_t jobsCompleted = 0;

    /** Add @p o, read with relaxedLoad: it may be a worker's live copy. */
    void merge(const WorkerCounters &o);
    /** Remove baseline @p base, except the gauges slabBytes and
     * dataSlabBytes: carved memory survives a resetStats(). */
    void subtract(const WorkerCounters &base);
};

/** Per-class job-resolution tallies (overload-protection telemetry).
 * `rejected` counts submit-time admission rejections, `shed` counts
 * queued jobs the QueueDelay policy removed (their JobOutcome is also
 * Rejected — the counters split the two causes). */
struct JobOutcomeCounts
{
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t expired = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;

    void
    subtract(const JobOutcomeCounts &base)
    {
        done -= base.done;
        failed -= base.failed;
        cancelled -= base.cancelled;
        expired -= base.expired;
        rejected -= base.rejected;
        shed -= base.shed;
    }
};

/** Aggregated runtime statistics (counters plus the time split). */
struct RuntimeStats
{
    WorkerCounters counters;
    TimeSplit time;
    /** Aggregate per-job latency (submit -> finish) across all classes,
     * merged from the per-worker histograms; see also quantile().
     * Records jobs that ran to completion (Done/Failed) — resolved-
     * without-running jobs appear in jobOutcomes, not here, so latency
     * percentiles stay a statement about served work. */
    LatencyHist jobLatency;
    /** Same, split by JobClass (index with static_cast<int>(cls)). */
    LatencyHist jobLatencyByClass[kNumJobClasses];
    /** Per-class outcome tallies (index with static_cast<int>(cls)). */
    JobOutcomeCounts jobOutcomes[kNumJobClasses];

    /** Remove a resetStats() baseline; not from the histograms (a min or
     * max cannot be subtracted). */
    void
    subtract(const RuntimeStats &base)
    {
        counters.subtract(base.counters);
        time.subtract(base.time);
        for (int c = 0; c < kNumJobClasses; ++c)
            jobOutcomes[c].subtract(base.jobOutcomes[c]);
    }
};

/**
 * Fork-join synchronization scope: the library's cilk_sync.
 *
 * Every spawn names its group; sync() returns once all tasks spawned on
 * the group have completed, helping to execute work while waiting (first
 * its own deque — descendants only — then stealing, so a blocked worker is
 * never idle while work exists). Groups nest arbitrarily.
 *
 * A group belongs to the task body that declares it: spawn(), sync()
 * and pending() must all be called from that body (never from one of
 * its children). A task body never migrates, so spawner and syncer are
 * the same worker, and the join counter exploits it in the style of
 * Cilk's THE protocol: the owner counts spawns and the completions of
 * children it ran itself in plain integers; only a child that left the
 * worker (TaskBase::stolen) and completed elsewhere pays an atomic
 * release increment. An unstolen child cannot run anywhere else —
 * popTail is owner-only and every frame reaching a mailbox was marked
 * stolen by the thief that pushed it — so a spawn+sync whose children
 * never left the worker performs no atomic read-modify-write on the
 * group at all.
 *
 * The join is Worker::helpSync, the only out-of-line part of a group
 * (construction and the destructor's pending() test are inline). A child
 * it pops back itself — off the deque tail, or out of the own mailbox
 * after a thief routed it home — runs on the lean Worker::runLocalChild:
 * the syncing body spawned it, so it already carries that body's job
 * and frame owner, and completing it on the owner is a plain increment
 * even when it had been stolen.
 */
class TaskGroup
{
  public:
    TaskGroup() = default;
    /** Implicit sync for a group that dies with live children (the
     * cilk_sync at the end of every Cilk function); a no-op test of
     * pending() otherwise. Never rethrows: sync() does that. */
    inline ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn @p fn as a child task.
     * @param place locality hint: a concrete place, kAnyPlace, or
     *        kInheritPlace (default) to adopt the spawner's current hint
     *        (the paper's "subsequently spawned computation inherits the
     *        locality" rule).
     */
    template <typename F>
    void spawn(F &&fn, Place place = kInheritPlace);

    /**
     * Spawn @p fn annotated with the data range it chiefly touches.
     * An unplaced spawn (@p place not concrete) whose range has
     * registered page homes — in RuntimeOptions::pageMap or the
     * runtime's own data-plane map — is placed on the range's home
     * socket (Worker::placeForData).
     */
    template <typename F>
    void spawn(F &&fn, Place place, const void *data,
               std::size_t data_bytes);

    /** Wait for all spawned tasks, then rethrow the first exception. */
    void sync();

    /**
     * Outstanding children. Owner-only: call it from the task body that
     * owns the group (the plain counters are not visible to other
     * threads). Zero means every child has finished, and its writes —
     * a recorded exception included — happen-before the call: local
     * children ran on this thread, and the acquire load pairs with each
     * stolen child's release increment.
     */
    int64_t
    pending() const
    {
        return _spawned - _doneLocal
               - _doneStolen.load(std::memory_order_acquire);
    }

    /** @name Runtime-internal */
    /// @{
    void onChildStart() { ++_spawned; }
    /** A child finished; @p stolen is its TaskBase::stolen(). */
    void
    onChildDone(bool stolen)
    {
        if (stolen)
            _doneStolen.fetch_add(1, std::memory_order_release);
        else
            ++_doneLocal;
    }
    void recordException(std::exception_ptr e);
    /// @}

  private:
    int64_t _spawned = 0;   ///< owner-written
    int64_t _doneLocal = 0; ///< owner-written: children run on the owner
    /** Children that ran elsewhere (stolen or mailbox-routed). */
    std::atomic<int64_t> _doneStolen{0};
    /** Guards _exception against concurrently throwing stolen
     * children; sync() reads it unlocked once pending() is zero. */
    SpinLock _exceptionLock;
    std::exception_ptr _exception;
};

/**
 * A worker thread: deque + mailbox + RNG + place, and the scheduling loop.
 */
class Worker
{
  public:
    Worker(Runtime &runtime, int id, int place, uint64_t seed,
           std::size_t deque_capacity);

    int id() const { return _id; }
    Place place() const { return _place; }
    Runtime &runtime() { return _runtime; }

    /** The worker executing the calling thread, or nullptr. Inline:
     * every spawn and sync starts here. */
    static Worker *current() { return tlsCurrent; }

    /** Owner-side push (spawn path). */
    void pushTask(TaskBase *task);

    /** Current inherited locality hint of the executing task. */
    Place currentHint() const { return _currentHint; }

    /** The job whose task this worker is executing right now, or null
     * on the idle path. Maintained by executeTask (stolen subtasks
     * carry their job via TaskBase::job), it is what gives TaskGroup's
     * spawn/sync boundaries and currentCancelToken their cancellation
     * view. */
    JobState *currentJob() const { return _currentJob; }

    /** The spawn boundary's cancellation check on @p job: the cancel
     * flag on every spawn, but the deadline clock only on every
     * kDeadlineCheckPeriod-th spawn of this worker — a nowNs() per
     * spawn would cost more than the spawn itself. sync() still checks
     * both every time (jobInterrupted). */
    bool
    spawnInterrupted(const JobState &job)
    {
        if (job.cancelRequested.load(std::memory_order_relaxed))
            return true;
        if (job.deadlineAtNs == 0
            || (++_deadlineTick & (kDeadlineCheckPeriod - 1)) != 0)
            return false;
        return nowNs() > job.deadlineAtNs;
    }
    static constexpr uint32_t kDeadlineCheckPeriod = 64;

    /** Close the open time-split segment at @p now_ns (a timestamp the
     * caller already read) without changing bucket: Runtime::finishJob
     * flushes the job's last Work segment before publishing done, so
     * stats() read right after run() includes it. */
    void
    chargeOpenSegment(int64_t now_ns)
    {
        _time.add(_bucket, now_ns - _mark);
        _mark = now_ns;
    }

    /** @name Cooperative preemption (ServingPolicy::preempt) */
    /// @{
    /** Class of the job this worker is executing, -1 on the idle path.
     * Maintained by executeTask (only when preemption is enabled) so
     * the admission path can pick a preemption victim without touching
     * the workers' hot state. */
    int8_t
    runningCls() const
    {
        return _runningCls.load(std::memory_order_relaxed);
    }

    /** Spawn/sync boundary peek: preemption on and a yield raised.
     * One cached bool plus one relaxed load — the work-first price. */
    bool
    yieldPending() const
    {
        return _preemptEnabled && _core.yieldRequested();
    }

    /** Consume the yield directive and, if a strictly higher-class job
     * is queued, run it inline before returning to the preempted job.
     * The preempted job's deque-resident children stay stealable
     * throughout — that is its checkpointed continuation. */
    void serviceYield();
    /// @}

    /** Owner-only: bump a field with relaxedAdd. */
    WorkerCounters &counters() { return _counters; }
    /** Record a completed job's serving latency (Runtime::finishJob;
     * job roots always finish on a worker, so this is thread-private). */
    void
    recordJobLatency(JobClass cls, int64_t ns)
    {
        relaxedAdd(_counters.jobsCompleted);
        _jobHist[static_cast<int>(cls)].record(
            ns > 0 ? static_cast<uint64_t>(ns) : 0);
    }
    /**
     * Add this worker's statistics to @p into (Runtime::stats): its
     * counters, time split and job histograms, plus the StealCore,
     * frame-pool and data-heap counters. Every word is single-writer
     * and read with relaxedLoad, so the worker may be running.
     */
    void fold(RuntimeStats &into) const;
    /** Empty the job histograms (Runtime::resetStats, quiescent). */
    void
    clearJobHists()
    {
        for (LatencyHist &h : _jobHist)
            h = LatencyHist{};
    }
    /** @name Liveness introspection (watchdog / tests)
     * Racy relaxed reads by design — diagnosis, never decisions. */
    /// @{
    /** Monotonic count of completed task bodies and serviced parks:
     * the watchdog's per-worker liveness signal. */
    uint64_t
    progressStamp() const
    {
        return relaxedLoad(_progressStamp);
    }
    /** Is the worker inside idleWait (or retired-parked) right now? */
    bool
    parkedNow() const
    {
        return _parkedNow.load(std::memory_order_relaxed);
    }
    /** Is the worker currently retired by the InterferenceCore? */
    bool
    retiredNow() const
    {
        return _retiredNow.load(std::memory_order_relaxed);
    }
    /// @}
    Mailbox<TaskBase> &mailbox() { return _mailbox; }
    WsDeque<TaskBase> &deque() { return _deque; }
    /** The worker's scheduling brain (decisions, RNG, tuners). */
    StealCore &core() { return _core; }
    /** The worker's NUMA-local task-frame pool (spawn fast path). */
    TaskFramePool &framePool() { return _framePool; }
    /** The worker's NUMA-local user-data heap (numa::allocate). */
    NumaHeap &dataHeap() { return _dataHeap; }

    /**
     * Spawn-time placement hint for a data-annotated spawn: resolve the
     * range's *registered* page homes through the runtime's affinity
     * PageMap and pick a place from the resulting mask
     * (StealCore::placeFromAffinity). kAnyPlace when nothing is
     * registered — unregistered data must not herd spawns onto
     * socket 0.
     */
    Place placeForData(const void *data, std::size_t bytes) const;

    /** @name Runtime-internal scheduling entry points */
    /// @{
    void mainLoop();
    /** Help execute work until @p group has no pending children. */
    void helpSync(TaskGroup &group);
    /** Help execute work — queued jobs included, so nested
     * submit-and-wait cannot deadlock — until @p job completes or
     * nowNs() passes @p deadline_ns (the worker-side JobHandle::wait
     * with kNoDeadline, which reads no clock, and waitUntil). Returns
     * whether @p job is done. */
    bool helpJobUntil(const JobState &job, int64_t deadline_ns);
    static constexpr int64_t kNoDeadline = INT64_MAX;
    /** Execute @p task, maintaining hint inheritance and accounting. */
    void executeTask(TaskBase *task);
    /** executeTask's lean twin for a child of @p group popped back by
     * @p group's own joining worker (helpSync): the child was spawned
     * by the body now syncing, so its job, preemption class and frame
     * owner are this worker's already, and only the hint, the counters,
     * the exception, the owner-side join increment, the frame release
     * and the progress stamp remain. */
    void runLocalChild(TaskBase *task, TaskGroup &group);
    /** Destroy @p task and route its frame home: local LIFO when this
     * worker owns it, the owner's remote-free stack when a thief
     * finished a stolen task, plain delete for heap frames. */
    void releaseTask(TaskBase *task);
    /**
     * One steal attempt per the NUMA-WS protocol (biased victim, coin
     * flip, mailbox outcomes, pushback). Returns a task to run or null.
     */
    TaskBase *trySteal();
    /**
     * Lazy work pushing: try to park @p task in a mailbox on its hinted
     * place. Returns true if the frame was handed off; false once the
     * pushing threshold is reached (caller must run it).
     */
    bool pushBack(TaskBase *task);
    /// @}

  private:
    /** The worker bound to the calling thread (set by mainLoop). */
    static inline thread_local Worker *tlsCurrent = nullptr;

    TaskBase *acquireLocal();
    /** The dry path, once local work (and, where the caller claims
     * jobs, the job queue) came up empty: enter Idle, then make one
     * steal attempt while any job is active. */
    TaskBase *stealWhenDry();

    /** Epoch-cadence pressure sampling on the scheduling path: close
     * the epoch when due, publish to the PressureBoard, and (place
     * leader only) advance the InterferenceCore hysteresis. */
    void maybeSamplePressure();
    /** Retired verdict observed on the idle path: park one epoch (or
     * until shutdown), maintaining the retire counters. Never called
     * on the place leader, whose epoch ticks drive re-expansion. */
    void retirePark();

    /**
     * Linear-timeline time accounting: a worker's lifetime is a single
     * sequence of segments, each attributed to exactly one bucket; nested
     * helping merely switches buckets, so nothing is double counted.
     *
     * The split is exact and lazy: the clock is read only when the
     * bucket actually changes (and at job finish, chargeOpenSegment).
     * A task run from inside another task — the own-deque drain of a
     * sync — is already in Work and reads nothing, so the work path
     * pays no clock reads.
     */
    void
    enterBucket(TimeSplit::Bucket b)
    {
        if (b == _bucket)
            return;
        const int64_t t = nowNs();
        _time.add(_bucket, t - _mark);
        _mark = t;
        _bucket = b;
    }

    /** The own deque just gained work: publish the bit and, on a
     * socket 0 -> nonzero edge, wake this worker's socket. The single
     * wake-protocol site for pushTask. */
    void publishOwnDequeAndNotify();

    Runtime &_runtime;
    int _id;
    Place _place;
    Place _currentHint = kAnyPlace;
    /** Job of the task being executed (see currentJob()); saved and
     * restored across nested executeTask like _currentHint. */
    JobState *_currentJob = nullptr;
    /** Cached _options.sched.serving.preempt: the boundary peek must
     * not chase the options pointer on every spawn. */
    bool _preemptEnabled = false;
    /** Published running-job class for preemption victim selection
     * (see runningCls()); written by executeTask, read by admitting
     * threads. Only maintained when _preemptEnabled. */
    std::atomic<int8_t> _runningCls{-1};
    WsDeque<TaskBase> _deque;
    Mailbox<TaskBase> _mailbox;
    /** NUMA-local frame recycler behind the allocation-free spawn
     * path; drained of thief-freed frames on the steal path. */
    TaskFramePool _framePool;
    /** NUMA-local user-data heap (the data-plane sibling of the frame
     * pool: numa::allocate's fast path); also drained of cross-thread
     * frees on the steal path. Slabs come from the Runtime's arena,
     * which outlives the workers by declaration order. */
    NumaHeap _dataHeap;
    /** Cache of the last deque-occupancy value *we* published. Only
     * this worker sets its own deque bit, so a false cache always
     * means the bit is clear and the publish is needed; a true cache
     * can be stale (a thief's dry-probe repair cleared the bit), in
     * which case skipping the re-publish leaves a bounded false-empty
     * — explicitly allowed by the board contract and repaired by the
     * unconditional publish in acquireLocal's next pop. Saves the
     * board read on every spawn of a busy worker. */
    bool _dequeBitPublished = false;
    /** Every scheduling decision (victim, coin flip, receivers,
     * park streaks/tuning) routes through here — the same
     * core the simulator drives, so the engines cannot diverge. */
    StealCore _core;
    /** @name Interference-adaptation state (ServingPolicy::interference)
     * The sensor and epoch cadence are owner-only; the flag is atomic
     * because the watchdog reads it from another thread (relaxed —
     * diagnosis, not synchronization). */
    /// @{
    PressureSensor _pressureSensor;
    /** Cached serving.interference == Adapt (work-first: the idle-path
     * checks must not chase the options pointer). */
    bool _interferenceEnabled = false;
    int64_t _pressureEpochNs = 0;
    /** Rank from the top of this worker's place range: 0 retires
     * first; the place leader (largest rank, lowest id) never retires
     * and is the one that ticks the InterferenceCore epoch. */
    int _retireRank = 0;
    int _placeWorkers = 1; ///< workers sharing this worker's place
    bool _placeLeader = false;
    std::atomic<bool> _retiredNow{false};
    /// @}
    /** @name Watchdog liveness state (RuntimeOptions::watchdogMs) */
    /// @{
    std::atomic<bool> _parkedNow{false};
    /** Single-writer word; only the watchdog reads it from elsewhere. */
    uint64_t _progressStamp = 0;
    /// @}
    /** Per-class serving latency of jobs that completed here; folded
     * into RuntimeStats::jobLatency* by stats(). */
    LatencyHist _jobHist[kNumJobClasses];
    /** Owner-written single-writer words, like _time. */
    WorkerCounters _counters;
    TimeSplit _time;
    TimeSplit::Bucket _bucket = TimeSplit::Idle;
    int64_t _mark = 0;
    /** Deadline'd-job spawns seen (spawnInterrupted's cadence). */
    uint32_t _deadlineTick = 0;
};

/**
 * The platform: owns workers and exposes the submission front door.
 */
class Runtime
{
  public:
    explicit Runtime(RuntimeOptions options = {});

    /** Drains every submitted job, then stops and joins the workers. */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Submit @p fn as an independent job: an admission-queue entry that
     * becomes the root of its own parallel computation when an idle
     * worker claims it. Returns immediately with a joinable handle
     * carrying the job's latency decomposition. Callable from any
     * thread, workers included (nested submission); jobs from many
     * threads serve concurrently.
     */
    template <typename F>
    JobHandle submit(F &&fn, JobOptions opts = {});

    /**
     * Batch mode: execute @p fn as the root of a parallel computation
     * and wait for it (and everything it spawned) to finish. Exactly
     * submit(fn).wait() — the serving path with a synchronous join.
     * Callable from a non-worker thread only; runs may be issued
     * repeatedly.
     */
    template <typename F>
    void run(F &&fn);

    int numWorkers() const { return static_cast<int>(_workers.size()); }
    int numPlaces() const { return _options.numPlaces; }
    const RuntimeOptions &options() const { return _options; }
    const StealDistribution &stealDistribution() const { return _dist; }
    const Machine &machine() const { return _machine; }
    OccupancyBoard &board() { return _board; }
    const OccupancyBoard &board() const { return _board; }
    ParkingLot &parkingLot() { return _parking; }
    /** The runtime-owned data-plane arena (slabs, big objects,
     * partitioned buffers); registers every block in dataPageMap(). */
    NumaArena &arena() { return _arena; }
    /** Page-home registry fed by the data plane's own allocations. */
    PageMap &dataPageMap() { return _pageMap; }
    const PageMap &dataPageMap() const { return _pageMap; }
    /**
     * The registry data-home resolution consults: the user-supplied
     * RuntimeOptions::pageMap when present (layout experiments register
     * their own ranges), else the runtime's own data-plane map — so
     * PartedVec homes feed spawn-time placement hints with zero
     * configuration.
     */
    const PageMap *
    affinityPageMap() const
    {
        return _options.pageMap != nullptr ? _options.pageMap : &_pageMap;
    }

    /** Workers on place @p p: [first, last). */
    std::pair<int, int> workersOfPlace(int p) const;

    /** Aggregate statistics since construction or the last resetStats().
     * Any thread may poll it while workers run; between two polls of
     * one thread no counter decreases (until a reset). */
    RuntimeStats stats() const;
    /** Store the current totals as the baseline stats() subtracts and
     * empty the job latency histograms; no worker counter is written.
     * Also restarts the pressure and interference state. Quiescent
     * runtime only (no job active). */
    void resetStats();

    /** Jobs ever submitted (ids are 1-based submission order). */
    uint64_t
    jobsSubmitted() const
    {
        return _jobsSubmitted.load(std::memory_order_relaxed);
    }

    /** @name Runtime-internal */
    /// @{
    Worker &worker(int id) { return *_workers[id]; }
    bool shuttingDown() const
    {
        return _shutdown.load(std::memory_order_acquire);
    }
    /** Any job admitted, queued, or running: thieves keep probing while
     * true. Covers queued-but-unclaimed jobs (counted from submit). */
    bool workActive() const
    {
        return _activeJobs.load(std::memory_order_acquire) > 0;
    }
    /** A job root sits in the admission queue unclaimed. The queue is
     * not on the occupancy board, so park predicates must check it
     * separately or a whole pool can sleep through an admission for a
     * full fallback period. */
    bool jobPending() const { return !_jobQueue.empty(); }
    /** Claim the oldest queued job root (any worker; the idle path
     * between a failed local acquire and a steal probe). The overload
     * gate: feeds each claim's queue delay to the ShedCore estimator
     * and resolves cancelled / past-deadline entries without running
     * them, returning the first live root (or null). */
    TaskBase *takeJob();
    /**
     * takeJob restricted to jobs whose *effective* class (nominal
     * class promoted by priority aging, ShedCore::effectiveClass)
     * is strictly better than @p below_cls: the preemption claim —
     * a yielding worker must only suspend its job for strictly
     * higher-priority work. takeJob() is takeJobAbove(kNumJobClasses),
     * so idle claims rank lanes by effective class too (that ordering
     * *is* priority aging; with agingWaitUs off it degenerates to the
     * strict nominal order).
     */
    TaskBase *takeJobAbove(int below_cls);
    /** Admission edge of class @p cls: if preemption is on and every
     * worker is busy with lower-class work, raise the yield directive
     * on the chosen victim (StealCore::pickPreemptVictim). */
    void maybePreempt(int cls);
    /** The overload-decision brain shared with the simulator
     * (tests/diagnostics). */
    const ShedCore &shedCore() const { return _shed; }
    /** Per-socket co-runner pressure EWMAs, published by worker epoch
     * samples (support/pressure.h). */
    PressureBoard &pressureBoard() { return _pressure; }
    const PressureBoard &pressureBoard() const { return _pressure; }
    /** The interference-adaptation brain shared with the simulator. */
    InterferenceCore &interferenceCore() { return _interference; }
    const InterferenceCore &interferenceCore() const
    {
        return _interference;
    }
    /** Workers currently retired by the InterferenceCore across all
     * sockets (gauge; 0 whenever adaptation is off or pressure calm). */
    int
    retiredWorkers() const
    {
        int n = 0;
        for (int s = 0; s < _interference.sockets(); ++s)
            n += _interference.retiredTarget(s);
        return n;
    }
    /** Watchdog stall dumps emitted so far (tests read this instead of
     * parsing stderr). */
    uint64_t
    watchdogDumps() const
    {
        return _watchdogDumps.load(std::memory_order_relaxed);
    }
    /**
     * Park the calling worker (of @p socket) until work might exist,
     * for at most @p timeout_us microseconds (the caller's StealCore
     * supplies the tuned bound): a per-socket ParkingLot slot with the
     * bounded fallback timeout.
     * @return true when the wait ended by a notification or a
     *         work/shutdown predicate, false on a plain timeout.
     */
    bool idleWait(int socket, int timeout_us);
    /** Wake every parked worker (shutdown — an event every socket must
     * see). */
    void notifyWork();
    /** Targeted wake: @p socket's board words went 0 -> nonzero, or an
     * admission chose it (sched/admission.h). */
    void notifyWorkOn(int socket);
    /** Timestamp + histogram + completion signalling for a job whose
     * root ran to completion on the calling worker. @p outcome is
     * Done, Failed, Cancelled, or Expired (the latter two when the
     * body unwound cooperatively); only Done/Failed land in the
     * latency histograms. */
    void finishJob(JobState &state, JobOutcome outcome);
    /// @}

  private:
    static Machine machineForPlaces(int places, int workers);
    /** Every worker folded plus the outcome tallies, no baseline. */
    RuntimeStats totals() const;

    /** Deposit an admitted job on the queue, apply QueueDelay shedding
     * (one victim per admission while overloaded), and fire the
     * admission wake (admissionWakeSocket). */
    void enqueueJob(TaskBase *root, std::shared_ptr<JobState> state);
    /** Resolve a job that will never run (claim-time skip, shed
     * victim, submit rejection, teardown cancel): publish @p outcome
     * and done, bump the per-class tally, and — when @p was_active —
     * retire its _activeJobs slot. Never touches the latency
     * histograms. */
    void resolveUnrun(JobState &state, JobOutcome outcome,
                      bool was_active);
    /** ShutdownPolicy::CancelQueued teardown sweep: drain the queue,
     * resolving every entry Cancelled and deleting its root. */
    void cancelQueuedJobs();
    /** Watchdog monitor body (its own thread; see watchdogMs). */
    void watchdogLoop();
    /** One stalled-window report: a line per worker to stderr. */
    void dumpWorkerStates();

    RuntimeOptions _options;
    Machine _machine;
    StealDistribution _dist;
    OccupancyBoard _board;
    ParkingLot _parking;
    /** Data-plane page registry and arena. Declared before _workers on
     * purpose: worker NumaHeaps return their slabs to _arena from their
     * destructors, so the arena (and its map) must destruct after the
     * worker array. */
    PageMap _pageMap;
    NumaArena _arena;
    std::vector<std::unique_ptr<Worker>> _workers;
    std::vector<std::thread> _threads;

    std::atomic<bool> _shutdown{false};
    /** Jobs submitted but not yet finished (queued + running). */
    std::atomic<int64_t> _activeJobs{0};
    std::atomic<uint64_t> _jobsSubmitted{0};
    /** Round-robin cursor for unhinted admission wakes. */
    std::atomic<uint32_t> _admitCursor{0};
    JobQueue _jobQueue;
    /** Admission-control / shedding decisions (sched/shed_core.h);
     * construction-initialized from _options.sched.serving. */
    ShedCore _shed;
    /** Per-socket co-runner pressure EWMAs (support/pressure.h). */
    PressureBoard _pressure;
    /** Interference-adaptation decisions (sched/interference_core.h);
     * construction-initialized like _shed. */
    InterferenceCore _interference;
    /** Per-class job-resolution tallies; atomic because rejections
     * resolve on submitter threads and sheds on claiming workers
     * concurrently. Folded into RuntimeStats::jobOutcomes. */
    struct AtomicOutcomeCounts
    {
        std::atomic<uint64_t> done{0};
        std::atomic<uint64_t> failed{0};
        std::atomic<uint64_t> cancelled{0};
        std::atomic<uint64_t> expired{0};
        std::atomic<uint64_t> rejected{0};
        std::atomic<uint64_t> shed{0};
    };
    AtomicOutcomeCounts _outcomes[kNumJobClasses];
    /** The totals at the last resetStats(), subtracted by stats(). The
     * mutex orders a reset against concurrent stats() calls. */
    RuntimeStats _baseline;
    mutable std::mutex _statsMutex;

    /** Signalled when _activeJobs drains to zero (destructor barrier). */
    std::mutex _quiesceMutex;
    std::condition_variable _quiesceCv;

    /** @name Stall watchdog (RuntimeOptions::watchdogMs) */
    /// @{
    /** Jobs resolved (run or not) — the watchdog's job-level liveness
     * signal, paired with the workers' progressStamp task signal. */
    std::atomic<uint64_t> _jobsFinished{0};
    std::atomic<uint64_t> _watchdogDumps{0};
    std::atomic<bool> _watchdogStop{false};
    std::mutex _watchdogMutex;
    std::condition_variable _watchdogCv;
    std::thread _watchdog;
    /// @}
};

// ---------------------------------------------------------------------
// Inline template implementations
// ---------------------------------------------------------------------

inline TaskGroup::~TaskGroup()
{
    // A group must not die with live children; sync here as a safety net
    // (mirrors the implicit cilk_sync at the end of every Cilk function).
    if (pending() > 0) {
        Worker *w = Worker::current();
        NUMAWS_ASSERT(w != nullptr);
        w->helpSync(*this);
    }
}

template <typename F>
void
TaskGroup::spawn(F &&fn, Place place)
{
    spawn(std::forward<F>(fn), place, /*data=*/nullptr, /*data_bytes=*/0);
}

template <typename F>
void
TaskGroup::spawn(F &&fn, Place place, const void *data,
                 std::size_t data_bytes)
{
    Worker *w = Worker::current();
    NUMAWS_ASSERT(w != nullptr); // spawn only from inside run()
    // Cooperative cancellation boundary: a cancelled job stops growing
    // its tree here (a past-deadline one within kDeadlineCheckPeriod
    // spawns of this worker), and the JobCancelled unwind rides the
    // normal exception plumbing (recordException + sync rethrow) up to
    // the job root without preempting anything.
    if (JobState *job = w->currentJob();
        job != nullptr && w->spawnInterrupted(*job))
        throw JobCancelled{};
    if (place == kInheritPlace)
        place = w->currentHint();
    // Spawn-time placement hint: an unplaced task annotated with a data
    // range lands on the range's home-socket deque, so
    // PartedVec::forEachShard spawns get their locality without callers
    // naming places. Only *registered*
    // ranges produce a hint; plain-heap data keeps kAnyPlace. The check
    // costs one compare when no annotation is present (work-first).
    if (!isConcretePlace(place) && data != nullptr && data_bytes > 0)
        place = w->placeForData(data, data_bytes);
    using Fn = std::decay_t<F>;
    using Impl = TaskImpl<Fn>;
    // Allocation-free fast path: placement-new into a recycled frame
    // from this worker's NUMA-local pool (work-first: the frame's
    // eventual cross-socket journey home, if a thief runs it, is paid
    // on the steal path). Oversized or over-aligned closures, and the
    // TaskPoolPolicy::Heap ablation, fall back to the global heap.
    Impl *task = nullptr;
    if constexpr (alignof(Impl) <= TaskFramePool::kFrameAlign) {
        if (void *frame = w->framePool().allocate(sizeof(Impl))) {
            if constexpr (std::is_nothrow_constructible_v<
                              Impl, TaskGroup *, Place, Fn &&>) {
                task = new (frame) Impl(this, place,
                                        std::forward<F>(fn));
            } else {
                // Mirror the new-expression guarantee: a throwing
                // closure move must hand the frame back, not strand
                // it live in the slab.
                try {
                    task = new (frame) Impl(this, place,
                                            std::forward<F>(fn));
                } catch (...) {
                    w->framePool().freeLocal(
                        TaskFramePool::headerOf(frame));
                    throw;
                }
            }
            task->setPoolOwner(w->id());
        }
    }
    if (task == nullptr)
        task = new Impl(this, place, std::forward<F>(fn));
    // Children compute for the same job as their spawner (null outside
    // any job), so stolen subtasks observe cancellation too.
    task->setJob(w->currentJob());
    onChildStart();
    relaxedAdd(w->counters().spawns);
    w->pushTask(task);
    // Preemption boundary: the child just pushed is this job's
    // checkpointed continuation — it sits on the deque where thieves
    // can claim it — so if a higher-class job is waiting, run it
    // inline now and resume the spawner afterwards. One cached bool
    // when preemption is off (work-first).
    if (w->yieldPending())
        w->serviceYield();
}

template <typename F>
JobHandle
Runtime::submit(F &&fn, JobOptions opts)
{
    auto state = std::make_shared<JobState>();
    state->opts = opts;
    state->id = _jobsSubmitted.fetch_add(1, std::memory_order_relaxed) + 1;
    state->submitNs = nowNs();
    if (opts.deadlineNs > 0)
        state->deadlineAtNs = state->submitNs + opts.deadlineNs;
    // Admission control (ShedPolicy::Reject / the QueueDelay capacity
    // backstop): an over-capacity lane turns this submit into an
    // immediately-Rejected handle — never counted active, never queued.
    const int cls = static_cast<int>(opts.cls);
    if (!_shed.admit(cls, _jobQueue.laneDepth(cls))) {
        resolveUnrun(*state, JobOutcome::Rejected, /*was_active=*/false);
        return JobHandle(std::move(state));
    }
    // Active from admission: workActive() must cover queued jobs so
    // thieves keep probing and park predicates stay honest.
    _activeJobs.fetch_add(1, std::memory_order_release);
    // The root runs with no group of its own; completion is signalled
    // via finishJob after fn returns (all nested groups are synced by
    // then). A JobCancelled unwind is the *cooperative cancellation*
    // exit — classified by cause, not recorded as a failure; real
    // exceptions park in the shared state for wait() to rethrow.
    auto body = [this, state, f = std::forward<F>(fn)]() mutable {
        state->started.store(true, std::memory_order_relaxed);
        state->startNs.store(nowNs(), std::memory_order_relaxed);
        JobOutcome outcome = JobOutcome::Done;
        try {
            f();
        } catch (const JobCancelled &) {
            outcome = state->cancelRequested.load(
                          std::memory_order_relaxed)
                          ? JobOutcome::Cancelled
                          : JobOutcome::Expired;
        } catch (...) {
            state->exception = std::current_exception();
            outcome = JobOutcome::Failed;
        }
        finishJob(*state, outcome);
    };
    // Job root frames stay on the heap (poolOwner -1): they may be
    // built on a non-worker thread and claimed by any worker.
    auto *root = new TaskImpl<decltype(body)>(nullptr, opts.place,
                                              std::move(body));
    root->setJob(state.get());
    enqueueJob(root, state);
    return JobHandle(std::move(state));
}

template <typename F>
void
Runtime::run(F &&fn)
{
    NUMAWS_ASSERT(Worker::current() == nullptr);
    submit(std::forward<F>(fn)).wait();
}

} // namespace numaws

#endif // NUMAWS_RUNTIME_RUNTIME_H
