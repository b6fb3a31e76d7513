#include "runtime/runtime.h"

#include "mem/page_map.h"
#include "support/panic.h"
#include "topology/affinity.h"

#include <chrono>
#include <iterator>

namespace numaws {

namespace {

using W = WorkerCounters;
using CounterField = uint64_t W::*;

/** Every WorkerCounters field: the one list merge and subtract walk. */
constexpr CounterField kCounterFields[] = {
    &W::spawns, &W::stealAttempts, &W::steals, &W::mailboxTakes,
    &W::pushbackAttempts, &W::pushbackSuccesses, &W::pushbackGiveUps,
    &W::tasksExecuted, &W::tasksOnHintedPlace, &W::yields, &W::agedClaims,
    &W::framesRecycled, &W::remoteFrees, &W::slabBytes, &W::slabFallbacks,
    &W::dataBytesPooled, &W::dataRemoteFrees, &W::dataSlabBytes,
    &W::dataSlabFallbacks, &W::parks, &W::parkWakes, &W::parkTimeouts,
    &W::spuriousWakes, &W::parkedNs, &W::interferenceRetires,
    &W::interferenceReinstates, &W::jobsCompleted};
static_assert(std::size(kCounterFields) * sizeof(uint64_t) == sizeof(W),
              "a WorkerCounters field is missing from kCounterFields");

} // namespace

void
WorkerCounters::merge(const WorkerCounters &o)
{
    for (CounterField f : kCounterFields)
        this->*f += relaxedLoad(o.*f);
}

void
WorkerCounters::subtract(const WorkerCounters &base)
{
    for (CounterField f : kCounterFields)
        if (f != &W::slabBytes && f != &W::dataSlabBytes)
            this->*f -= base.*f;
}

Worker::Worker(Runtime &runtime, int id, int place, uint64_t seed,
               std::size_t deque_capacity)
    : _runtime(runtime),
      _id(id),
      _place(place),
      _deque(deque_capacity),
      _framePool(id,
                 runtime.options().taskPool == TaskPoolPolicy::Pooled),
      _dataHeap(id, place,
                runtime.options().dataHeap == DataHeapPolicy::Pooled
                    ? &runtime.arena()
                    : nullptr),
      _core(runtime.options().sched,
            EngineView{&runtime.stealDistribution(), &runtime.board()},
            id, place, seed),
      _mark(nowNs())
{
    // Mailbox occupancy reaches the board from inside tryPut/tryTake, so
    // pushers and thieves publish transitions without extra call sites;
    // the deposit edge also wakes this worker's parked socket from the
    // same spot.
    const SchedPolicy &pol = runtime.options().sched;
    _mailbox.attachBoard(&runtime.board(), id);
    _mailbox.attachParking(&runtime.parkingLot(), place);
    // Cached so the spawn-boundary yield peek costs one bool when
    // preemption is off (the work-first price of the whole feature).
    _preemptEnabled = pol.serving.preempt;
    // Interference adaptation: retire order is from the top of the
    // place's worker range downward, and the place leader (lowest id,
    // largest rank-from-top) never retires: it keeps ticking the
    // socket's pressure epoch that drives re-expansion.
    _interferenceEnabled =
        pol.serving.interference == InterferencePolicy::Adapt;
    _pressureEpochNs =
        static_cast<int64_t>(pol.serving.pressureEpochUs) * 1000;
    const auto [first, last] = runtime.workersOfPlace(place);
    _placeWorkers = last - first;
    _retireRank = (last - 1) - id;
    _placeLeader = id == first;
}

void
Worker::fold(RuntimeStats &into) const
{
    WorkerCounters &c = into.counters;
    c.merge(_counters);
    const StealCoreCounters &core = _core.counters();
    c.stealAttempts += relaxedLoad(core.stealAttempts);
    c.yields += relaxedLoad(core.yields);
    c.framesRecycled += _framePool.framesRecycled();
    c.remoteFrees += _framePool.remoteFrees();
    c.slabBytes += _framePool.slabBytes();
    c.slabFallbacks += _framePool.slabFallbacks();
    c.dataBytesPooled += _dataHeap.bytesPooled();
    c.dataRemoteFrees += _dataHeap.remoteFrees();
    c.dataSlabBytes += _dataHeap.slabBytes();
    c.dataSlabFallbacks += _dataHeap.slabFallbacks();
    into.time.merge(_time);
    for (int k = 0; k < kNumJobClasses; ++k) {
        into.jobLatency.merge(_jobHist[k]);
        into.jobLatencyByClass[k].merge(_jobHist[k]);
    }
}

void
Worker::publishOwnDequeAndNotify()
{
    // Edge-triggered publish, with the board read itself hoisted off
    // the spawn fast path: when our cached published-bit already says
    // nonempty, the publish could neither flip the bit nor produce a
    // socket edge, so skip the call outright — a spawn burst pays for
    // the board exactly once. The cache can only be stale in the
    // harmless direction (a thief's dry-probe repair cleared the bit
    // behind us), which leaves a bounded false-empty the board
    // contract allows and acquireLocal's unconditional publish on the
    // next pop repairs. Only a 0 -> nonzero socket edge can find
    // sleepers worth waking.
    if (_dequeBitPublished)
        return;
    const bool socket_edge = _runtime.board().publishDeque(_id, true);
    _dequeBitPublished = true;
    if (socket_edge)
        _runtime.notifyWorkOn(_place);
}

void
Worker::pushTask(TaskBase *task)
{
    _deque.pushTail(task);
    publishOwnDequeAndNotify();
}

TaskBase *
Worker::acquireLocal()
{
    // Work path first: the tail of the own deque...
    bool nonempty;
    if (TaskBase *t = _deque.popTail(nonempty)) {
        // Publish the *actual* state (as the pop's head read saw it), not
        // just the pop-to-empty edge: a thief's dry-probe repair can race
        // a push and wrongly clear the bit, and a worker draining a deep
        // deque would otherwise never re-assert it. Edge-triggered
        // publish makes the common (unchanged) case one relaxed load.
        // This is also the repair point for the spawn path's
        // published-bit cache, so it stays an unconditional call.
        _runtime.board().publishDeque(_id, nonempty);
        _dequeBitPublished = nonempty;
        return t;
    }
    _runtime.board().publishDeque(_id, false);
    _dequeBitPublished = false;
    // ...then POPMAILBOX: a frame some worker parked here for this place.
    if (TaskBase *t = _mailbox.tryTake()) {
        relaxedAdd(_counters.mailboxTakes);
        return t;
    }
    return nullptr;
}

TaskBase *
Worker::trySteal()
{
    // Reclaim frames (and data blocks) other threads freed into our
    // pools — on the steal path, where the work-first principle wants
    // the cost, never the spawn/allocation path. The nothing-pending
    // case is one relaxed load each.
    _framePool.drainRemote();
    _dataHeap.drainRemote();
    if (_runtime.numWorkers() <= 1)
        return nullptr;
    // Both decisions — victim and mailbox-vs-deque inspection order —
    // come from the core; this driver only executes them against the
    // real deques and mailboxes.
    const StealAction action = _core.nextAction();
    Worker &victim = _runtime.worker(action.victim);

    TaskBase *task = nullptr;
    bool from_mailbox = false;
    if (action.checkMailboxFirst) {
        task = victim.mailbox().tryTake();
        from_mailbox = task != nullptr;
        // Outcome 1 (mailbox empty): fall through to the deque.
    }
    if (task == nullptr) {
        task = victim.deque().stealHead();
        // The probe already paid for the cache traffic: repair the
        // victim's staleness (a 1-bit over an empty deque) for free.
        if (victim.deque().empty())
            _runtime.board().publishDeque(action.victim, false);
    }
    if (task == nullptr)
        return nullptr;

    // Successful steal: everything past this point is scheduler
    // bookkeeping, charged to scheduling time (the span term).
    enterBucket(TimeSplit::Scheduling);
    relaxedAdd(from_mailbox ? _counters.mailboxTakes : _counters.steals);
    // Promotion analogue: the task has now migrated off its spawner.
    task->markStolen();

    // Lazy work pushing happens only here, on the steal path — a frame
    // acquired from the own deque never pays this check beyond a compare.
    if (isConcretePlace(task->place()) && task->place() != _place) {
        if (pushBack(task)) {
            enterBucket(TimeSplit::Idle);
            return nullptr; // handed off; keep looking for other work
        }
        // Pushing threshold reached: honor load balance over locality.
    }
    return task;
}

TaskBase *
Worker::stealWhenDry()
{
    // The only point the lazy time split turns a worker Idle: whatever
    // Work segment the last task left open closes here.
    enterBucket(TimeSplit::Idle);
    return _runtime.workActive() ? trySteal() : nullptr;
}

bool
Worker::pushBack(TaskBase *task)
{
    if (!_runtime.options().sched.useMailboxes)
        return false;
    const Place target = task->place();
    NUMAWS_ASSERT(isConcretePlace(target));
    const auto [first, last] = _runtime.workersOfPlace(target);
    if (first >= last)
        return false;
    // The frame's lifetime push count only grows, so the loop is
    // bounded by the constant threshold; reaching it exits to the
    // give-up path, where load balance wins over locality.
    while (task->pushCount()
           < static_cast<uint32_t>(_core.pushThreshold())) {
        relaxedAdd(_counters.pushbackAttempts);
        const int receiver =
            _core.pickPushReceiver(first, last, /*self=*/-1, target);
        if (_runtime.worker(receiver).mailbox().tryPut(task)) {
            // tryPut already woke the receiver's socket on the
            // deposit's occupancy edge (Mailbox::attachParking).
            relaxedAdd(_counters.pushbackSuccesses);
            return true;
        }
        task->incPushCount();
    }
    relaxedAdd(_counters.pushbackGiveUps);
    return false;
}

Place
Worker::placeForData(const void *data, std::size_t bytes) const
{
    const PageMap *pm = _runtime.affinityPageMap();
    const auto addr = reinterpret_cast<uint64_t>(data);
    uint32_t mask = 0;
    const int first = pm->registeredHomeOf(addr);
    const int last = pm->registeredHomeOf(addr + bytes - 1);
    if (first >= 0 && first < 32)
        mask |= 1u << first;
    if (last >= 0 && last < 32)
        mask |= 1u << last;
    const Place p = StealCore::placeFromAffinity(mask);
    if (!isConcretePlace(p) || p >= _runtime.numPlaces())
        return kAnyPlace;
    // Placement-hint steering: while the data's home socket is under
    // co-runner pressure, hint a calm socket instead — losing locality
    // for the spawn beats queueing it behind a squeezed worker set.
    // Identity when adaptation is off or the socket is calm.
    if (_interferenceEnabled)
        return _runtime.interferenceCore().steerSocket(p);
    return p;
}

void
Worker::executeTask(TaskBase *task)
{
    // Lazy time split: a task entered from Idle or Scheduling opens a
    // Work segment; one run inside another task's sync is already in
    // Work and reads no clock. Nothing is read on the way out either —
    // the caller closes the segment when it next leaves Work (a dry
    // probe before stealing, or finishJob's flush).
    enterBucket(TimeSplit::Work);
    const Place prev_hint = _currentHint;
    _currentHint = task->place();
    // Job context switches with the task (saved/restored like the hint):
    // stolen subtasks carry their job on the frame, so every worker's
    // spawn/sync boundaries see the right cancellation state, and
    // nested helping restores the helper's own job afterwards.
    JobState *const prev_job = _currentJob;
    _currentJob = task->job();
    // Publish the running class for preemption victim selection (the
    // nested restore below re-publishes the preempted job's class when
    // an inline higher-class job finishes).
    if (_preemptEnabled)
        _runningCls.store(
            _currentJob != nullptr
                ? static_cast<int8_t>(_currentJob->opts.cls)
                : static_cast<int8_t>(-1),
            std::memory_order_relaxed);
    relaxedAdd(_counters.tasksExecuted);
    if (isConcretePlace(task->place()) && task->place() == _place)
        relaxedAdd(_counters.tasksOnHintedPlace);

    try {
        task->run(*this);
    } catch (...) {
        if (task->group() != nullptr)
            task->group()->recordException(std::current_exception());
        else
            throw; // job-root exceptions are captured by Runtime::submit
    }

    _currentHint = prev_hint;
    _currentJob = prev_job;
    if (_preemptEnabled)
        _runningCls.store(
            prev_job != nullptr
                ? static_cast<int8_t>(prev_job->opts.cls)
                : static_cast<int8_t>(-1),
            std::memory_order_relaxed);
    // Frame release sits on both the normal and the exception path
    // above: a thrown task body still recycles its frame. It comes
    // before the join, so a sync that returns finds every child's
    // frame already back in its pool (a pool's outstanding() is exact
    // once the job is done).
    TaskGroup *const g = task->group();
    const bool stolen = task->stolen();
    releaseTask(task);
    // The join: a plain owner-side increment unless the child left
    // its spawner (TaskGroup's THE-style counter). The group may be
    // gone the moment a stolen child's increment lands, so this is the
    // last touch of it.
    if (g != nullptr)
        g->onChildDone(stolen);
    // Liveness signal for the stall watchdog (no RMW on the work path).
    relaxedAdd(_progressStamp);
}

// Inline into helpSync, its only caller: a nested join then holds one
// frame less per level of recursion.
inline void
Worker::runLocalChild(TaskBase *task, TaskGroup &group)
{
    // A wait that went dry and stole is Idle, so re-enter Work (one
    // compare on the common path).
    enterBucket(TimeSplit::Work);
    const Place prev_hint = _currentHint;
    _currentHint = task->place();
    relaxedAdd(_counters.tasksExecuted);
    if (isConcretePlace(task->place()) && task->place() == _place)
        relaxedAdd(_counters.tasksOnHintedPlace);
    try {
        task->run(*this);
    } catch (...) {
        group.recordException(std::current_exception());
    }
    _currentHint = prev_hint;
    // The owner runs it, so the plain owner-side increment is exact even
    // for a child that left and came back through the mailbox (stolen()
    // set): only a completion on another thread needs the atomic.
    group.onChildDone(/*stolen=*/false);
    releaseTask(task);
    relaxedAdd(_progressStamp);
}

void
Worker::serviceYield()
{
    // Consume the directive exactly once (another boundary — or another
    // admission's re-raise — may race us; the exchange arbitrates).
    if (!_core.takeYieldRequest())
        return;
    // Only a job of *strictly higher* effective class may interrupt:
    // claiming our own class would add latency for nothing, and a
    // stray directive on an idle-ish worker (no current job) just
    // claims like the idle path does.
    const int below = _runningCls.load(std::memory_order_relaxed);
    TaskBase *t =
        _runtime.takeJobAbove(below >= 0 ? below : kNumJobClasses);
    if (t == nullptr)
        return; // the job was claimed, cancelled, or shed meanwhile
    _core.noteYieldServiced();
    // Run the higher-class job nested, right here: executeTask saves
    // and restores this worker's job context, and the preempted job's
    // just-pushed child stays on our deque — stealable by anyone —
    // which is exactly its checkpointed continuation. When the nested
    // job returns, control falls back into the preempted task body.
    executeTask(t);
}

void
Worker::releaseTask(TaskBase *task)
{
    const int owner = task->poolOwner();
    if (owner < 0) {
        delete task; // heap frame: oversized, Heap policy, or the root
        return;
    }
    TaskFrameHeader *frame = TaskFramePool::headerOf(task);
    task->~TaskBase();
    if (owner == _id) {
        _framePool.freeLocal(frame);
        return;
    }
    // Thief-side free of a stolen task: push the frame back to its
    // owning worker's pool instead of a cross-socket trip through the
    // global allocator; the owner relinks it on its own steal path.
    _runtime.worker(owner).framePool().freeRemote(frame);
}

void
Worker::helpSync(TaskGroup &group)
{
    // We are inside a task body (bucket == Work). Draining the own
    // deque — our descendants, the work path — stays Work with no
    // clock read; the wait turns Idle only once the deque and mailbox
    // are dry and we have to steal.
    //
    // Our own children — popped back from the deque or returned through
    // the mailbox — take the lean runLocalChild; everything else
    // (ancestors' children below them on the deque, other groups'
    // mailbox frames, steals) carries its own job and takes executeTask.
    while (group.pending() > 0) {
        if (TaskBase *t = acquireLocal()) {
            if (t->group() == &group)
                runLocalChild(t, group);
            else
                executeTask(t);
            continue;
        }
        if (TaskBase *t = stealWhenDry())
            executeTask(t);
        else
            for (int i = 0; i < 32 && group.pending() > 0; ++i)
                cpuRelax();
    }
    // Control returns to the syncing task's body.
    enterBucket(TimeSplit::Work);
}

bool
Worker::helpJobUntil(const JobState &job, int64_t deadline_ns)
{
    // Like helpSync, but for a job join — and unlike a sync, the wait
    // *claims queued jobs too*: the joined job may still be sitting in
    // the admission queue behind us, and on a single-worker runtime no
    // one else could ever claim it (nested submit-and-wait). Time
    // splits as in helpSync: Work while local or queued work runs.
    // A bounded wait (waitUntil) stops once the instant passes even if
    // the job is unresolved; the deadline is checked between task
    // executions only — a long task body overshoots, same as any
    // cooperative scheme here — and kNoDeadline reads no clock.
    while (!job.done.load(std::memory_order_acquire)
           && (deadline_ns == kNoDeadline || nowNs() < deadline_ns)) {
        TaskBase *t = acquireLocal();
        if (t == nullptr)
            t = _runtime.takeJob();
        if (t == nullptr)
            t = stealWhenDry();
        if (t != nullptr)
            executeTask(t);
        else
            for (int i = 0;
                 i < 32 && !job.done.load(std::memory_order_acquire);
                 ++i)
                cpuRelax();
    }
    enterBucket(TimeSplit::Work);
    return job.done.load(std::memory_order_acquire);
}

void
Worker::maybeSamplePressure()
{
    // Epoch-gated: the loop-top call costs one clock read until the
    // epoch elapses. Every worker publishes its own sample into the
    // socket EWMA; only the place leader advances the hysteresis
    // ladder, so the core sees exactly one verdict per socket epoch.
    if (_pressureSensor.epochElapsedNs() < _pressureEpochNs)
        return;
    const int pm = _pressureSensor.sample();
    _runtime.pressureBoard().publish(_place, pm);
    if (_placeLeader)
        _runtime.interferenceCore().epochTick(
            _place, _runtime.pressureBoard().pressure(_place),
            _placeWorkers);
}

void
Worker::retirePark()
{
    // The InterferenceCore floor keeps one worker per socket running,
    // and retirement runs top-down by rank, so the leader never parks
    // here: its epoch ticks are what reinstate the retired workers.
    NUMAWS_ASSERT(!_placeLeader);
    // Count the retire on the not-retired -> retired edge only (the
    // loop re-enters here every epoch while the verdict holds).
    if (!_retiredNow.load(std::memory_order_relaxed)) {
        _retiredNow.store(true, std::memory_order_relaxed);
        relaxedAdd(_counters.interferenceRetires);
    }
    // Park for one pressure epoch directly on the lot with a
    // shutdown-only predicate: Runtime::idleWait's work predicates
    // would return immediately while jobs are pending — exactly the
    // state a retirement is shedding — and busy-spin this thread.
    const auto epoch = std::chrono::microseconds(
        _runtime.options().sched.serving.pressureEpochUs);
    const int64_t park_start = nowNs();
    _parkedNow.store(true, std::memory_order_relaxed);
    _runtime.parkingLot().park(_place, epoch,
                               [this] { return _runtime.shuttingDown(); });
    _parkedNow.store(false, std::memory_order_relaxed);
    relaxedAdd(_counters.parkedNs,
               static_cast<uint64_t>(nowNs() - park_start));
}

void
Worker::mainLoop()
{
    tlsCurrent = this;
    // Data-plane thread binding: numa::allocate on this thread routes
    // through our NUMA-local heap (fast path) and the runtime's arena.
    numa::bindThread(numa::ThreadBinding{
        &_dataHeap, &_runtime.arena(), _place,
        _runtime.options().dataHeap == DataHeapPolicy::Pooled});
    if (_runtime.options().pinThreads)
        pinCurrentThread(_id);
    _mark = nowNs();
    _bucket = TimeSplit::Idle;
    if (_interferenceEnabled)
        _pressureSensor.begin();

    while (!_runtime.shuttingDown()) {
        if (_interferenceEnabled) {
            // Retirement check sits at the loop top, before job claims
            // and steals: a retired worker must stop contending for
            // *new* work, but drains its own deque first so no spawned
            // task is stranded behind the park.
            if (_runtime.interferenceCore().workerRetired(_place,
                                                          _retireRank)) {
                if (TaskBase *t = acquireLocal()) {
                    _core.noteProgress();
                    executeTask(t);
                    continue;
                }
                enterBucket(TimeSplit::Idle);
                retirePark();
                continue;
            }
            if (_retiredNow.load(std::memory_order_relaxed)) {
                // Reinstated this iteration: restart the epoch so park
                // time spent retired never reads as interference.
                _retiredNow.store(false, std::memory_order_relaxed);
                relaxedAdd(_counters.interferenceReinstates);
                _pressureSensor.begin();
            } else {
                maybeSamplePressure();
            }
        }
        TaskBase *t = acquireLocal();
        // Admission before stealing: a queued job is guaranteed work,
        // and the worker woken by an admission edge should claim the
        // job it was woken for rather than contend on steals.
        if (t == nullptr)
            t = _runtime.takeJob();
        if (t == nullptr)
            t = stealWhenDry();
        if (t != nullptr) {
            _core.noteProgress();
            executeTask(t);
            continue;
        }
        // The core tracks the fruitless streak against its (tuned) spin
        // budget and decides when spinning should give way to parking.
        _core.noteFruitless();
        if (_core.takeParkRequest()) {
            relaxedAdd(_counters.parks);
            const int64_t park_start = nowNs();
            _parkedNow.store(true, std::memory_order_relaxed);
            if (_runtime.idleWait(
                    _place, static_cast<int>(_core.parkTimeoutUs())))
                relaxedAdd(_counters.parkWakes);
            else
                relaxedAdd(_counters.parkTimeouts);
            _parkedNow.store(false, std::memory_order_relaxed);
            // Parked wall time: the elastic-pool yield metric (the
            // fraction of idleness actually handed back to the OS).
            const int64_t parked = nowNs() - park_start;
            relaxedAdd(_counters.parkedNs, static_cast<uint64_t>(parked));
            // Voluntary sleep is not interference: exclude it from the
            // pressure epoch's wall base.
            if (_interferenceEnabled)
                _pressureSensor.notePark(parked);
            // A wake that lands on a still-dry board bought nothing:
            // the wakeup-storm metric. The same verdict feeds the
            // core's park tuner — quiescent-runtime parks are skipped,
            // they say nothing about in-run wake latency.
            if (_runtime.workActive()) {
                const bool found = _runtime.board().anyWorkFor(_place)
                                   || _runtime.jobPending();
                if (!found)
                    relaxedAdd(_counters.spuriousWakes);
                _core.onParkOutcome(found);
            }
        } else {
            cpuRelax();
        }
    }
    // Flush the final segment (a same-bucket switch reads nothing).
    chargeOpenSegment(nowNs());
    numa::unbindThread();
    tlsCurrent = nullptr;
}

} // namespace numaws
