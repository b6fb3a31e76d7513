#include "runtime/runtime.h"

#include <cstdio>

#include "sched/admission.h"
#include "support/panic.h"
#include "topology/affinity.h"

namespace numaws {

Machine
Runtime::machineForPlaces(int places, int workers)
{
    // Virtual places get the paper machine's socket fabric when they fit
    // (<= 4 places), so biased-steal hop counts are meaningful; beyond
    // that, a synthetic ring-free flat SLIT (everything one hop apart).
    const int per = (workers + places - 1) / places;
    if (places == 1)
        return Machine::singleSocket(per);
    if (places <= 4) {
        Machine proto = Machine::paperMachineSubset(places * 8);
        std::vector<int> slit;
        for (int i = 0; i < places; ++i)
            for (int j = 0; j < places; ++j)
                slit.push_back(proto.distance(i, j));
        return Machine(places, per, slit, proto.ghz(), proto.llcBytes());
    }
    std::vector<int> slit(static_cast<std::size_t>(places) * places, 20);
    for (int i = 0; i < places; ++i)
        slit[static_cast<std::size_t>(i) * places + i] = 10;
    return Machine(places, per, slit, 2.2, 16ULL << 20);
}

Runtime::Runtime(RuntimeOptions options)
    : _options(options),
      _machine(machineForPlaces(
          options.numPlaces,
          options.numWorkers > 0 ? options.numWorkers : hostCpuCount())),
      _dist(_machine,
            options.numWorkers > 0 ? options.numWorkers : hostCpuCount(),
            options.sched.biasedSteals ? options.sched.biasWeights
                                       : BiasWeights::uniform()),
      _board(_dist.numWorkers(), _dist.workerSockets()),
      _parking(_board.numSockets()),
      _pageMap(std::max(1, options.numPlaces)),
      _arena(_pageMap),
      _shed(options.sched.serving),
      _pressure(_board.numSockets(),
                options.sched.serving.pressureEwmaShift),
      _interference(options.sched.serving, _board.numSockets())
{
    const int workers =
        _options.numWorkers > 0 ? _options.numWorkers : hostCpuCount();
    NUMAWS_ASSERT(workers >= 1);
    if (_options.numPlaces < 1 || _options.numPlaces > workers)
        NUMAWS_FATAL("numPlaces (%d) must be in [1, numWorkers=%d]",
                     _options.numPlaces, workers);
    _options.numWorkers = workers;

    uint64_t seed_state = _options.seed;
    _workers.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        _workers.push_back(std::make_unique<Worker>(
            *this, w, _dist.socketOfWorker(w), splitmix64(seed_state),
            _options.dequeCapacity));
    }
    _threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        _threads.emplace_back([this, w] { _workers[w]->mainLoop(); });

    // Ambient data-plane binding for non-worker threads (PartedVec
    // construction on the submitting thread, NumaAllocator containers
    // built before run()): route through this runtime's arena. Last
    // runtime constructed wins; cleared by our destructor.
    numa::setAmbient(&_arena,
                     _options.dataHeap == DataHeapPolicy::Pooled, this);

    // Opt-in stall watchdog: a monitor thread that only ever reads
    // (racily, relaxed) and writes stderr — it can never unwedge or
    // slow the workers.
    if (_options.watchdogMs > 0)
        _watchdog = std::thread([this] { watchdogLoop(); });
}

Runtime::~Runtime()
{
    // CancelQueued teardown: resolve queued-but-unstarted jobs without
    // running them, so the quiesce wait below only covers jobs already
    // executing. Workers racing this sweep merely claim some of the
    // entries first — every queued job resolves exactly once.
    if (_options.shutdownPolicy == ShutdownPolicy::CancelQueued)
        cancelQueuedJobs();
    // Drain the rest: a submitted-but-unwaited job must finish, not be
    // abandoned mid-flight (handles stay valid after the runtime dies).
    {
        std::unique_lock<std::mutex> lock(_quiesceMutex);
        _quiesceCv.wait(lock, [this] {
            return _activeJobs.load(std::memory_order_acquire) == 0;
        });
    }
    _shutdown.store(true, std::memory_order_release);
    notifyWork();
    // The watchdog can go first: the runtime is quiescent (nothing
    // left to dump) and joining it before the workers keeps its racy
    // reads of worker state trivially safe.
    if (_watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> g(_watchdogMutex);
            _watchdogStop.store(true, std::memory_order_relaxed);
        }
        _watchdogCv.notify_all();
        _watchdog.join();
    }
    for (auto &t : _threads)
        t.join();
    // Non-worker threads must stop routing allocations through our
    // arena once it is gone (pooled blocks still live at this point are
    // caller bugs — deallocate them before the runtime dies).
    numa::clearAmbient(this);
}

std::pair<int, int>
Runtime::workersOfPlace(int p) const
{
    NUMAWS_ASSERT(p >= 0 && p < _options.numPlaces);
    // Matches StealDistribution's even-spread, socket-major packing.
    const int workers = _options.numWorkers;
    const int per = (workers + _options.numPlaces - 1) / _options.numPlaces;
    const int first = p * per;
    const int last = std::min(workers, first + per);
    return {first, last};
}

RuntimeStats
Runtime::stats() const
{
    RuntimeStats s;
    for (const auto &w : _workers) {
        s.counters.merge(const_cast<Worker &>(*w).counters());
        w->foldParkCounters(s.counters);
        w->foldCoreCounters(s.counters);
        w->foldPoolCounters(s.counters);
        w->foldDataCounters(s.counters);
        w->foldJobHists(s);
        s.time.merge(const_cast<Worker &>(*w).timeSplit());
    }
    s.counters.agedClaims +=
        _agedClaims.load(std::memory_order_relaxed);
    for (int c = 0; c < kNumJobClasses; ++c) {
        const AtomicOutcomeCounts &o = _outcomes[c];
        JobOutcomeCounts &d = s.jobOutcomes[c];
        d.done = o.done.load(std::memory_order_relaxed);
        d.failed = o.failed.load(std::memory_order_relaxed);
        d.cancelled = o.cancelled.load(std::memory_order_relaxed);
        d.expired = o.expired.load(std::memory_order_relaxed);
        d.rejected = o.rejected.load(std::memory_order_relaxed);
        d.shed = o.shed.load(std::memory_order_relaxed);
    }
    return s;
}

void
Runtime::resetStats()
{
    NUMAWS_ASSERT(!workActive());
    for (auto &w : _workers) {
        w->counters() = WorkerCounters{};
        w->resetParkCounters();
        w->resetJobHists();
        w->core().resetCounters();
        w->framePool().resetCounters();
        w->dataHeap().resetCounters();
        w->timeSplit() = TimeSplit{};
    }
    _agedClaims.store(0, std::memory_order_relaxed);
    _pressure.reset();
    _interference.reset();
    for (AtomicOutcomeCounts &o : _outcomes) {
        o.done.store(0, std::memory_order_relaxed);
        o.failed.store(0, std::memory_order_relaxed);
        o.cancelled.store(0, std::memory_order_relaxed);
        o.expired.store(0, std::memory_order_relaxed);
        o.rejected.store(0, std::memory_order_relaxed);
        o.shed.store(0, std::memory_order_relaxed);
    }
}

bool
Runtime::idleWait(int socket, int timeout_us)
{
    // Park tagged with the socket; only an occupancy edge on this
    // socket (or notifyWork) wakes it before the fallback, whose
    // (possibly EWMA-tuned) length comes from the caller's StealCore.
    // The predicate runs after waiter registration, so a wake issued
    // once we are registered is never lost; the fallback bounds the one
    // pre-registration publish window (parking.h docs).
    return _parking.park(
        socket, std::chrono::microseconds(timeout_us), [this, socket] {
            // jobPending: the admission queue is not on the board, so
            // the elastic pool must check it explicitly — this
            // predicate is what makes parking safe against admissions
            // racing the registration.
            return shuttingDown() || jobPending()
                   || (workActive() && _board.anyWorkFor(socket));
        });
}

void
Runtime::notifyWork()
{
    _parking.wakeAll();
}

void
Runtime::notifyWorkOn(int socket)
{
    _parking.wake(socket);
}

TaskBase *
Runtime::takeJob()
{
    return takeJobAbove(kNumJobClasses);
}

TaskBase *
Runtime::takeJobAbove(int below_cls)
{
    // The claim loop is the dequeue-side overload gate: every popped
    // entry feeds the queue-delay estimator, and cancelled or
    // past-deadline entries resolve here without ever running — their
    // roots are deleted (the state survives via QueuedJob's shared_ptr
    // for the resolution) and the scan continues to the next entry.
    const bool aging = _options.sched.serving.agingWaitUs > 0;
    const int scan =
        below_cls < kNumJobClasses ? below_cls : kNumJobClasses;
    for (;;) {
        if (_jobQueue.empty())
            return nullptr;
        const int64_t now = nowNs();
        QueuedJob job;
        bool promoted = false;
        if (!aging) {
            // Aging off: effective class == nominal class, so the
            // rank-by-effective scan below degenerates to this strict
            // priority order without the per-lane head peeks.
            for (int c = 0; c < scan && !job.valid(); ++c)
                job = _jobQueue.tryPopLane(c);
            if (!job.valid())
                return nullptr;
        } else {
            // Rank nonempty lanes by effective class — each lane's
            // nominal class promoted by its head job's wait
            // (ShedCore::effectiveClass) — with the nominal order
            // breaking ties, so a starved Batch lane eventually
            // outranks a saturated Latency lane.
            int best = -1;
            int best_eff = below_cls;
            for (int c = 0; c < kNumJobClasses; ++c) {
                const int64_t head = _jobQueue.headSubmitNs(c);
                if (head < 0)
                    continue;
                const int eff = _shed.effectiveClass(c, now - head);
                if (eff < best_eff) {
                    best_eff = eff;
                    best = c;
                }
            }
            if (best < 0)
                return nullptr;
            job = _jobQueue.tryPopLane(best);
            if (!job.valid())
                continue; // lost the lane to a concurrent claimer
            promoted = best_eff < best;
        }
        JobState &s = *job.state;
        _shed.observeDelay(static_cast<int>(s.opts.cls),
                           now - s.submitNs);
        if (s.cancelRequested.load(std::memory_order_acquire)) {
            delete job.root;
            resolveUnrun(s, JobOutcome::Cancelled, /*was_active=*/true);
            continue;
        }
        if (s.deadlineAtNs != 0 && now > s.deadlineAtNs) {
            delete job.root;
            resolveUnrun(s, JobOutcome::Expired, /*was_active=*/true);
            continue;
        }
        if (promoted)
            _agedClaims.fetch_add(1, std::memory_order_relaxed);
        return job.root;
    }
}

void
Runtime::maybePreempt(int cls)
{
    if (!_options.sched.serving.preempt)
        return;
    // Snapshot each worker's running class; an idle worker (-1) makes
    // the victim pick abstain — the admission wake is already enough.
    const int n = static_cast<int>(_workers.size());
    std::vector<int8_t> running(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w)
        running[static_cast<std::size_t>(w)] = _workers[w]->runningCls();
    const int victim =
        StealCore::pickPreemptVictim(cls, running.data(), n);
    if (victim >= 0)
        _workers[victim]->core().requestYield();
}

void
Runtime::enqueueJob(TaskBase *root, std::shared_ptr<JobState> state)
{
    const Place place = state->opts.place;
    // QueueDelay shedding at the admission edge: while any class's
    // observed queue delay sits above its target, each admission pays
    // for itself by evicting one queued job from the lowest class —
    // one-in-one-out, so the backlog stops growing under overload and
    // the Latency lane keeps draining at the Batch lane's expense.
    // Only a *standing* queue is shed (CoDel's rule): when the lanes
    // were empty the arrival is the server's next unit of work, and
    // evicting it would starve a busy-but-drained server.
    const bool standing = !_jobQueue.empty();
    const int cls = static_cast<int>(state->opts.cls);
    _jobQueue.push(root, std::move(state));
    if (standing && _shed.overloaded()) {
        QueuedJob victim = _jobQueue.popShedVictim();
        if (victim.valid()) {
            delete victim.root;
            resolveUnrun(*victim.state, JobOutcome::Rejected,
                         /*was_active=*/true);
        }
    }
    // Cooperative preemption: if every worker is busy with lower-class
    // work, ask the lowest-priority one to yield at its next boundary.
    maybePreempt(cls);
    // The admission wake (sched/admission.h). A wake that races a
    // worker's park registration is never lost — the park predicate
    // rechecks jobPending() after registering — and a wake targeting a
    // socket with no parked workers is bounded by the fallback timeout
    // of the others.
    const int socket = admissionWakeSocket(
        _shed, _interference, place, _board.numSockets(), [this] {
            return _admitCursor.fetch_add(1, std::memory_order_relaxed);
        });
    if (socket == kWakeAllSockets)
        notifyWork();
    else
        notifyWorkOn(socket);
}

void
Runtime::cancelQueuedJobs()
{
    for (;;) {
        QueuedJob job = _jobQueue.tryPop();
        if (!job.valid())
            return;
        delete job.root;
        resolveUnrun(*job.state, JobOutcome::Cancelled,
                     /*was_active=*/true);
    }
}

void
Runtime::watchdogLoop()
{
    // Progress = tasks completed (per-worker stamps) + jobs resolved.
    // A window in which the sum is unchanged while work is active means
    // every worker is wedged, parked, or spinning on something that
    // never completes — exactly the state worth a dump. All reads are
    // racy and relaxed: a rare false dump costs a few stderr lines.
    uint64_t last_progress = ~uint64_t{0};
    std::unique_lock<std::mutex> lock(_watchdogMutex);
    while (!_watchdogStop.load(std::memory_order_relaxed)) {
        _watchdogCv.wait_for(
            lock, std::chrono::milliseconds(_options.watchdogMs));
        if (_watchdogStop.load(std::memory_order_relaxed))
            return;
        uint64_t progress = _jobsFinished.load(std::memory_order_relaxed);
        for (const auto &w : _workers)
            progress += w->progressStamp();
        if (workActive() && progress == last_progress)
            dumpWorkerStates();
        last_progress = progress;
    }
}

void
Runtime::dumpWorkerStates()
{
    _watchdogDumps.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(
        stderr,
        "numaws watchdog: no task or job completed in %d ms "
        "(activeJobs=%lld queued=%s)\n",
        _options.watchdogMs,
        static_cast<long long>(
            _activeJobs.load(std::memory_order_relaxed)),
        jobPending() ? "yes" : "no");
    for (const auto &w : _workers)
        std::fprintf(
            stderr,
            "numaws watchdog:   worker %2d place %d: %s%s cls=%d "
            "deque=%zu progress=%llu pressure=%d\n",
            w->id(), w->place(),
            w->parkedNow() ? "parked" : "running",
            w->retiredNow() ? "/retired" : "",
            static_cast<int>(w->runningCls()), w->deque().size(),
            static_cast<unsigned long long>(w->progressStamp()),
            _pressure.pressure(w->place()));
}

void
Runtime::resolveUnrun(JobState &state, JobOutcome outcome,
                      bool was_active)
{
    const int cls = static_cast<int>(state.opts.cls);
    AtomicOutcomeCounts &c = _outcomes[cls];
    switch (outcome) {
    case JobOutcome::Cancelled:
        c.cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
    case JobOutcome::Expired:
        c.expired.fetch_add(1, std::memory_order_relaxed);
        break;
    case JobOutcome::Rejected:
        // Submit-time rejections never joined the active count; shed
        // victims did — so the was_active bit doubles as the cause
        // split between the two Rejected tallies.
        (was_active ? c.shed : c.rejected)
            .fetch_add(1, std::memory_order_relaxed);
        break;
    default:
        NUMAWS_PANIC("resolveUnrun with outcome %s",
                     jobOutcomeName(outcome));
    }
    state.finishNs.store(nowNs(), std::memory_order_relaxed);
    state.outcome.store(outcome, std::memory_order_release);
    _jobsFinished.fetch_add(1, std::memory_order_relaxed);
    // Same ordering contract as finishJob: retire the active slot
    // before publishing done, so a released waiter observes the
    // runtime quiescent.
    if (was_active
        && _activeJobs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> g(_quiesceMutex);
        _quiesceCv.notify_all();
    }
    {
        std::lock_guard<std::mutex> g(state.mutex);
        state.done.store(true, std::memory_order_release);
    }
    state.cv.notify_all();
}

void
Runtime::finishJob(JobState &state, JobOutcome outcome)
{
    const int64_t t = nowNs();
    state.finishNs.store(t, std::memory_order_relaxed);
    // Deterministic late-finish expiry: a body that ran past its
    // deadline without hitting a cancellation boundary still resolves
    // Expired (the threaded analogue of the simulator's clock-edge
    // check), keeping Done a statement about work served in time.
    if (outcome == JobOutcome::Done && state.deadlineAtNs != 0
        && t > state.deadlineAtNs)
        outcome = JobOutcome::Expired;
    Worker *w = Worker::current();
    NUMAWS_ASSERT(w != nullptr); // job roots execute on workers only
    // Latency percentiles describe served work: only jobs that ran to
    // completion (Done/Failed) are recorded.
    if (outcome == JobOutcome::Done || outcome == JobOutcome::Failed)
        w->recordJobLatency(state.opts.cls, t - state.submitNs);
    AtomicOutcomeCounts &c = _outcomes[static_cast<int>(state.opts.cls)];
    switch (outcome) {
    case JobOutcome::Done:
        c.done.fetch_add(1, std::memory_order_relaxed);
        break;
    case JobOutcome::Failed:
        c.failed.fetch_add(1, std::memory_order_relaxed);
        break;
    case JobOutcome::Cancelled:
        c.cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
    case JobOutcome::Expired:
        c.expired.fetch_add(1, std::memory_order_relaxed);
        break;
    default:
        NUMAWS_PANIC("finishJob with outcome %s",
                     jobOutcomeName(outcome));
    }
    state.outcome.store(outcome, std::memory_order_release);
    _jobsFinished.fetch_add(1, std::memory_order_relaxed);
    // Retire from the active count *before* publishing done: a waiter
    // released by the done flag must observe the runtime quiescent
    // (resetStats asserts !workActive() right after a run()).
    if (_activeJobs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last in-flight job: release a destructor waiting to quiesce.
        std::lock_guard<std::mutex> g(_quiesceMutex);
        _quiesceCv.notify_all();
    }
    {
        std::lock_guard<std::mutex> g(state.mutex);
        state.done.store(true, std::memory_order_release);
    }
    state.cv.notify_all();
}

} // namespace numaws
