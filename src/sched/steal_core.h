/**
 * @file
 * StealCore: the engine-agnostic scheduling brain, one per worker/core.
 *
 * Everything that *chooses* on the steal path lives here — the
 * locality-biased victim draw, the mailbox-vs-deque coin flip,
 * PUSHBACK receiver selection and its constant threshold, the
 * park-after-N-failures streak, and the EWMA-tuned parking constants.
 * The threaded runtime (runtime/worker.cc) and the simulator
 * (sim/scheduler.cc) are thin drivers that *execute* the returned
 * actions (probe victim V, push to mailbox M, park on socket S) against
 * their own mechanics, so a policy decision exists in exactly one place
 * and the engines cannot diverge.
 *
 * Determinism contract: for a fixed SchedPolicy, EngineView contents,
 * seed, and call sequence, the core draws from its private RNG in a
 * fixed order and returns an identical action sequence — the property
 * policy_core_test's differential engine-parity test locks down, and
 * what lets the simulator stay byte-reproducible per seed while sharing
 * this code with real threads (the sim feeds its virtual clock and
 * seeded RNG through the same transitions).
 *
 * Thread safety: none, with one deliberate exception — the yield
 * directive (requestYield / yieldRequested / takeYieldRequest) is an
 * atomic flag raised by *another* thread (the admitting submitter in
 * the threaded engine) and consumed by the owner at its next
 * spawn/sync boundary. Everything else is owner-only.
 */
#ifndef NUMAWS_SCHED_STEAL_CORE_H
#define NUMAWS_SCHED_STEAL_CORE_H

#include <atomic>
#include <cstdint>

#include "sched/occupancy.h"
#include "sched/policy.h"
#include "support/relaxed.h"
#include "support/rng.h"
#include "topology/place.h"

namespace numaws {

/**
 * Narrow view of engine state the core consults when deciding. Both
 * pointers outlive the core; @p board may be null or disabled (the
 * core then behaves as if nothing were published — blind PUSHBACK
 * receivers).
 */
struct EngineView
{
    const StealDistribution *dist = nullptr;
    const OccupancyBoard *board = nullptr;
};

/** One steal-path decision, returned by StealCore::nextAction(). */
struct StealAction
{
    /** Victim worker/core id to probe. */
    int victim = -1;
    /** BIASEDSTEALWITHPUSH: inspect the victim's mailbox before its
     * deque (the coin flip). */
    bool checkMailboxFirst = false;
};

/**
 * EWMA-derived parking constants, one per worker.
 *
 * One signal drives both knobs: the *dry-park rate* — the EWMA of park
 * episodes that bought nothing (woken onto a still-dry board, or timed
 * out with no work). A machine where parks keep ending productively
 * wants more spin (the work would have arrived within the spin budget)
 * and a short fallback; a machine idling through parks wants the
 * opposite — park sooner, sleep longer. Both scales sit exactly at the
 * configured constants at the neutral prior 0.5:
 *
 *   spinBudget    = clamp(2 * base * (1 - dryRate), max(1, base/4), 2*base)
 *   timeoutScale  = clamp(1 + 7 * (dryRate - 0.5), 0.5, 4.0)
 *
 * Bounded on both sides, so tuning can shift constants but never
 * remove the liveness the fallback timeout guarantees.
 */
class ParkTuner
{
  public:
    ParkTuner() = default;

    explicit ParkTuner(int base_spin)
        : _baseSpin(base_spin > 0 ? base_spin : 1)
    {}

    /** A park episode ended; @p found_work == the wake-time probe saw
     * stealable work (productive park). */
    void
    observe(bool found_work)
    {
        _dryRate = (1.0 - kAlpha) * _dryRate
                   + kAlpha * (found_work ? 0.0 : 1.0);
    }

    /** Multiplier for the configured park timeout, in [0.5, 4]. */
    double
    timeoutScale() const
    {
        // Steep enough that the clamps genuinely bind at sustained
        // evidence (the EWMA approaches but never reaches 0 or 1).
        const double s = 1.0 + 7.0 * (_dryRate - 0.5);
        return s < 0.5 ? 0.5 : (s > 4.0 ? 4.0 : s);
    }

    /** Fruitless-step budget before parking. */
    int
    spinBudget() const
    {
        const int lo = _baseSpin / 4 > 0 ? _baseSpin / 4 : 1;
        const int hi = 2 * _baseSpin;
        const int b = static_cast<int>(2.0 * _baseSpin * (1.0 - _dryRate)
                                       + 0.5);
        return b < lo ? lo : (b > hi ? hi : b);
    }

    /** EWMA dry-park rate (test hook). */
    double dryRate() const { return _dryRate; }

  private:
    static constexpr double kAlpha = 0.25;

    int _baseSpin = 1;
    double _dryRate = 0.5; ///< neutral prior: the configured constants
};

/** Decision counters the core maintains; engines fold them into their
 * own stats vocabulary (WorkerCounters / SimCounters). Single-writer
 * words (support/relaxed.h): a threaded engine reads them with
 * relaxedLoad while the owning worker runs. */
struct StealCoreCounters
{
    uint64_t stealAttempts = 0; ///< victim probes issued
    uint64_t yields = 0;        ///< preemption yields serviced
};

/**
 * Copyable atomic flag for the cross-thread yield directive. StealCore
 * must stay copy-assignable (the simulator re-seeds cores by
 * assignment), which a raw std::atomic member would delete; copying
 * transfers the current value with relaxed ordering — fine, because
 * copies only happen while the owning engine is single-threaded
 * (construction / sim reset), never with a raiser in flight.
 */
class AtomicYieldFlag
{
  public:
    AtomicYieldFlag() = default;
    AtomicYieldFlag(const AtomicYieldFlag &o)
        : _v(o._v.load(std::memory_order_relaxed))
    {}
    AtomicYieldFlag &
    operator=(const AtomicYieldFlag &o)
    {
        _v.store(o._v.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
        return *this;
    }

    void raise() { _v.store(true, std::memory_order_release); }
    bool raised() const { return _v.load(std::memory_order_relaxed); }
    bool take() { return _v.exchange(false, std::memory_order_acq_rel); }

  private:
    std::atomic<bool> _v{false};
};

/**
 * Per-worker scheduling-decision state machine (file docs above).
 *
 * Call protocol, per the drivers in runtime/worker.cc and
 * sim/scheduler.cc:
 *  - steal path: a = nextAction(); execute it.
 *  - PUSHBACK: per attempt, compare the frame's push count against
 *    pushThreshold(), pick a receiver with pickPushReceiver().
 *  - parking: noteFruitless() per fruitless step, noteProgress() when
 *    work was found; takeParkRequest() consumes the park decision;
 *    parkTimeoutUs() is the (tuned) bound; onParkOutcome() feeds the
 *    tuner after the episode.
 */
class StealCore
{
  public:
    /** An inert core (engines value-construct before wiring). */
    StealCore() = default;

    StealCore(const SchedPolicy &policy, const EngineView &view, int self,
              int socket, uint64_t seed)
        : _policy(policy),
          _view(view),
          _self(self),
          _socket(socket),
          _rng(seed),
          _tuner(policy.parkSpinFailures)
    {}

    const SchedPolicy &policy() const { return _policy; }
    int self() const { return _self; }
    int socket() const { return _socket; }

    /** @name Steal path */
    /// @{
    StealAction nextAction();
    /// @}

    /** @name PUSHBACK (lazy work pushing) */
    /// @{
    /** Cap on a frame's lifetime PUSHBACK attempts. */
    int pushThreshold() const { return _policy.pushThreshold; }
    /**
     * Receiver for the next attempt among workers [first, last) of
     * @p target_socket: board-guided when the policy says so (sampled
     * from advertised mailbox room), else — or when no room is
     * advertised — a blind uniform pick. @p self_in_range is excluded
     * from the guided pick (-1 when the pusher is outside the range;
     * the blind fallback deliberately does not exclude it, matching
     * the paper's protocol where a self-pick burns the attempt).
     */
    int pickPushReceiver(int first, int last, int self_in_range,
                         int target_socket);
    /// @}

    /** @name Parking decisions */
    /// @{
    /** A scheduling step found nothing (failed probe, empty local
     * round): advance the park streak. */
    void
    noteFruitless()
    {
        if (++_parkFails >= _tuner.spinBudget()) {
            _parkFails = 0;
            _parkRequested = true;
        }
    }

    /** Work was found or executed: the streak breaks. */
    void noteProgress() { _parkFails = 0; }

    /** Consume the pending park decision, if any. */
    bool
    takeParkRequest()
    {
        const bool r = _parkRequested;
        _parkRequested = false;
        return r;
    }

    /** Park timeout for the next episode, microseconds: the policy's
     * fallback scaled by the tuner. */
    double
    parkTimeoutUs() const
    {
        return _policy.parkFallbackUs * _tuner.timeoutScale();
    }

    /** A park episode ended. @p found_work: the wake-time check saw
     * stealable work (false == spurious wake or dry timeout). Callers
     * skip this when no meaningful work signal exists (e.g. the
     * runtime between roots), leaving the tuner at its last estimate. */
    void onParkOutcome(bool found_work) { _tuner.observe(found_work); }
    /// @}

    /** @name Cooperative preemption (yield directive) */
    /// @{
    /**
     * Raise the yield directive on this worker: a higher-class job is
     * queued and this worker is the chosen victim. Called from the
     * admitting thread; the owner consumes it at its next spawn/sync
     * boundary via takeYieldRequest().
     */
    void requestYield() { _yieldRequested.raise(); }

    /** Cheap boundary-side peek — one relaxed load, nothing else. */
    bool yieldRequested() const { return _yieldRequested.raised(); }

    /** Consume the directive (exactly one boundary acts on a raise). */
    bool takeYieldRequest() { return _yieldRequested.take(); }

    /** A consumed directive actually claimed a job (counter credit). */
    void noteYieldServiced() { relaxedAdd(_counters.yields); }

    /**
     * Preemption victim among @p n workers whose running job classes
     * are @p runningCls (-1 == idle / not running a job), for an
     * admitted job of class @p cls. Returns -1 when any worker is idle
     * (the admission wake already covers it) or when nobody runs
     * strictly lower-class (numerically greater) work; otherwise the
     * worker running the lowest-priority class, lowest index on ties
     * (deterministic, so both engines agree).
     */
    static int pickPreemptVictim(int cls, const int8_t *runningCls,
                                 int n);
    /// @}

    /** @name Data-home placement */
    /// @{
    /**
     * Turn a data-home socket mask (bit s == the data has pages homed
     * on socket s; the engine resolves homes through its PageMap) into
     * a spawn-time placement hint: the lowest homing socket, or
     * kAnyPlace for an empty mask. Static and deterministic
     * — the spawn fast path must not consume RNG (neither engine's
     * spawn path draws randomness; the engine-parity contract).
     */
    static Place
    placeFromAffinity(uint32_t socket_mask)
    {
        if (socket_mask == 0)
            return kAnyPlace;
        return static_cast<Place>(__builtin_ctz(socket_mask));
    }
    /// @}

    /** @name Introspection (engines fold counters; tests poke state) */
    /// @{
    const StealCoreCounters &counters() const { return _counters; }
    const ParkTuner &parkTuner() const { return _tuner; }
    Rng &rng() { return _rng; }
    /// @}

  private:
    bool boardUsable() const
    {
        return _view.board != nullptr && _view.board->enabled();
    }

    SchedPolicy _policy{};
    EngineView _view{};
    int _self = 0;
    int _socket = 0;
    Rng _rng{0};
    ParkTuner _tuner{};
    /** Consecutive fruitless steps toward the park budget. */
    int _parkFails = 0;
    bool _parkRequested = false;
    /** Cross-thread yield directive (see the thread-safety note). */
    AtomicYieldFlag _yieldRequested{};
    StealCoreCounters _counters{};
};

} // namespace numaws

#endif // NUMAWS_SCHED_STEAL_CORE_H
