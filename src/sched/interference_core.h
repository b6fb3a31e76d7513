/**
 * @file
 * InterferenceCore: the engine-agnostic co-runner adaptation brain
 * (PR 10), sibling of ShedCore. One instance per engine run; both the
 * threaded runtime and the simulator hold one and route every
 * shrink/expand/steering decision through it, so the adaptation
 * protocol exists in exactly one place.
 *
 * Inputs are per-socket pressure samples (per-mille of an epoch lost
 * to interference — see support/pressure.h; the simulator synthesizes
 * the same unit from its InterferenceTrace). Per socket, the core runs
 * a hysteresis ladder over epoch verdicts:
 *
 *   pressure >= kShrinkPermille  -> hot epoch; kShrinkEpochs in a
 *                                   row retire one more worker
 *   pressure <= kExpandPermille  -> cool epoch; interferenceExpandEpochs
 *                                   in a row reinstate one worker
 *   in between (the dead band)   -> both streaks reset; hold
 *
 * The thresholds and the shrink streak are fixed: no bench, example or
 * gate ever tuned them. Only the expand streak stays a knob, because
 * it doubles as the retired workers' probe duty cycle.
 *
 * "Retire" is a *target*, not an action: retiredTarget(socket) says
 * how many workers of that socket should be parked, and each engine's
 * workers compare their own rank against it on the scheduling path
 * (workerRetired). Retirement is ordered top-down by rank and floored
 * at one worker per socket, so the bottom worker — the per-socket
 * leader that keeps sensing and ticking the epoch — never retires.
 *
 * Like every policy core here it is clock-free and allocation-free
 * after construction; state words are relaxed atomics (verdicts are
 * advisory, one epoch of staleness is the worst case).
 */
#ifndef NUMAWS_SCHED_INTERFERENCE_CORE_H
#define NUMAWS_SCHED_INTERFERENCE_CORE_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "sched/policy.h"
#include "support/panic.h"

namespace numaws {

/** Engine-agnostic interference-adaptation state machine (file docs). */
class InterferenceCore
{
  public:
    /** Socket pressure (per-mille, EWMA-smoothed) at or above which an
     * epoch counts as *hot*. */
    static constexpr int kShrinkPermille = 250;
    /** Pressure at or below which an epoch counts as *cool*; the band
     * between the two thresholds holds the current worker set. */
    static constexpr int kExpandPermille = 80;
    /** Consecutive hot epochs before one more worker retires. */
    static constexpr int kShrinkEpochs = 2;

    InterferenceCore(const ServingPolicy &policy, int sockets)
        : _policy(policy), _sockets(sockets),
          _state(new SocketState[static_cast<std::size_t>(
              sockets > 0 ? sockets : 1)])
    {
        NUMAWS_ASSERT(sockets >= 1);
        NUMAWS_ASSERT(policy.interferenceExpandEpochs >= 1);
    }

    /** Off => no epoch ever ticks and every query is the identity. */
    bool
    enabled() const
    {
        return _policy.interference == InterferencePolicy::Adapt;
    }

    /**
     * Advance one socket's hysteresis ladder with its epoch pressure
     * (called once per epoch by that socket's leader — or by the
     * simulator's event loop). At most @p workersOnSocket - 1 workers
     * retire: the leader stays. Returns true when the retired target
     * moved.
     */
    bool
    epochTick(int socket, int pressure_permille, int workersOnSocket)
    {
        NUMAWS_ASSERT(socket >= 0 && socket < _sockets);
        if (!enabled())
            return false;
        SocketState &s = _state[socket];
        const int retired = s.retired.load(std::memory_order_relaxed);
        const int maxRetire = workersOnSocket - 1;
        if (pressure_permille >= kShrinkPermille) {
            s.cool = 0;
            s.pressured.store(true, std::memory_order_relaxed);
            if (++s.hot >= kShrinkEpochs) {
                s.hot = 0;
                if (retired < maxRetire) {
                    s.retired.store(retired + 1,
                                    std::memory_order_relaxed);
                    _shrinks.fetch_add(1, std::memory_order_relaxed);
                    return true;
                }
            }
        } else if (pressure_permille <= kExpandPermille) {
            s.hot = 0;
            s.pressured.store(false, std::memory_order_relaxed);
            if (++s.cool >= _policy.interferenceExpandEpochs) {
                s.cool = 0;
                if (retired > 0) {
                    s.retired.store(retired - 1,
                                    std::memory_order_relaxed);
                    _expands.fetch_add(1, std::memory_order_relaxed);
                    return true;
                }
            }
        } else {
            // Dead band: evidence for neither edge; hold and restart
            // both streaks so a flickering signal cannot creep through.
            s.hot = 0;
            s.cool = 0;
        }
        return false;
    }

    /** How many of @p socket's workers should currently be parked. */
    int
    retiredTarget(int socket) const
    {
        NUMAWS_ASSERT(socket >= 0 && socket < _sockets);
        return _state[socket].retired.load(std::memory_order_relaxed);
    }

    /**
     * Is the worker holding @p rankFromTop (0 = the socket's last
     * worker, retired first; the leader holds the largest rank and is
     * never retired) currently retired?
     */
    bool
    workerRetired(int socket, int rankFromTop) const
    {
        return rankFromTop < retiredTarget(socket);
    }

    /** Latched hot-side verdict for steering (true from the first hot
     * epoch, before any retirement, until a non-hot epoch). */
    bool
    socketPressured(int socket) const
    {
        NUMAWS_ASSERT(socket >= 0 && socket < _sockets);
        return _state[socket].pressured.load(std::memory_order_relaxed);
    }

    /**
     * Steer a wake or placement hint away from pressured sockets:
     * returns @p preferred when calm (or when adaptation is off), else
     * the first calm socket scanning up from it, else @p preferred
     * unchanged (every socket pressured — steering cannot help).
     * Deterministic: no RNG, so the Off schedule never shifts.
     */
    int
    steerSocket(int preferred) const
    {
        if (!enabled() || preferred < 0 || preferred >= _sockets)
            return preferred;
        if (!socketPressured(preferred))
            return preferred;
        for (int i = 1; i < _sockets; ++i) {
            const int s = (preferred + i) % _sockets;
            if (!socketPressured(s))
                return s;
        }
        return preferred;
    }

    /** @name Counters (monotonic, relaxed) */
    /// @{
    uint64_t
    shrinks() const
    {
        return _shrinks.load(std::memory_order_relaxed);
    }
    uint64_t
    expands() const
    {
        return _expands.load(std::memory_order_relaxed);
    }
    /// @}

    int sockets() const { return _sockets; }

    /** Back to the boot state (engines' resetStats, quiescent only). */
    void
    reset()
    {
        for (int s = 0; s < _sockets; ++s) {
            _state[s].hot = 0;
            _state[s].cool = 0;
            _state[s].retired.store(0, std::memory_order_relaxed);
            _state[s].pressured.store(false, std::memory_order_relaxed);
        }
        _shrinks.store(0, std::memory_order_relaxed);
        _expands.store(0, std::memory_order_relaxed);
    }

  private:
    struct SocketState
    {
        /** Hysteresis streaks, ticked by the socket's leader only;
         * atomic because reset() (Runtime::resetStats) restarts them
         * from another thread while the leader ticks. */
        std::atomic<int> hot{0};
        std::atomic<int> cool{0};
        /** Read by every worker of the socket on its scheduling path. */
        std::atomic<int> retired{0};
        std::atomic<bool> pressured{false};
    };

    const ServingPolicy _policy;
    const int _sockets;
    std::unique_ptr<SocketState[]> _state;
    std::atomic<uint64_t> _shrinks{0};
    std::atomic<uint64_t> _expands{0};
};

} // namespace numaws

#endif // NUMAWS_SCHED_INTERFERENCE_CORE_H
