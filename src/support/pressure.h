/**
 * @file
 * Co-runner pressure sensing (PR 10): how a worker notices that a core
 * it believes it owns is being timesliced against an external workload.
 *
 * The runtime cannot see co-runners directly — the kernel gives no
 * callback for "your thread was preempted". What it can see, cheaply
 * and per thread, is the *signature* of preemption over an epoch:
 *
 *  - involuntary context switches (`getrusage(RUSAGE_THREAD)`'s
 *    `ru_nivcsw`): each one is the kernel evicting this thread for
 *    somebody else;
 *  - wall/CPU-time skew: a busy worker that accrued 3 ms of
 *    CLOCK_THREAD_CPUTIME_ID over a 5 ms wall epoch lost ~40% of the
 *    epoch to something that was not this thread.
 *
 * Each worker samples both once per pressure epoch (a clock_gettime +
 * getrusage pair on the scheduling path, never on the spawn path —
 * work-first) and folds the skew into a per-socket EWMA on the
 * PressureBoard, published next to the OccupancyBoard so the
 * InterferenceCore's verdicts and the admission-steering reads are one
 * relaxed atomic load. Parked time is excluded from the wall base: a
 * worker that slept in the ParkingLot by choice was not preempted.
 *
 * Units: pressure is per-mille (0..1000) of the epoch lost to
 * interference. The skew alone is ambiguous (page faults, frequency
 * ramps), so an epoch reports nonzero pressure only when at least one
 * involuntary context switch confirmed a co-runner.
 */
#ifndef NUMAWS_SUPPORT_PRESSURE_H
#define NUMAWS_SUPPORT_PRESSURE_H

#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <sys/resource.h>

#include "support/panic.h"

namespace numaws {

/**
 * Pure pressure math, separated so the unit tests need no clock: the
 * per-mille of @p wallNs the thread did *not* run, gated on at least
 * one involuntary context switch in the epoch.
 */
inline int
pressurePermille(int64_t wallNs, int64_t cpuNs, int64_t invCtxSwitches)
{
    if (invCtxSwitches < 1 || wallNs <= 0)
        return 0;
    const int64_t lost = wallNs - cpuNs;
    if (lost <= 0)
        return 0;
    const int64_t pm = lost * 1000 / wallNs;
    return pm > 1000 ? 1000 : static_cast<int>(pm);
}

/**
 * One worker's epoch sampler. begin() snapshots the three clocks;
 * sample() closes the epoch, returns its pressure, and re-opens the
 * next one. notePark(ns) subtracts voluntarily parked time from the
 * epoch's wall base.
 */
class PressureSensor
{
  public:
    void
    begin()
    {
        _wallStartNs = wallNowNs();
        _cpuStartNs = cpuNowNs();
        _nivcswStart = nivcswNow();
        _parkedNs = 0;
    }

    /** Exclude @p ns of ParkingLot sleep from the current epoch. */
    void notePark(int64_t ns) { _parkedNs += ns; }

    /** Close the epoch and start the next; returns per-mille pressure. */
    int
    sample()
    {
        const int64_t wall_now = wallNowNs();
        const int64_t cpu_now = cpuNowNs();
        const int64_t nivcsw_now = nivcswNow();
        int64_t wall = wall_now - _wallStartNs - _parkedNs;
        if (wall < 0)
            wall = 0;
        const int pm = pressurePermille(wall, cpu_now - _cpuStartNs,
                                        nivcsw_now - _nivcswStart);
        _wallStartNs = wall_now;
        _cpuStartNs = cpu_now;
        _nivcswStart = nivcsw_now;
        _parkedNs = 0;
        return pm;
    }

    /** Nanoseconds since the current epoch opened (park time included —
     * the caller asks "is the epoch over", not "how busy was it"). */
    int64_t
    epochElapsedNs() const
    {
        return wallNowNs() - _wallStartNs;
    }

  private:
    static int64_t
    wallNowNs()
    {
        timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
    }

    static int64_t
    cpuNowNs()
    {
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
    }

    static int64_t
    nivcswNow()
    {
        rusage ru;
        getrusage(RUSAGE_THREAD, &ru);
        return static_cast<int64_t>(ru.ru_nivcsw);
    }

    int64_t _wallStartNs = 0;
    int64_t _cpuStartNs = 0;
    int64_t _nivcswStart = 0;
    int64_t _parkedNs = 0;
};

/**
 * Per-socket pressure EWMAs, published by worker epoch samples and read
 * by the InterferenceCore and the admission-steering path. Lives next
 * to the OccupancyBoard on the Runtime; all accesses relaxed — pressure
 * is advisory, a stale read costs one epoch of lag, never correctness
 * (the ShedCore EWMA discipline).
 */
class PressureBoard
{
  public:
    /** EWMA weight = 1/2^shift (2 == 1/4: a couple of epochs to
     * converge, matched to the InterferenceCore hysteresis streaks). */
    static constexpr int kEwmaShift = 2;

    explicit PressureBoard(int sockets)
        : _sockets(sockets),
          _ewma(new std::atomic<int64_t>[static_cast<std::size_t>(
              sockets > 0 ? sockets : 1)])
    {
        NUMAWS_ASSERT(sockets >= 1);
        for (int s = 0; s < _sockets; ++s)
            _ewma[s].store(kUnseeded, std::memory_order_relaxed);
    }

    /** Fold one worker's epoch sample into its socket's EWMA. */
    void
    publish(int socket, int permille)
    {
        NUMAWS_ASSERT(socket >= 0 && socket < _sockets);
        std::atomic<int64_t> &cell = _ewma[socket];
        int64_t prev = cell.load(std::memory_order_relaxed);
        int64_t next;
        do {
            next = prev == kUnseeded
                       ? permille
                       : prev + ((permille - prev) >> kEwmaShift);
        } while (!cell.compare_exchange_weak(prev, next,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed));
    }

    /** Smoothed per-mille pressure; 0 until the first sample lands. */
    int
    pressure(int socket) const
    {
        NUMAWS_ASSERT(socket >= 0 && socket < _sockets);
        const int64_t v = _ewma[socket].load(std::memory_order_relaxed);
        return v == kUnseeded ? 0 : static_cast<int>(v);
    }

    int sockets() const { return _sockets; }

    void
    reset()
    {
        for (int s = 0; s < _sockets; ++s)
            _ewma[s].store(kUnseeded, std::memory_order_relaxed);
    }

  private:
    static constexpr int64_t kUnseeded = -1;

    const int _sockets;
    std::unique_ptr<std::atomic<int64_t>[]> _ewma;
};

} // namespace numaws

#endif // NUMAWS_SUPPORT_PRESSURE_H
