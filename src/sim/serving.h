/**
 * @file
 * Open-loop serving mode for the simulated machine.
 *
 * PR 6's submission front door, mirrored in the simulator: instead of one
 * root computation seeded on core 0, a *job list* — independent root
 * frames grafted into one dag via ComputationDag::append — arrives over
 * virtual time. Each job carries an arrival cycle and a priority class;
 * the simulated scheduling loop claims admitted jobs from per-class
 * lanes (best *effective* class first, mirroring JobQueue plus
 * ShedCore's priority aging; strict nominal order when aging is off)
 * before probing victims, and under the parking model an admission
 * issues the same wake Runtime::enqueueJob does (admissionWakeSocket
 * in sched/admission.h: one targeted socket, escalated to every parked
 * core while ShedCore::unparkPressure() stands), backed by the same
 * Spawn-boundary preemption directive
 * Runtime::enqueueJob raises when ServingPolicy::preempt is on.
 *
 * Arrivals are generated up front from a seeded process (Poisson or
 * bursty), so serving runs are byte-reproducible per seed: the same
 * property the closed-loop simulator has, extended to open-loop latency
 * studies. Per-job latency is accounted exactly as the threaded engine's
 * JobHandle does — arrival (submit) to root-frame return (finish) — and
 * folded into the same LatencyHist plus exact sorted percentiles.
 */
#ifndef NUMAWS_SIM_SERVING_H
#define NUMAWS_SIM_SERVING_H

#include <cstdint>
#include <vector>

#include "runtime/job.h"
#include "sim/dag.h"
#include "sim/scheduler.h"
#include "support/latency_hist.h"

namespace numaws::sim {

/** One job: an independent root frame injected at a virtual instant. */
struct SimJob
{
    /** Root frame inside the merged dag (ComputationDag::append). */
    FrameId root = kNoFrame;
    double arrivalCycles = 0.0;
    /** Priority class, mirroring JobClass: 0 latency, 1 normal, 2 batch. */
    int cls = 1;
    /** Absolute deadline instant, cycles; 0 = none. Mirrors
     * JobOptions::deadlineNs: a job whose deadline passes while queued
     * is skipped at claim time; one that finishes past it resolves
     * Expired at root return (the deterministic analogue of the
     * cooperative boundary check). */
    double deadlineCycles = 0.0;
    /** Virtual instant a cancel request lands, cycles; 0 = never.
     * Mirrors JobHandle::cancel(): still-queued at that instant means
     * skipped at claim; already running means resolved Cancelled at
     * root return (the sim's fork-join bodies are boundary-dense, so
     * mid-run cancels always land). */
    double cancelAtCycles = 0.0;
};

/** Measured timeline of one job, in machine cycles. */
struct SimJobStats
{
    double arrivalCycles = 0.0;
    double startCycles = 0.0;  ///< first scheduled onto a core
    double finishCycles = 0.0; ///< root frame returned (or resolution)
    /** Terminal outcome, same taxonomy as the threaded engine. */
    JobOutcome outcome = JobOutcome::Pending;
    /** Rejected *by the QueueDelay shedder* (outcome is Rejected for
     * both causes; this bit is the admission-reject vs shed split). */
    bool shed = false;

    double latencyCycles() const { return finishCycles - arrivalCycles; }
    double queueCycles() const { return startCycles - arrivalCycles; }
};

/** Outcome of one serving run. */
struct ServingResult
{
    /** The usual engine result; elapsed spans first arrival to last
     * finish, and idle time includes the open-loop waiting between
     * jobs (that waiting is the elastic pool's parking opportunity). */
    SimResult sim;
    std::vector<SimJobStats> jobs;
    /** Per-job latency in nanoseconds over *served* (Done) jobs, same
     * histogram the threaded runtime folds into RuntimeStats. */
    LatencyHist latency;
    /** Exact percentiles from the sorted Done-job latencies, in
     * microseconds (the bench gates use these, not the bucketed
     * histogram, so gate noise is purely scheduling). */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Queue-delay (arrival -> claim) percentiles over jobs a core
     * actually claimed, microseconds: the overload signal the
     * QueueDelay policy regulates. */
    double queueP50Us = 0.0;
    double queueP99Us = 0.0;
    /** @name Outcome tallies (jobs.size() = done + expired + cancelled
     * + rejected; `shed` is the subset of rejected evicted after
     * admission by the QueueDelay policy). */
    /// @{
    uint64_t done = 0;
    uint64_t expired = 0;
    uint64_t cancelled = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
    /// @}
    /** Done jobs per second of elapsed virtual time: the protected
     * throughput the overload gate bounds from below. */
    double goodputPerSec = 0.0;
};

/** Seeded arrival-time generator configuration. */
struct ArrivalProcess
{
    enum class Kind : uint8_t {
        /** Exponential inter-arrival gaps at ratePerSec. */
        Poisson,
        /** burstSize simultaneous jobs per burst, bursts spaced by
         * exponential gaps with mean burstSize/ratePerSec (same average
         * rate, maximally lumpy admission edges). */
        Burst,
    };
    Kind kind = Kind::Poisson;
    double ratePerSec = 1000.0;
    int burstSize = 8;
    uint64_t seed = 0x5eed;
};

/**
 * Generate @p count arrival instants in machine cycles (@p ghz clock),
 * sorted ascending. Deterministic per (process, count, ghz).
 */
std::vector<double> arrivalCycles(const ArrivalProcess &process, int count,
                                  double ghz);

/**
 * Run @p jobs (roots inside @p dag, sorted by arrivalCycles) open-loop
 * on @p cores simulated cores of @p machine under @p config. No core is
 * pre-seeded with work: everything flows through admission, so a run
 * with zero jobs is invalid (asserted).
 */
ServingResult simulateServing(const ComputationDag &dag,
                              const std::vector<SimJob> &jobs,
                              const Machine &machine, int cores,
                              const SimConfig &config,
                              LatencyModel latency = {});

/** Convenience: serving on the packed paper-machine subset. */
ServingResult simulateServingPacked(const ComputationDag &dag,
                                    const std::vector<SimJob> &jobs,
                                    int cores, const SimConfig &config,
                                    LatencyModel latency = {});

} // namespace numaws::sim

#endif // NUMAWS_SIM_SERVING_H
