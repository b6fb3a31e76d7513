/**
 * @file
 * Push-target ablation under board parking: PushTarget {random, board}
 * on an idle-heavy serial-burst workload (the parking regime) and on
 * heat (the PUSHBACK-heavy workload), both engines.
 *
 * Idle workers park per socket and wake only when their socket's
 * occupancy words go 0 -> nonzero, with an EWMA-tuned fallback timeout
 * as lost-wakeup insurance — the one idle protocol both engines run.
 * The serial-burst rows track that protocol's parks, wakeups and
 * spurious wakeups across changes. Board-guided PUSHBACK spends its
 * attempts only on receivers whose mailbox bit advertises room instead
 * of probing blind; that is what the gate prices.
 *
 *   ./ablation_parking [--scale=0.25] [--cores=32] [--seeds=5]
 *                      [--seed=first] [--threads=2] [--skip-threaded]
 *                      [--json=BENCH_parking.json]
 *
 * The serial-burst dag alternates a long serial strand (every other
 * core idle: the parking regime) with a wide fan of small tasks (the
 * wakeup-latency regime). Each cell runs --seeds independent seeds;
 * the JSON carries one row per seed and the gate compares means. Exits
 * nonzero unless:
 *  - heat: board-guided PUSHBACK reduces pushAttempts *per deposited
 *    frame* to <= 0.98x random receivers. Raw attempt counts ride the
 *    scheduling trajectory and flip sign on unlucky 2-seed subsets; the
 *    per-frame rate isolates the mechanism (the exact sim board holds
 *    it at 1.0 on every seed, vs ~1.05-1.15 for random probing).
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/dag.h"
#include "support/timing.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

const PushTarget kPushTargets[] = {PushTarget::Random, PushTarget::Board};

/**
 * Idle-heavy fork-join: alternate a long serial strand (all cores but
 * one idle and parked) with a fan of small hinted tasks. Parked cores
 * sleep through the strand to the next occupancy edge (or one fallback
 * period).
 */
sim::ComputationDag
serialBurstDag(int sockets, int bursts, double serial_cycles, int fan,
               double leaf_cycles)
{
    sim::DagBuilder b;
    b.beginRoot();
    for (int i = 0; i < bursts; ++i) {
        b.strand(serial_cycles, {});
        for (int t = 0; t < fan; ++t)
            b.spawnLeaf(/*place=*/t % sockets, leaf_cycles, {});
        b.sync();
    }
    b.end();
    return b.finish();
}

struct Measured
{
    double elapsed = 0.0;
    double spurious = 0.0;
    double pushAttempts = 0.0;
    double pushSuccesses = 0.0;

    /** Wasted-probe rate: attempts per deposited frame. Raw attempt
     * counts vary with the scheduling trajectory (more deposits can
     * mean more attempts even when each is cheaper), so the per-frame
     * rate is the seed-robust form of the PUSHBACK gate — the exact
     * board holds it at 1.0 on every seed. */
    double
    attemptsPerDeposit() const
    {
        return pushAttempts / std::max(1.0, pushSuccesses);
    }
};

sim::SimConfig
configOf(PushTarget push, uint64_t seed)
{
    sim::SimConfig c;
    // Enable the parking model: park after a handful of fruitless
    // probes, the regime Runtime::mainLoop enters after its spin budget.
    // Every cell sets the push target explicitly, so the grid keeps
    // measuring the random baseline against the (default) board one.
    c.modelParking = true;
    c.sched.parkSpinFailures = 4;
    c.sched.pushTarget = push;
    c.seed = seed;
    return c;
}

void
threadedRows(JsonReport &report, double scale, int workers)
{
    for (const PushTarget push : kPushTargets) {
        RuntimeOptions o;
        o.numWorkers = workers;
        o.numPlaces = workers >= 4 ? 4 : (workers >= 2 ? 2 : 1);
        o.sched.pushTarget = push;
        Runtime rt(o);

        const double seconds = runThreadedFibHeat(rt, scale);
        const RuntimeStats stats = rt.stats();
        JsonRow row;
        row.set("engine", "threaded")
            .set("workload", "fib+heat")
            .set("push", pushTargetName(push))
            .set("workers", workers)
            .set("elapsed_s", seconds)
            .set("parks", stats.counters.parks)
            .set("park_wakes", stats.counters.parkWakes)
            .set("park_timeouts", stats.counters.parkTimeouts)
            // Same key as the sim rows so bench_trajectory.py tracks
            // the threaded spurious-wake history too.
            .set("spurious_wakeups", stats.counters.spuriousWakes)
            .set("push_attempts", stats.counters.pushbackAttempts)
            .set("push_successes", stats.counters.pushbackSuccesses);
        report.addRow(row);
        std::printf("  threaded %-13s %0.3fs  parks %llu  wakes %llu  "
                    "spurious %llu  pushAttempts %llu\n",
                    pushTargetName(push), seconds,
                    static_cast<unsigned long long>(stats.counters.parks),
                    static_cast<unsigned long long>(
                        stats.counters.parkWakes),
                    static_cast<unsigned long long>(
                        stats.counters.spuriousWakes),
                    static_cast<unsigned long long>(
                        stats.counters.pushbackAttempts));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const BenchArgs args(cli);
    const std::string json_path =
        cli.getString("json", "BENCH_parking.json");
    const uint64_t first_seed =
        static_cast<uint64_t>(cli.getInt("seed", 0x5eed));
    const int num_seeds =
        std::max(1, static_cast<int>(cli.getInt("seeds", 5)));
    const int threads = static_cast<int>(cli.getInt("threads", 2));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
    const int places = socketsFor(args.cores);

    const int bursts = args.scale >= 1.0 ? 32 : 12;
    HeatParams heat;
    heat.nx = args.scale >= 1.0 ? 2048
                                : (args.scale >= 0.5 ? 1024 : 512);
    heat.ny = heat.nx;
    heat.steps = args.scale >= 1.0 ? 16 : 8;

    struct Case
    {
        std::string name;
        sim::ComputationDag dag;
    };
    const Case cases[] = {
        {"serialburst",
         serialBurstDag(places, bursts, /*serial_cycles=*/2.2e6,
                        /*fan=*/64, /*leaf_cycles=*/20000.0)},
        {"heat", heatDag(heat, places, Placement::Partitioned, true)},
    };

    JsonReport report;
    // [case][push] means over seeds.
    Measured mean[2][2];
    for (std::size_t ci = 0; ci < 2; ++ci) {
        const Case &sc = cases[ci];
        if (!args.only.empty() && args.only != sc.name)
            continue;
        std::printf("\nSimulated %s, %d cores, %d seeds:\n",
                    sc.name.c_str(), args.cores, num_seeds);
        Table t({"push", "T(mean)", "parks", "wakeups", "spurious",
                 "boardwakes", "pushAtt"});
        for (const PushTarget push : kPushTargets) {
            Measured m;
            double parks = 0.0, wakeups = 0.0, board_wakes = 0.0;
            for (int s = 0; s < num_seeds; ++s) {
                const uint64_t seed = first_seed + 7919ULL * s;
                const sim::SimResult r = sim::simulatePacked(
                    sc.dag, args.cores, configOf(push, seed));
                JsonRow j;
                j.set("engine", "sim")
                    .set("workload", sc.name)
                    .set("push", pushTargetName(push))
                    .set("cores", args.cores)
                    .set("seed", seed)
                    .set("elapsed_s", r.elapsedSeconds)
                    .set("work_s", r.workSeconds)
                    .set("sched_s", r.schedSeconds)
                    .set("idle_s", r.idleSeconds)
                    .set("parks", r.counters.parks)
                    .set("wakeups", r.counters.wakeups)
                    .set("board_wakes", r.counters.boardWakes)
                    .set("spurious_wakeups",
                         r.counters.spuriousWakeups)
                    .set("push_attempts", r.counters.pushAttempts)
                    .set("push_successes", r.counters.pushSuccesses)
                    .set("steal_attempts", r.counters.stealAttempts);
                report.addRow(j);
                m.elapsed += r.elapsedSeconds / num_seeds;
                m.spurious += static_cast<double>(
                                  r.counters.spuriousWakeups)
                              / num_seeds;
                m.pushAttempts +=
                    static_cast<double>(r.counters.pushAttempts)
                    / num_seeds;
                m.pushSuccesses +=
                    static_cast<double>(r.counters.pushSuccesses)
                    / num_seeds;
                parks += static_cast<double>(r.counters.parks)
                         / num_seeds;
                wakeups += static_cast<double>(r.counters.wakeups)
                           / num_seeds;
                board_wakes +=
                    static_cast<double>(r.counters.boardWakes)
                    / num_seeds;
            }
            mean[ci][push == PushTarget::Board] = m;
            t.addRow({pushTargetName(push), Table::fmtSeconds(m.elapsed),
                      std::to_string(static_cast<uint64_t>(parks)),
                      std::to_string(static_cast<uint64_t>(wakeups)),
                      std::to_string(
                          static_cast<uint64_t>(m.spurious)),
                      std::to_string(
                          static_cast<uint64_t>(board_wakes)),
                      std::to_string(
                          static_cast<uint64_t>(m.pushAttempts))});
        }
        t.print();
    }

    if (!skip_threaded && args.only.empty()) {
        std::printf("\nThreaded runtime, %d workers:\n", threads);
        threadedRows(report, args.scale, threads);
    }

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    if (!args.only.empty())
        return 0; // partial runs skip the cross-cell gates

    // Acceptance gate (file header). Indices: [case][push] with 1 ==
    // board; heat is case 1.
    std::printf("\n");
    const bool ok =
        gateMax("heat board/random pushAttempts per deposit",
                mean[1][1].attemptsPerDeposit()
                    / mean[1][0].attemptsPerDeposit(),
                0.98);
    if (!ok) {
        std::printf("FAIL: parking/push-target acceptance gate "
                    "violated\n");
        return 1;
    }
    return 0;
}
