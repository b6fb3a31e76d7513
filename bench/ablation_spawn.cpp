/**
 * @file
 * Spawn-overhead ablation: the one number the paper cares most about —
 * the cost of spawn+sync versus a plain function call (Section II's
 * work-first yardstick) — as a JSON-reporting, CI-gated comparison of
 * the NUMA-local task-frame pool against global-heap allocation.
 *
 *   ./ablation_spawn [--spawns=1024] [--reps=5] [--warmup=2]
 *                    [--json=BENCH_spawn.json]
 *
 * Shape: 1 worker, --spawns empty tasks per sync (the old
 * BM_SpawnSyncOverhead shape), --reps measured repetitions after
 * --warmup warm-up repetitions (the warm-up fills the pool's free
 * lists, so the measured reps see the steady state the pool is built
 * for). Heap and pooled repetitions interleave so host noise drifts
 * into both sides equally. A 2-worker pooled row rides along,
 * measured only, to show the remote-free path (thieves freeing into
 * the spawner's pool) under real contention; its timing is scheduling
 * luck on small hosts, so it carries no elapsed_s for the trajectory
 * gate to latch onto.
 *
 * Statistics: every comparison — the gate here and the elapsed_s the
 * CI trajectory tracks — uses the per-rep *minimum*, the standard
 * least-noise estimate of a microbenchmark's true cost (scheduler
 * interference only ever adds time, so the fastest rep is the closest
 * observation of each configuration's real spawn path; a mean or even
 * a median of microsecond-scale reps on a shared runner flaps — one
 * descheduled rep inflates a 15-rep mean several-fold). The rep mean
 * still rides along as elapsed_mean_s.
 *
 * Exits nonzero unless, on the 1-worker shape:
 *  1. pooled spawn throughput >= 1.25x the heap baseline
 *     (min ns/spawn, heap/pooled >= 1.25), and
 *  2. the pool recycles in steady state: framesRecycled/spawns >= 0.95
 *     over the measured reps.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "support/timing.h"

using namespace numaws;
using namespace numaws::bench;

namespace {

/** The plain-call baseline body: opaque to the optimizer so the
 * comparison is against a real call, not against nothing. */
__attribute__((noinline)) void
plainNop()
{
    asm volatile("");
}

double
spawnSyncRep(Runtime &rt, int spawns)
{
    WallTimer t;
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < spawns; ++i)
            tg.spawn([] { plainNop(); });
        tg.sync();
    });
    return t.seconds();
}

/** 2-worker rep: tasks carry a body of a few microseconds so the
 * second worker has time to wake and steal — stolen frames then come
 * home over the remote-free stack instead of the heap. */
double
spawnWorkRep(Runtime &rt, int spawns)
{
    WallTimer t;
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < spawns; ++i)
            tg.spawn([] {
                for (int k = 0; k < 512; ++k)
                    plainNop();
            });
        tg.sync();
    });
    return t.seconds();
}

double
plainCallRep(Runtime &rt, int calls)
{
    WallTimer t;
    rt.run([&] {
        for (int i = 0; i < calls; ++i)
            plainNop();
    });
    return t.seconds();
}

struct Measured
{
    double meanSeconds = 0.0;
    double minSeconds = 0.0;
    RuntimeStats stats;

    void
    finish(std::vector<double> &rep_seconds)
    {
        for (const double s : rep_seconds)
            meanSeconds += s / static_cast<double>(rep_seconds.size());
        minSeconds =
            *std::min_element(rep_seconds.begin(), rep_seconds.end());
    }

    double
    nsPer(int items) const
    {
        return meanSeconds * 1e9 / items;
    }

    double
    minNsPer(int items) const
    {
        return minSeconds * 1e9 / items;
    }
};

/** Warm up, reset stats, then measure @p reps repetitions plus the
 * counters accumulated over exactly those reps. */
template <typename RepFn>
Measured
measure(Runtime &rt, int warmup, int reps, RepFn rep)
{
    for (int i = 0; i < warmup; ++i)
        rep(rt);
    rt.resetStats();
    Measured m;
    std::vector<double> seconds;
    seconds.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i)
        seconds.push_back(rep(rt));
    m.finish(seconds);
    m.stats = rt.stats();
    return m;
}

RuntimeOptions
optionsFor(int workers, TaskPoolPolicy pool)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.taskPool = pool;
    return o;
}

/** @p with_elapsed: whether the row carries elapsed_s — the metric the
 * CI trajectory gates on. Scheduling-luck rows leave it out so the
 * gate cannot latch onto them; their spawn_ns still rides the
 * report-mode ratios. */
JsonRow
spawnRow(const char *workload, TaskPoolPolicy pool, int workers,
         int spawns, int reps, const Measured &m, bool with_elapsed)
{
    const WorkerCounters &c = m.stats.counters;
    JsonRow row;
    row.set("engine", "threaded")
        .set("workload", workload)
        .set("pool", taskPoolPolicyName(pool))
        .set("workers", workers)
        .set("spawns_per_sync", spawns)
        .set("reps", reps);
    if (with_elapsed)
        row.set("elapsed_s", m.minSeconds);
    row.set("elapsed_mean_s", m.meanSeconds)
        .set("spawn_ns", m.minNsPer(spawns))
        .set("spawns", c.spawns)
        .set("frames_recycled", c.framesRecycled)
        .set("remote_frees", c.remoteFrees)
        .set("slab_bytes", c.slabBytes)
        .set("steals", c.steals);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const int spawns =
        std::max(1, static_cast<int>(cli.getInt("spawns", 1024)));
    const int reps = std::max(1, static_cast<int>(cli.getInt("reps", 5)));
    const int warmup =
        std::max(0, static_cast<int>(cli.getInt("warmup", 2)));
    const std::string json_path =
        cli.getString("json", "BENCH_spawn.json");

    JsonReport report;

    // The paper's yardstick: what does the same loop cost as plain
    // calls, with no spawn machinery at all?
    Runtime rt_call(optionsFor(1, TaskPoolPolicy::Pooled));
    Measured call = measure(rt_call, warmup, reps, [&](Runtime &rt) {
        return plainCallRep(rt, spawns);
    });
    {
        JsonRow row;
        row.set("engine", "threaded")
            .set("workload", "plain-call")
            .set("pool", "none")
            .set("workers", 1)
            .set("spawns_per_sync", spawns)
            .set("reps", reps)
            .set("elapsed_s", call.minSeconds)
            .set("elapsed_mean_s", call.meanSeconds)
            .set("spawn_ns", call.minNsPer(spawns));
        report.addRow(row);
    }

    // Heap vs pooled on one worker, repetitions interleaved: rep i of
    // both runtimes runs back to back, so slow host phases (a noisy CI
    // neighbor, a frequency step) hit both means instead of one.
    Runtime rt_heap(optionsFor(1, TaskPoolPolicy::Heap));
    Runtime rt_pool(optionsFor(1, TaskPoolPolicy::Pooled));
    for (int i = 0; i < warmup; ++i) {
        spawnSyncRep(rt_heap, spawns);
        spawnSyncRep(rt_pool, spawns);
    }
    rt_heap.resetStats();
    rt_pool.resetStats();
    Measured heap, pooled;
    std::vector<double> heap_seconds, pool_seconds;
    for (int i = 0; i < reps; ++i) {
        heap_seconds.push_back(spawnSyncRep(rt_heap, spawns));
        pool_seconds.push_back(spawnSyncRep(rt_pool, spawns));
    }
    heap.finish(heap_seconds);
    pooled.finish(pool_seconds);
    heap.stats = rt_heap.stats();
    pooled.stats = rt_pool.stats();
    report.addRow(spawnRow("spawn+sync", TaskPoolPolicy::Heap, 1, spawns,
                           reps, heap, /*with_elapsed=*/true));
    report.addRow(spawnRow("spawn+sync", TaskPoolPolicy::Pooled, 1,
                           spawns, reps, pooled, /*with_elapsed=*/true));

    // Remote-free visibility row: 2 workers, thieves steal from the
    // spawner and free stolen frames back across the pool boundary.
    // Whether and how much they steal is scheduling luck on a small
    // host, so the row carries counters but no gateable elapsed_s.
    Runtime rt_two(optionsFor(2, TaskPoolPolicy::Pooled));
    Measured two = measure(rt_two, warmup, reps, [&](Runtime &rt) {
        return spawnWorkRep(rt, spawns);
    });
    report.addRow(spawnRow("spawn+work", TaskPoolPolicy::Pooled, 2,
                           spawns, reps, two, /*with_elapsed=*/false));

    const double recycle_rate =
        static_cast<double>(pooled.stats.counters.framesRecycled)
        / std::max<uint64_t>(1, pooled.stats.counters.spawns);
    std::printf("\nspawn+sync overhead, %d spawns/sync, %d reps "
                "(mean / min):\n",
                spawns, reps);
    std::printf("  plain call      %8.1f / %8.1f ns/call\n",
                call.nsPer(spawns), call.minNsPer(spawns));
    std::printf("  heap  (1w)      %8.1f / %8.1f ns/spawn\n",
                heap.nsPer(spawns), heap.minNsPer(spawns));
    std::printf("  pooled(1w)      %8.1f / %8.1f ns/spawn   "
                "recycled %.3f  slab KiB %llu\n",
                pooled.nsPer(spawns), pooled.minNsPer(spawns),
                recycle_rate,
                static_cast<unsigned long long>(
                    pooled.stats.counters.slabBytes >> 10));
    std::printf("  pooled(2w)      %8.1f ns/spawn   remoteFrees %llu  "
                "steals %llu\n",
                two.nsPer(spawns),
                static_cast<unsigned long long>(
                    two.stats.counters.remoteFrees),
                static_cast<unsigned long long>(
                    two.stats.counters.steals));

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    // Acceptance gates (file header).
    bool ok = true;
    std::printf("\n");
    ok &= gateMin("pooled/heap spawn throughput (min-rep)",
                  heap.minNsPer(spawns) / pooled.minNsPer(spawns),
                  1.25);
    ok &= gateMin("pooled steady-state recycle rate", recycle_rate,
                  0.95);
    if (!ok) {
        std::printf("FAIL: spawn-path acceptance gate violated\n");
        return 1;
    }
    return 0;
}
