/**
 * @file
 * perfbench: the repo benchmark for the threaded NUMA-WS runtime.
 *
 *   perfbench --workload fib|cilksort|heat|serve --seed N --seconds S
 *             --trace 0|1 [--scale X] [--out DIR] [--git-sha SHA]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the same
 * workload with spans and per-rep stats on every other round, adds the
 * layer probes, writes a Chrome trace-event file, and prints the
 * per-layer metrics. The last stdout line is the result object
 * {"correct","attempted","failed","metrics"}; the line before it is the
 * host stamp. A results file with quartiles and sample counts goes to
 * DIR (default .bench_out).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/stat.h>

#include "bench.h"

using namespace perfbench;

namespace {

struct Expected
{
    const char *name;
    const char *unit;
};

/** The end-to-end rows, in BENCHMARK.json order. */
constexpr Expected kEndToEnd[] = {
    {"tp_s", "s"},          {"tp_tail_s", "s"},    {"work_eff", "x"},
    {"speedup", "x"},       {"jobs_s", "jobs/s"},  {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},   {"ok_frac", "ratio"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** The per-layer rows (traced run), in BENCHMARK.json order. */
constexpr Expected kPerLayer[] = {
    {"runtime.spawn_sync_ns", "ns"},
    {"deque.push_pop_ns", "ns"},
    {"runtime.frame_alloc_ns", "ns"},
    {"runtime.frame_remote_free_ns", "ns"},
    {"runtime.spawns", "count"},
    {"runtime.frame_recycle_ratio", "ratio"},
    {"deque.steal_ns", "ns"},
    {"sched.steal_attempts", "count"},
    {"sched.steals", "count"},
    {"sched.steal_success", "ratio"},
    {"runtime.sched_frac", "ratio"},
    {"runtime.idle_frac", "ratio"},
    {"runtime.work_frac", "ratio"},
    {"sched.stuck_runtime_frac", "ratio"},
    {"deque.mailbox_ns", "ns"},
    {"sched.board_publish_ns", "ns"},
    {"sched.mailbox_takes", "count"},
    {"sched.pushback_success", "ratio"},
    {"sched.hinted_frac", "ratio"},
    {"mem.heap_alloc_ns", "ns"},
    {"mem.heap_remote_free_ns", "ns"},
    {"mem.pooled_bytes", "bytes"},
    {"mem.remote_frees", "count"},
    {"mem.stream_gb_s", "GB/s"},
    {"workloads.computed_gb_s", "GB/s"},
    {"workloads.bw_frac", "ratio"},
    {"runtime.jobq_push_pop_ns", "ns"},
    {"runtime.submit_us", "us"},
    {"runtime.queue_p50_us", "us"},
    {"runtime.queue_p99_us", "us"},
    {"runtime.exec_p50_us", "us"},
    {"sched.park_wake_us", "us"},
    {"runtime.submit_wait_us", "us"},
    {"sched.parks", "count"},
    {"sched.spurious_wake_frac", "ratio"},
    {"sched.parked_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_s.runtime", "s"},
    {"trace.self_s.workloads", "s"},
    {"trace.self_s.mem", "s"},
    {"trace.self_s.deque", "s"},
    {"trace.self_s.sched", "s"},
    {"trace.self_s.bench", "s"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fib|cilksort|heat|serve --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--out DIR] [--git-sha SHA]\n",
                 why);
    std::exit(2);
}

Config
parse(int argc, char **argv)
{
    Config cfg;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *v = argv[++i];
        if (key == "--workload") {
            cfg.workload = v;
            have_workload = true;
        } else if (key == "--seed") {
            cfg.seed = std::strtoull(v, nullptr, 10);
        } else if (key == "--seconds") {
            cfg.seconds = std::strtod(v, nullptr);
        } else if (key == "--trace") {
            cfg.trace = std::strcmp(v, "0") != 0;
        } else if (key == "--scale") {
            cfg.scale = std::strtod(v, nullptr);
        } else if (key == "--out") {
            cfg.outDir = v;
        } else if (key == "--git-sha") {
            cfg.gitSha = v;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload
        || (cfg.workload != "fib" && cfg.workload != "cilksort"
            && cfg.workload != "heat" && cfg.workload != "serve"))
        usage("--workload must be fib, cilksort, heat or serve");
    if (!(cfg.seconds > 0) || !(cfg.scale > 0) || cfg.scale > 1)
        usage("--seconds must be > 0 and --scale in (0, 1]");
    return cfg;
}

std::string
hostJson(const Config &cfg, const Host &host)
{
    return std::string("{\"nproc\":") + std::to_string(host.cpus)
           + ",\"llc_bytes\":" + std::to_string(host.llc)
           + ",\"stream_gb_s\":" + num(host.streamGBs)
           + ",\"compiler\":\"" + PERFBENCH_COMPILER
           + "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE
           + "\",\"git_sha\":\"" + cfg.gitSha + "\",\"scale\":"
           + num(cfg.scale) + "}";
}

const Report::Metric *
find(const Report &r, const char *name)
{
    for (const Report::Metric &m : r.metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

/** Every expected row present once with its unit, and nothing else. */
template <std::size_t N>
bool
matches(const Report &r, const Expected (&want)[N])
{
    if (r.metrics.size() != N)
        return false;
    for (const Expected &e : want) {
        const Report::Metric *m = find(r, e.name);
        if (m == nullptr || m->unit != e.unit)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = parse(argc, argv);
    Host host;
    host.cpus = hostCpus();
    host.llc = llcBytes();
    Trace trace(cfg.trace);
    Report report;
    try {
        if (cfg.workload == "serve")
            runServe(cfg, host, trace, report);
        else
            runForkJoin(cfg, host, trace, report);
        if (!cfg.trace) {
            report.add("ok_frac",
                       ratio(static_cast<double>(report.attempted
                                                 - report.failed),
                             static_cast<double>(report.attempted)),
                       "ratio");
            report.add("peak_rss_mb", peakRssMiB(), "MiB");
        }

        // Sustainable bandwidth over arrays spanning 4x the LLC, after
        // the workload so its arrays stay out of peak_rss_mb.
        const double stream_bytes =
            std::max(4.0 * static_cast<double>(host.llc) * cfg.scale,
                     8.0 * 1024 * 1024);
        host.streamGBs = streamGBs(static_cast<uint64_t>(stream_bytes),
                                   host.cpus, trace, 0);
        if (cfg.trace) {
            runProbes(cfg, host, trace, report,
                      /*job_rows=*/cfg.workload != "serve");
            report.add("mem.stream_gb_s", host.streamGBs, "GB/s");
            const Report::Metric *computed =
                find(report, "workloads.computed_gb_s");
            report.add("workloads.bw_frac",
                       ratio(computed != nullptr ? computed->value : 0,
                             host.streamGBs),
                       "ratio");
            const auto self = trace.selfSeconds();
            for (const char *layer : {"runtime", "workloads", "mem", "deque",
                                      "sched", "bench"}) {
                double s = 0;
                for (const auto &kv : self)
                    if (kv.first == layer)
                        s = kv.second;
                report.add(std::string("trace.self_s.") + layer, s, "s");
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const bool shape_ok = cfg.trace ? matches(report, kPerLayer)
                                    : matches(report, kEndToEnd);
    if (!shape_ok) {
        std::fprintf(stderr, "perfbench: metric set does not match the "
                             "benchmark definition\n");
        return 1;
    }

    const std::string host_json = hostJson(cfg, host);
    std::string metrics = "{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric &m = report.metrics[i];
        metrics += (i ? ",\"" : "\"") + m.name + "\":{\"value\":"
                   + num(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    metrics += "}";
    const bool correct = report.failed == 0 && report.attempted > 0;
    const std::string result =
        std::string("{\"correct\":") + (correct ? "true" : "false")
        + ",\"attempted\":" + std::to_string(report.attempted)
        + ",\"failed\":" + std::to_string(report.failed)
        + ",\"metrics\":" + metrics + "}";

    ::mkdir(cfg.outDir.c_str(), 0755);
    const std::string stem = cfg.outDir + "/" + cfg.workload + "-seed"
                             + std::to_string(cfg.seed)
                             + (cfg.trace ? "-trace" : "");
    std::string details = "{";
    for (std::size_t i = 0; i < report.details.size(); ++i)
        details += (i ? ",\"" : "\"") + report.details[i].first
                   + "\":" + report.details[i].second;
    details += "}";
    if (FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
                     "\"trace\":%d,\"host\":%s,\"details\":%s,"
                     "\"result\":%s}\n",
                     cfg.workload.c_str(),
                     static_cast<unsigned long long>(cfg.seed),
                     num(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
                     host_json.c_str(), details.c_str(), result.c_str());
        std::fclose(f);
    }
    if (cfg.trace && !trace.write(stem + ".trace.json", host_json)) {
        std::fprintf(stderr, "perfbench: cannot write the trace file\n");
        return 1;
    }

    std::printf("host %s\n%s\n", host_json.c_str(), result.c_str());
    return 0;
}
