#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.h"
#include "support/timing.h"

namespace perfbench {

using numaws::nowNs;
using numaws::RuntimeStats;
using numaws::TimeSplit;
using numaws::WorkerCounters;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail
tailOf(std::vector<double> v, double cap, std::size_t beyond)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Never below the median: with too few samples for the rule, the
    // tail reads as the median.
    std::size_t idx = std::max(n > beyond ? n - 1 - beyond : 0, (n - 1) / 2);
    const auto cap_idx = static_cast<std::size_t>(
        std::max(0.0, std::ceil(cap * static_cast<double>(n)) - 1));
    idx = std::max(std::min(idx, cap_idx), (n - 1) / 2);
    t.value = v[idx];
    t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    return t;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
summaryJson(const std::vector<double> &v)
{
    double lo = 0, hi = 0;
    if (!v.empty()) {
        lo = *std::min_element(v.begin(), v.end());
        hi = *std::max_element(v.begin(), v.end());
    }
    return "{\"n\":" + std::to_string(v.size()) + ",\"median\":"
           + num(median(v)) + ",\"q1\":" + num(quantile(v, 0.25))
           + ",\"q3\":" + num(quantile(v, 0.75)) + ",\"min\":" + num(lo)
           + ",\"max\":" + num(hi) + "}";
}

int
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t
llcBytes()
{
    uint64_t best = 0;
    int best_level = -1;
    for (int i = 0; i < 16; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        std::ifstream size_f(dir + "/size");
        std::ifstream level_f(dir + "/level");
        if (!size_f || !level_f)
            continue;
        std::string size;
        int level = 0;
        size_f >> size;
        level_f >> level;
        uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
        if (!size.empty() && (size.back() == 'K' || size.back() == 'k'))
            bytes <<= 10;
        else if (!size.empty() && size.back() == 'M')
            bytes <<= 20;
        if (level > best_level || (level == best_level && bytes > best)) {
            best_level = level;
            best = bytes;
        }
    }
    return best;
}

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

RuntimeStats
statsDelta(const RuntimeStats &after, const RuntimeStats &before)
{
    RuntimeStats d;
    const WorkerCounters &a = after.counters;
    const WorkerCounters &b = before.counters;
    WorkerCounters &c = d.counters;
#define PERFBENCH_DELTA(f) c.f = a.f - b.f
    PERFBENCH_DELTA(spawns);
    PERFBENCH_DELTA(stealAttempts);
    PERFBENCH_DELTA(steals);
    PERFBENCH_DELTA(mailboxTakes);
    PERFBENCH_DELTA(pushbackAttempts);
    PERFBENCH_DELTA(pushbackSuccesses);
    PERFBENCH_DELTA(tasksExecuted);
    PERFBENCH_DELTA(tasksOnHintedPlace);
    PERFBENCH_DELTA(framesRecycled);
    PERFBENCH_DELTA(remoteFrees);
    PERFBENCH_DELTA(dataBytesPooled);
    PERFBENCH_DELTA(dataRemoteFrees);
    PERFBENCH_DELTA(parks);
    PERFBENCH_DELTA(parkWakes);
    PERFBENCH_DELTA(spuriousWakes);
    PERFBENCH_DELTA(parkedNs);
    PERFBENCH_DELTA(jobsCompleted);
#undef PERFBENCH_DELTA
    for (int k = 0; k < TimeSplit::NumBuckets; ++k) {
        const auto bucket = static_cast<TimeSplit::Bucket>(k);
        d.time.add(bucket, after.time.ns(bucket) - before.time.ns(bucket));
    }
    return d;
}

double
ratio(double num_v, double den_v)
{
    return den_v > 0 ? num_v / den_v : 0.0;
}

void
CounterLog::add(const RuntimeStats &d, double per)
{
    const WorkerCounters &c = d.counters;
    WorkerCounters &s = sum.counters;
    s.spawns += c.spawns;
    s.stealAttempts += c.stealAttempts;
    s.steals += c.steals;
    s.mailboxTakes += c.mailboxTakes;
    s.pushbackAttempts += c.pushbackAttempts;
    s.pushbackSuccesses += c.pushbackSuccesses;
    s.tasksExecuted += c.tasksExecuted;
    s.tasksOnHintedPlace += c.tasksOnHintedPlace;
    s.framesRecycled += c.framesRecycled;
    s.parks += c.parks;
    s.parkWakes += c.parkWakes;
    s.spuriousWakes += c.spuriousWakes;
    s.parkedNs += c.parkedNs;
    sum.time.merge(d.time);
    auto sample = [per](uint64_t v) { return static_cast<double>(v) / per; };
    spawns.push_back(sample(c.spawns));
    stealAttempts.push_back(sample(c.stealAttempts));
    steals.push_back(sample(c.steals));
    mailboxTakes.push_back(sample(c.mailboxTakes));
    parks.push_back(sample(c.parks));
    pooledBytes.push_back(sample(c.dataBytesPooled));
    remoteFrees.push_back(sample(c.dataRemoteFrees));
}

void
addCounterRows(Report &report, const CounterLog &log)
{
    const WorkerCounters &c = log.sum.counters;
    const TimeSplit &t = log.sum.time;
    const auto work = static_cast<double>(t.ns(TimeSplit::Work));
    const auto sched = static_cast<double>(t.ns(TimeSplit::Scheduling));
    const auto idle = static_cast<double>(t.ns(TimeSplit::Idle));
    const double total = work + sched + idle;
    auto frac = [](uint64_t a, uint64_t b) {
        return ratio(static_cast<double>(a), static_cast<double>(b));
    };
    report.add("runtime.spawns", median(log.spawns), "count");
    report.add("runtime.frame_recycle_ratio",
               frac(c.framesRecycled, c.spawns), "ratio");
    report.add("sched.steal_attempts", median(log.stealAttempts), "count");
    report.add("sched.steals", median(log.steals), "count");
    report.add("sched.steal_success", frac(c.steals, c.stealAttempts),
               "ratio");
    report.add("runtime.work_frac", ratio(work, total), "ratio");
    report.add("runtime.sched_frac", ratio(sched, total), "ratio");
    report.add("runtime.idle_frac", ratio(idle, total), "ratio");
    report.add("sched.mailbox_takes", median(log.mailboxTakes), "count");
    report.add("sched.pushback_success",
               frac(c.pushbackSuccesses, c.pushbackAttempts), "ratio");
    report.add("sched.hinted_frac",
               frac(c.tasksOnHintedPlace, c.tasksExecuted), "ratio");
    report.add("mem.pooled_bytes", median(log.pooledBytes), "bytes");
    report.add("mem.remote_frees", median(log.remoteFrees), "count");
    report.add("sched.parks", median(log.parks), "count");
    report.add("sched.spurious_wake_frac", frac(c.spuriousWakes, c.parks),
               "ratio");
    report.add("sched.parked_frac",
               ratio(static_cast<double>(c.parkedNs), idle), "ratio");
}

double
stuckFraction(const std::vector<double> &runtime_medians, double run_median)
{
    if (runtime_medians.empty())
        return 0;
    std::size_t stuck = 0;
    for (double m : runtime_medians)
        if (m >= 2.0 * run_median)
            ++stuck;
    return static_cast<double>(stuck)
           / static_cast<double>(runtime_medians.size());
}

// ---------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------

uint64_t
Trace::newId()
{
    return _nextId.fetch_add(1, std::memory_order_relaxed);
}

Trace::Buffer &
Trace::buffer()
{
    // One buffer per (thread, trace); a process holds one Trace.
    thread_local Buffer *mine = nullptr;
    thread_local const Trace *owner = nullptr;
    if (mine == nullptr || owner != this) {
        std::lock_guard<std::mutex> g(_mutex);
        _buffers.push_back(std::make_unique<Buffer>());
        mine = _buffers.back().get();
        mine->tid = static_cast<uint32_t>(_buffers.size());
        owner = this;
    }
    return *mine;
}

void
Trace::record(Record &&r)
{
    buffer().records.push_back(std::move(r));
}

std::vector<const Trace::Record *>
Trace::all() const
{
    std::lock_guard<std::mutex> g(_mutex);
    std::vector<const Record *> out;
    for (const auto &b : _buffers)
        for (const Record &r : b->records)
            out.push_back(&r);
    return out;
}

std::vector<std::pair<std::string, double>>
Trace::selfSeconds() const
{
    std::vector<const Record *> recs = all();
    // Children grouped under their parent id.
    std::sort(recs.begin(), recs.end(),
              [](const Record *a, const Record *b) {
                  return a->parent != b->parent ? a->parent < b->parent
                                                : a->t0 < b->t0;
              });
    std::vector<std::pair<std::string, double>> out;
    auto add = [&](const char *layer, double s) {
        for (auto &kv : out)
            if (kv.first == layer) {
                kv.second += s;
                return;
            }
        out.emplace_back(layer, s);
    };
    for (const Record *r : recs) {
        // Union of the children's intervals, clipped to this span.
        auto first = std::lower_bound(
            recs.begin(), recs.end(), r->id,
            [](const Record *x, uint64_t id) { return x->parent < id; });
        int64_t covered = 0;
        int64_t reach = r->t0;
        for (auto it = first; it != recs.end() && (*it)->parent == r->id;
             ++it) {
            const int64_t s = std::max((*it)->t0, reach);
            const int64_t e = std::min((*it)->t1, r->t1);
            if (e > s) {
                covered += e - s;
                reach = e;
            }
        }
        add(r->layer, static_cast<double>(r->t1 - r->t0 - covered) * 1e-9);
    }
    return out;
}

bool
Trace::write(const std::string &path, const std::string &other_json) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> g(_mutex);
    int64_t base = INT64_MAX;
    for (const auto &b : _buffers)
        for (const Record &r : b->records)
            base = std::min(base, r.t0);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto &b : _buffers) {
        for (const Record &r : b->records) {
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"id\":%llu,\"parent\":%llu,\"group\":%llu%s}}",
                first ? "" : ",", r.name, r.layer, b->tid,
                static_cast<double>(r.t0 - base) * 1e-3,
                static_cast<double>(r.t1 - r.t0) * 1e-3,
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.parent),
                static_cast<unsigned long long>(r.group), r.args.c_str());
            first = false;
        }
    }
    std::fprintf(f, "\n],\"otherData\":%s}\n", other_json.c_str());
    return std::fclose(f) == 0;
}

Span::Span(Trace &trace, const char *name, const char *layer,
           uint64_t parent, uint64_t group)
    : _trace(trace), _name(name), _layer(layer), _parent(parent),
      _group(group)
{
    if (_trace.on()) {
        _id = _trace.newId();
        _t0 = nowNs();
    }
}

Span::~Span()
{
    if (_trace.on())
        _trace.record({_name, _layer, _t0, nowNs(), _id, _parent, _group,
                       std::move(_args)});
}

void
Span::arg(const char *key, double value)
{
    if (_trace.on())
        _args += std::string(",\"") + key + "\":" + num(value);
}

void
Span::stats(const RuntimeStats &d)
{
    if (!_trace.on())
        return;
    const WorkerCounters &c = d.counters;
    arg("spawns", static_cast<double>(c.spawns));
    arg("steals", static_cast<double>(c.steals));
    arg("steal_attempts", static_cast<double>(c.stealAttempts));
    arg("mailbox_takes", static_cast<double>(c.mailboxTakes));
    arg("pushback_attempts", static_cast<double>(c.pushbackAttempts));
    arg("pushback_successes", static_cast<double>(c.pushbackSuccesses));
    arg("parks", static_cast<double>(c.parks));
    arg("work_ns", static_cast<double>(d.time.ns(TimeSplit::Work)));
    arg("sched_ns", static_cast<double>(d.time.ns(TimeSplit::Scheduling)));
    arg("idle_ns", static_cast<double>(d.time.ns(TimeSplit::Idle)));
}

// ---------------------------------------------------------------------
// Stream bandwidth
// ---------------------------------------------------------------------

double
streamGBs(uint64_t total_bytes, int threads, Trace &trace, uint64_t parent)
{
    Span span(trace, "stream", "mem", parent);
    const std::size_t n = std::max<uint64_t>(total_bytes / 2 / 8, 1024);
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    threads = std::max(1, threads);
    auto parallel = [&](auto &&body) {
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) {
            const std::size_t lo = n * static_cast<std::size_t>(t) / threads;
            const std::size_t hi =
                n * static_cast<std::size_t>(t + 1) / threads;
            ts.emplace_back([&body, lo, hi] { body(lo, hi); });
        }
        for (std::thread &t : ts)
            t.join();
    };
    // First touch by the copying threads, then timed copy passes.
    parallel([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = static_cast<double>(i);
            b[i] = 0;
        }
    });
    std::vector<double> rates;
    for (int pass = 0; pass < 5; ++pass) {
        double *src = pass % 2 == 0 ? a.get() : b.get();
        double *dst = pass % 2 == 0 ? b.get() : a.get();
        const int64_t t0 = nowNs();
        parallel([&](std::size_t lo, std::size_t hi) {
            std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(double));
        });
        const double s = static_cast<double>(nowNs() - t0) * 1e-9;
        rates.push_back(2.0 * static_cast<double>(n) * 8.0 / s * 1e-9);
    }
    // The copies must be observable or they could be elided.
    if (a[n / 2] != static_cast<double>(n / 2))
        std::fprintf(stderr, "stream: copy check failed\n");
    return median(rates);
}

} // namespace perfbench
