/**
 * @file
 * Layer probes: each times one public operation of one layer on a
 * standalone instance (or a small runtime), in batches, with the probes
 * interleaved round by round so host drift lands on all of them alike.
 * Every row reports the median batch; the results file also keeps the
 * quartiles.
 */
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "deque/mailbox.h"
#include "deque/ws_deque.h"
#include "mem/numa_arena.h"
#include "mem/numa_heap.h"
#include "mem/page_map.h"
#include "runtime/job_queue.h"
#include "runtime/task_pool.h"
#include "sched/occupancy.h"
#include "sched/parking.h"
#include "support/timing.h"

namespace perfbench {

namespace {

using numaws::JobHandle;
using numaws::JobQueue;
using numaws::JobState;
using numaws::Mailbox;
using numaws::nowNs;
using numaws::NumaArena;
using numaws::NumaHeap;
using numaws::OccupancyBoard;
using numaws::PageMap;
using numaws::ParkingLot;
using numaws::Runtime;
using numaws::RuntimeOptions;
using numaws::TaskFramePool;
using numaws::TaskGroup;
using numaws::WsDeque;

constexpr int kRounds = 31;
constexpr int kBatch = 4096;
constexpr int kJobsPerRound = 8;

/** A second thread that runs one posted function at a time: the other
 * side of the cross-thread probes. */
class Helper
{
  public:
    Helper() : _thread([this] { loop(); }) {}
    ~Helper()
    {
        {
            std::lock_guard<std::mutex> g(_m);
            _stop = true;
        }
        _cv.notify_all();
        _thread.join();
    }
    Helper(const Helper &) = delete;
    Helper &operator=(const Helper &) = delete;

    void
    post(std::function<void()> fn)
    {
        {
            std::lock_guard<std::mutex> g(_m);
            _fn = std::move(fn);
            _busy = true;
        }
        _cv.notify_all();
    }
    void
    wait()
    {
        std::unique_lock<std::mutex> lk(_m);
        _cv.wait(lk, [this] { return !_busy; });
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(_m);
        for (;;) {
            _cv.wait(lk, [this] { return _stop || _busy; });
            if (_stop)
                return;
            std::function<void()> fn = std::move(_fn);
            lk.unlock();
            fn();
            lk.lock();
            _busy = false;
            _cv.notify_all();
        }
    }

    std::mutex _m;
    std::condition_variable _cv;
    std::function<void()> _fn;
    bool _busy = false;
    bool _stop = false;
    std::thread _thread; // last: started after the state it uses
};

struct Probe
{
    const char *name;
    const char *layer;
    const char *unit;
    /** One batch; returns the per-operation cost in @p unit. */
    std::function<double()> batch;
    std::vector<double> samples;
};

double
perOpNs(int64_t t0, int64_t t1, int ops)
{
    return static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

} // namespace

void
runProbes(const Config &cfg, const Host &host, Trace &trace, Report &report,
          bool job_rows)
{
    Span root(trace, "probes", "bench");
    // Tiny --scale runs (the smoke test) shrink the batches too.
    const int batch = std::max(
        64, static_cast<int>(kBatch * std::min(1.0, cfg.scale * 10)));
    Helper helper;
    int payload = 0;
    int *const item = &payload;
    volatile uintptr_t sink = 0;

    WsDeque<int> deque(static_cast<std::size_t>(batch) * 2);
    Mailbox<int> mailbox(1);
    OccupancyBoard board(2, {0, 0});
    TaskFramePool frames(0, true);
    PageMap page_map(1);
    NumaArena arena(page_map);
    NumaHeap heap(0, 0, &arena);
    JobQueue queue;
    auto job_state = std::make_shared<JobState>();
    auto noop = [] {};
    numaws::TaskImpl<decltype(noop)> job_root(nullptr, numaws::kAnyPlace,
                                              std::move(noop));
    ParkingLot lot(1);

    RuntimeOptions one;
    one.numWorkers = 1;
    one.numPlaces = 1;
    one.seed = cfg.seed;
    Runtime rt1(one);
    RuntimeOptions pool = one;
    pool.numWorkers = host.cpus;
    pool.numPlaces = host.cpus >= 2 ? 2 : 1;
    Runtime rtp(pool);
    std::vector<double> submit_us, queue_us, exec_us;

    std::vector<void *> blocks(static_cast<std::size_t>(batch));
    std::vector<Probe> probes;
    probes.push_back({"deque.push_pop_ns", "deque", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              deque.pushTail(item);
                              sink = sink + reinterpret_cast<uintptr_t>(
                                  deque.popTail());
                          }
                          return perOpNs(t0, nowNs(), batch);
                      }, {}});
    probes.push_back({"deque.steal_ns", "deque", "ns", [&] {
                          for (int i = 0; i < batch; ++i)
                              deque.pushTail(item);
                          double ns = 0;
                          helper.post([&] {
                              const int64_t t0 = nowNs();
                              for (int i = 0; i < batch; ++i)
                                  sink = sink + reinterpret_cast<uintptr_t>(
                                      deque.stealHead());
                              ns = perOpNs(t0, nowNs(), batch);
                          });
                          helper.wait();
                          return ns;
                      }, {}});
    probes.push_back({"deque.mailbox_ns", "deque", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              mailbox.tryPut(item);
                              sink = sink + reinterpret_cast<uintptr_t>(
                                  mailbox.tryTake());
                          }
                          return perOpNs(t0, nowNs(), batch);
                      }, {}});
    probes.push_back({"sched.board_publish_ns", "sched", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              sink = sink + board.publishDeque(0, true);
                              sink = sink + board.publishDeque(0, false);
                          }
                          return perOpNs(t0, nowNs(), 2 * batch);
                      }, {}});
    probes.push_back({"runtime.frame_alloc_ns", "runtime", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              void *p = frames.allocate(96);
                              frames.freeLocal(TaskFramePool::headerOf(p));
                          }
                          return perOpNs(t0, nowNs(), batch);
                      }, {}});
    probes.push_back({"runtime.frame_remote_free_ns", "runtime", "ns", [&] {
                          for (void *&b : blocks)
                              b = frames.allocate(96);
                          int64_t remote = 0;
                          helper.post([&] {
                              const int64_t t0 = nowNs();
                              for (void *b : blocks)
                                  frames.freeRemote(
                                      TaskFramePool::headerOf(b));
                              remote = nowNs() - t0;
                          });
                          helper.wait();
                          const int64_t t0 = nowNs();
                          frames.drainRemote();
                          return perOpNs(0, remote + nowNs() - t0, batch);
                      }, {}});
    probes.push_back({"mem.heap_alloc_ns", "mem", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              void *p = heap.allocate(256);
                              heap.freeLocal(NumaHeap::headerOf(p));
                          }
                          return perOpNs(t0, nowNs(), batch);
                      }, {}});
    probes.push_back({"mem.heap_remote_free_ns", "mem", "ns", [&] {
                          for (void *&b : blocks)
                              b = heap.allocate(256);
                          int64_t remote = 0;
                          helper.post([&] {
                              const int64_t t0 = nowNs();
                              for (void *b : blocks)
                                  heap.freeRemote(NumaHeap::headerOf(b));
                              remote = nowNs() - t0;
                          });
                          helper.wait();
                          const int64_t t0 = nowNs();
                          heap.drainRemote();
                          return perOpNs(0, remote + nowNs() - t0, batch);
                      }, {}});
    probes.push_back({"runtime.jobq_push_pop_ns", "runtime", "ns", [&] {
                          const int64_t t0 = nowNs();
                          for (int i = 0; i < batch; ++i) {
                              queue.push(&job_root, job_state);
                              sink = sink + reinterpret_cast<uintptr_t>(
                                  queue.tryPop().root);
                          }
                          return perOpNs(t0, nowNs(), batch);
                      }, {}});
    probes.push_back({"sched.park_wake_us", "sched", "us", [&] {
                          int64_t woke = 0;
                          helper.post([&] {
                              lot.park(0, std::chrono::milliseconds(100));
                              woke = nowNs();
                          });
                          while (lot.waiters(0) == 0)
                              std::this_thread::yield();
                          const int64_t t0 = nowNs();
                          lot.wake(0);
                          helper.wait();
                          return static_cast<double>(woke - t0) * 1e-3;
                      }, {}});
    probes.push_back({"runtime.spawn_sync_ns", "runtime", "ns", [&] {
                          double ns = 0;
                          rt1.run([&] {
                              const int64_t t0 = nowNs();
                              for (int i = 0; i < batch; ++i) {
                                  TaskGroup tg;
                                  tg.spawn([] {});
                                  tg.sync();
                              }
                              ns = perOpNs(t0, nowNs(), batch);
                          });
                          return ns;
                      }, {}});
    probes.push_back({"runtime.submit_wait_us", "runtime", "us", [&] {
                          std::vector<double> lat;
                          for (int k = 0; k < kJobsPerRound; ++k) {
                              // Let the pool go idle (and park) first.
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                              const int64_t t0 = nowNs();
                              JobHandle h = rtp.submit([] {});
                              const int64_t t1 = nowNs();
                              h.wait();
                              const int64_t t2 = nowNs();
                              lat.push_back(static_cast<double>(t2 - t0)
                                            * 1e-3);
                              submit_us.push_back(
                                  static_cast<double>(t1 - t0) * 1e-3);
                              queue_us.push_back(
                                  static_cast<double>(h.queueNs()) * 1e-3);
                              exec_us.push_back(
                                  static_cast<double>(h.execNs()) * 1e-3);
                          }
                          return median(lat);
                      }, {}});

    for (int r = 0; r < kRounds; ++r) {
        for (Probe &p : probes) {
            Span s(trace, p.name, p.layer, root.id());
            const double v = p.batch();
            s.arg("value", v);
            p.samples.push_back(v);
        }
    }
    if (sink == 1)
        std::fprintf(stderr, "probe sink\n");

    for (const Probe &p : probes) {
        report.add(p.name, median(p.samples), p.unit);
        report.detail(std::string("probe.") + p.name,
                      summaryJson(p.samples));
    }
    if (job_rows) {
        // Fork-join workloads submit one job per rep from inside the
        // workload functions, which keep the handle; their front-door
        // rows come from the idle-pool probe jobs.
        report.add("runtime.submit_us", median(submit_us), "us");
        report.add("runtime.queue_p50_us", median(queue_us), "us");
        report.add("runtime.queue_p99_us", tailOf(queue_us, 0.99).value,
                   "us");
        report.add("runtime.exec_p50_us", median(exec_us), "us");
    }
}

} // namespace perfbench
