#include "dip/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace lrdip {
namespace {

std::atomic<int> g_forced_threads{0};

// Read once: every parallel region asks, and neither source changes while
// the process runs.
int default_threads() {
  static const int threads = [] {
    if (const char* env = std::getenv("LRDIP_THREADS")) {
      const int v = std::atoi(env);
      if (v >= 1 && v <= 1024) return v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return threads;
}

// Each participant claims chunk indices from a shared counter; chunk k is
// [k * grain, ...) for uniform jobs, [bounds[k], bounds[k + 1]) for weighted
// ones. Which thread runs which chunk varies run to run; the determinism
// contract (disjoint writes) makes that unobservable, and the chunk map
// itself never depends on the thread count.
struct Job {
  const detail::RangeBody* body = nullptr;
  std::int64_t n = 0;
  std::int64_t grain = 1;
  std::int64_t chunks = 0;
  const std::int64_t* bounds = nullptr;  // chunks + 1 entries when weighted
  std::atomic<std::int64_t> next{0};
  std::atomic<int> tokens{0};  // workers allowed to steal chunks (thread cap)
  std::atomic<int> active{0};  // workers that still owe a response
  // Observability (src/obs/metrics.hpp): when metering is on, each
  // participant records its busy time into a claimed slot. Slot 0 is always
  // the calling thread (it claims before dispatch); null when metering is off.
  std::vector<std::int64_t>* busy_ns = nullptr;
  std::atomic<int> busy_slot{0};
  // First-failing-chunk exception (lowest chunk index wins, so even failure
  // is independent of the thread count).
  std::mutex error_mu;
  std::int64_t error_chunk = -1;
  std::exception_ptr error;

  void run_chunks() {
    const bool timed = busy_ns != nullptr;
    const std::int64_t t0 = timed ? obs::now_ns() : 0;
    while (true) {
      const std::int64_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      const std::int64_t begin = bounds != nullptr ? bounds[chunk] : chunk * grain;
      const std::int64_t end =
          bounds != nullptr ? bounds[chunk + 1] : (begin + grain < n ? begin + grain : n);
      try {
        (*body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (error_chunk == -1 || chunk < error_chunk) {
          error_chunk = chunk;
          error = std::current_exception();
        }
      }
    }
    if (timed) {
      const int s = busy_slot.fetch_add(1, std::memory_order_relaxed);
      if (s < static_cast<int>(busy_ns->size())) (*busy_ns)[s] = obs::now_ns() - t0;
    }
  }
};

// True while this thread is executing the body of a parallel region — on the
// calling thread for the duration of the region, and on a pool worker while
// it runs chunks. Nested parallel_for calls check it and run inline without
// entering Pool::run, so they neither take the pool lock nor meter a region
// of their own.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_parallel_region) { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = prev; }
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Runs `job` on the caller plus `helpers` workers and returns true. The
  /// pool has one job slot: a caller that finds another thread's job in it
  /// returns false at once and must run its chunks alone, as a nested region
  /// does. Publishing over the live job would strand its late workers.
  bool run(Job& job, int helpers) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (job_ != nullptr) return false;
      while (static_cast<int>(workers_.size()) < helpers) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      // Every live worker wakes and must respond; only `helpers` of them get
      // a chunk-stealing token, so the thread cap is respected even when the
      // pool is larger than this job wants.
      job.tokens.store(helpers, std::memory_order_relaxed);
      job.active.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    job.run_chunks();  // the caller is a full participant
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&] { return job.active.load(std::memory_order_acquire) == 0; });
    job_ = nullptr;
    return true;
  }

 private:
  Pool() = default;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      ++generation_;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      if (job == nullptr) continue;
      if (job->tokens.fetch_sub(1, std::memory_order_acq_rel) > 0) {
        RegionGuard region;  // nested regions inside the body stay inline
        job->run_chunks();
      }
      const bool last = job->active.fetch_sub(1, std::memory_order_acq_rel) == 1;
      if (last) {
        std::lock_guard<std::mutex> lk(mu_);
        done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_, done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

int parallel_threads() {
  const int forced = g_forced_threads.load(std::memory_order_relaxed);
  return forced > 0 ? forced : default_threads();
}

void set_parallel_threads(int threads) {
  g_forced_threads.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

namespace {

/// Shared tail of the two entry points: job.n/grain/chunks/bounds are set,
/// chunks >= 2, and the caller wants real parallelism.
void dispatch_job(Job& job, int threads, const detail::RangeBody& body) {
  job.body = &body;
  const int helpers = static_cast<int>(std::min<std::int64_t>(threads - 1, job.chunks - 1));
  const bool timed = obs::metrics_enabled();
  std::vector<std::int64_t> busy;
  if (timed) {
    busy.assign(static_cast<std::size_t>(helpers) + 1, 0);
    job.busy_ns = &busy;
  }
  const std::int64_t t0 = timed ? obs::now_ns() : 0;
  bool pooled = false;
  {
    RegionGuard region;
    pooled = Pool::instance().run(job, helpers);
    if (!pooled) job.run_chunks();
  }
  if (timed) {
    // A region its caller ran alone is metered as a one-thread region.
    if (!pooled) busy.resize(1);
    obs::MetricsRegistry::instance().record_parallel(obs::now_ns() - t0, busy, job.n);
  }
  if (job.error) std::rethrow_exception(job.error);
}

/// Inline fallbacks shared by both entry points. Returns true when the loop
/// already ran (nested region, single thread, or a single chunk).
bool ran_inline(std::int64_t n, std::int64_t chunks, int threads, const detail::RangeBody& body) {
  // Nested regions run inline on their worker; their time is already inside
  // the outer region's busy slots, so they are never metered separately.
  if (tl_in_parallel_region) {
    body(0, n);
    return true;
  }
  // Inline when the loop is too small to split or a single thread is
  // requested; metering sees a one-thread region (busy == wall).
  if (threads <= 1 || chunks <= 1) {
    if (!obs::metrics_enabled()) {
      body(0, n);
      return true;
    }
    const std::int64_t t0 = obs::now_ns();
    body(0, n);
    const std::int64_t busy[1] = {obs::now_ns() - t0};
    obs::MetricsRegistry::instance().record_parallel(busy[0], busy, n);
    return true;
  }
  return false;
}

}  // namespace

namespace detail {

void parallel_for_ranges(std::int64_t n, std::int64_t grain, const RangeBody& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int threads = parallel_threads();
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (ran_inline(n, chunks, threads, body)) return;
  Job job;
  job.n = n;
  job.grain = grain;
  job.chunks = chunks;
  dispatch_job(job, threads, body);
}

void parallel_for_chunks(std::int64_t n, std::span<const std::int64_t> bounds,
                         const RangeBody& body) {
  if (n <= 0) return;
  const std::int64_t chunks = static_cast<std::int64_t>(bounds.size()) - 1;
  const int threads = parallel_threads();
  if (ran_inline(n, chunks, threads, body)) return;
  Job job;
  job.n = n;
  job.chunks = chunks;
  job.bounds = bounds.data();
  dispatch_job(job, threads, body);
}

}  // namespace detail
}  // namespace lrdip
