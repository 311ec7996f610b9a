#ifndef AUTOCE_UTIL_PARALLEL_H_
#define AUTOCE_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autoce::util {

/// \brief Fixed-size worker pool behind the deterministic parallel
/// primitives below.
///
/// Determinism contract (see DESIGN.md "Parallelism & determinism"): the
/// decomposition of a loop into tasks depends only on (range, grain) —
/// never on the thread count — and every task writes results into slots
/// addressed by its own index. Scheduling therefore only changes *when*
/// a task runs, not *what* it computes or where the result lands, so any
/// thread count (including the forced-sequential count of 1) produces
/// bit-identical results. Tasks that need randomness must derive their
/// own `autoce::Rng` from `seed ^ task_index` rather than sharing a
/// generator.
///
/// Tasks must not throw: the substrate uses Status/AUTOCE_CHECK, and an
/// exception escaping a worker would terminate the process.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the caller of ParallelFor is always
  /// the remaining participant. `threads <= 1` means no workers, i.e.
  /// every ParallelFor runs inline on the calling thread.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invokes `fn(i)` exactly once for every i in [begin, end), claiming
  /// contiguous chunks of `grain` indices per task. Blocks until every
  /// index has been processed. Nested calls (from inside an `fn`) run
  /// sequentially on the calling thread, whichever thread that is.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Parallelism requested by the environment: `AUTOCE_THREADS` when set
/// (clamped to >= 1; 1 forces the sequential path), otherwise
/// `std::thread::hardware_concurrency()`.
int DefaultParallelism();

/// Thread count of the process-wide pool used by the free functions.
int GlobalParallelism();

/// Replaces the process-wide pool with one of `threads` threads. For
/// tests and benches that sweep thread counts in one process; must not
/// race an in-flight ParallelFor.
void SetGlobalParallelism(int threads);

/// ParallelFor on the process-wide pool (sized from AUTOCE_THREADS at
/// first use).
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn);

/// Maps `fn` over [begin, end) into an index-ordered vector. Result
/// ordering (and hence any later reduction over it) is independent of
/// the thread count.
template <typename Fn>
auto ParallelMap(size_t begin, size_t end, size_t grain, Fn&& fn)
    -> std::vector<decltype(fn(begin))> {
  std::vector<decltype(fn(begin))> out(end > begin ? end - begin : 0);
  ParallelFor(begin, end, grain,
              [&](size_t i) { out[i - begin] = fn(i); });
  return out;
}

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_PARALLEL_H_
