#ifndef LUSAIL_COMMON_THREAD_POOL_H_
#define LUSAIL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace lusail {

/// Elastic worker pool. With fed::Federation::Issue it forms the paper's
/// Elastic Request Handler (ERH): Lusail, the baselines, and the SAPE
/// join phase run the CPU part of their endpoint requests (and their
/// local join partitions) on it, while simulated network waits complete
/// on the federation's timer thread instead of holding a worker.
///
/// `num_threads` counts the workers on CPU, not the threads. A worker
/// about to wait on the wire (an HTTP response, a retry backoff) scopes
/// the wait in a ThreadPool::Blocking, which lends its CPU slot: the pool
/// wakes an idle worker for a queued task, or starts a spare thread when
/// none is idle. Spares start only for queued work, at most
/// kSparesPerWorker per worker, and stay parked for reuse. A worker takes
/// a task only while fewer than `num_threads` workers are on CPU, so
/// once a waiter returns, the next workers to finish a task park until
/// the pool is back at `num_threads`. A one-thread engine thus keeps two
/// of a query's HTTP requests in flight at once (toward Algorithm 3's
/// "one thread per endpoint") while its CPU work stays on one core.
///
/// Tasks are arbitrary callables; Submit returns a std::future for the
/// callable's result. The pool drains remaining tasks on destruction.
class ThreadPool {
 public:
  /// Spare threads a pool may start per CPU slot. One, not two: on
  /// perfbench's service-http (one engine thread) a second spare read
  /// more throughput, but +6-7% peak RSS, most of it the memory the
  /// extra thread's malloc arena keeps; one spare read about +1%.
  static constexpr size_t kSparesPerWorker = 1;

  /// Creates a pool with `num_threads` CPU slots, each with its worker
  /// started; 0 means max(8, std::thread::hardware_concurrency()).
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Scopes a wait that needs no CPU. On a pool worker it lends the
  /// worker's CPU slot to queued tasks until the scope ends; anywhere
  /// else (and nested in another Blocking) it does nothing.
  class Blocking {
   public:
    Blocking();
    ~Blocking();
    Blocking(const Blocking&) = delete;
    Blocking& operator=(const Blocking&) = delete;

   private:
    ThreadPool* pool_ = nullptr;
  };

  /// Enqueues `fn(args...)` and returns a future for its result.
  template <typename Fn, typename... Args>
  auto Submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using R = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::bind(std::forward<Fn>(fn), std::forward<Args>(args)...));
    std::future<R> result = task->get_future();
    // Dispatch under the lock: once it is released a worker may run the
    // task, and the task's completion may let its waiter destroy the
    // pool, so nothing of the pool is touched after the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.emplace_back([task] { (*task)(); });
    DispatchLocked();
    return result;
  }

  /// Number of CPU slots (workers on CPU at most, outside Blocking).
  size_t num_threads() const { return target_; }

  /// Spare threads started so far (read-only; for tests and reports).
  size_t spares_started() const;

 private:
  void WorkerLoop();
  /// Grants wakeups to idle workers, or starts spares, until every
  /// queued task that a free CPU slot could run has a worker coming.
  void DispatchLocked();
  void StartWorkerLocked();

  const size_t target_;
  const size_t max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;  ///< Not yet joined.
  size_t started_ = 0;    ///< Threads ever started.
  size_t on_cpu_ = 0;     ///< Workers running a task outside Blocking.
  size_t idle_ = 0;       ///< Workers not running a task.
  size_t wakeups_ = 0;    ///< Wakeups granted and not yet taken.
  bool shutdown_ = false;
};

/// A future that already holds `value` (a cache hit standing in for a
/// pool task).
template <typename T>
std::future<T> ReadyFuture(T value) {
  std::promise<T> promise;
  promise.set_value(std::move(value));
  return promise.get_future();
}

}  // namespace lusail

#endif  // LUSAIL_COMMON_THREAD_POOL_H_
