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

/// Fixed-size worker pool. With fed::Federation::Issue it forms the
/// paper's Elastic Request Handler (ERH): Lusail, the baselines, and the
/// SAPE join phase run the CPU part of their endpoint requests (and their
/// local join partitions) on it, while simulated network waits complete
/// on the federation's timer thread instead of holding a worker.
///
/// Tasks are arbitrary callables; Submit returns a std::future for the
/// callable's result. The pool drains remaining tasks on destruction.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means
  /// max(8, std::thread::hardware_concurrency()). The floor of 8 is above
  /// the core count on small machines because an HTTP request still waits
  /// for its response on the pool thread that sent it.
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn(args...)` and returns a future for its result.
  template <typename Fn, typename... Args>
  auto Submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using R = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::bind(std::forward<Fn>(fn), std::forward<Args>(args)...));
    std::future<R> result = task->get_future();
    // Notify under the lock: once it is released a worker may run the
    // task, and the task's completion may let its waiter destroy the
    // pool, so nothing of the pool is touched after the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.emplace_back([task] { (*task)(); });
    cv_.notify_one();
    return result;
  }

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
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
