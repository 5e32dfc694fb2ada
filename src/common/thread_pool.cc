#include "common/thread_pool.h"

#include <algorithm>

namespace lusail {

namespace {

/// The pool whose worker this thread is; null off every pool.
thread_local ThreadPool* tls_pool = nullptr;
/// True while this worker's slot is lent by a Blocking scope.
thread_local bool tls_lent = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : target_(num_threads == 0
                  ? std::max<size_t>(8, std::thread::hardware_concurrency())
                  : num_threads),
      max_threads_(target_ * (1 + kSparesPerWorker)) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.reserve(target_);
  for (size_t i = 0; i < target_; ++i) StartWorkerLocked();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
  }
  // A worker still draining the queue may start a spare, so join until
  // no thread is left.
  for (;;) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.swap(threads_);
    }
    if (threads.empty()) return;
    for (std::thread& thread : threads) thread.join();
  }
}

size_t ThreadPool::spares_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ - target_;
}

void ThreadPool::StartWorkerLocked() {
  ++started_;
  ++idle_;
  threads_.emplace_back([this] { WorkerLoop(); });
}

void ThreadPool::DispatchLocked() {
  const size_t free_slots = target_ > on_cpu_ ? target_ - on_cpu_ : 0;
  const size_t runnable = std::min(tasks_.size(), free_slots);
  while (wakeups_ < runnable) {
    if (wakeups_ >= idle_) {
      if (started_ >= max_threads_) return;
      StartWorkerLocked();
    }
    ++wakeups_;
    cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return wakeups_ > 0 || (shutdown_ && tasks_.empty());
    });
    if (wakeups_ > 0) --wakeups_;
    while (!tasks_.empty() && on_cpu_ < target_) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      --idle_;
      ++on_cpu_;
      DispatchLocked();
      lock.unlock();
      task();
      task = nullptr;  // Destroy the captures outside the lock, too.
      lock.lock();
      --on_cpu_;
      ++idle_;
    }
    if (shutdown_ && tasks_.empty()) {
      cv_.notify_all();
      return;
    }
  }
}

ThreadPool::Blocking::Blocking() {
  if (tls_pool == nullptr || tls_lent) return;
  pool_ = tls_pool;
  tls_lent = true;
  std::lock_guard<std::mutex> lock(pool_->mu_);
  --pool_->on_cpu_;
  pool_->DispatchLocked();
}

ThreadPool::Blocking::~Blocking() {
  if (pool_ == nullptr) return;
  tls_lent = false;
  std::lock_guard<std::mutex> lock(pool_->mu_);
  ++pool_->on_cpu_;
}

}  // namespace lusail
