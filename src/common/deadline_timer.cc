#include "common/deadline_timer.h"

#include <algorithm>
#include <iterator>

namespace lusail {

namespace {

DeadlineTimer::Clock::duration Millis(double ms) {
  return std::chrono::duration_cast<DeadlineTimer::Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

DeadlineTimer::~DeadlineTimer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DeadlineTimer::Schedule(double delay_ms, const CancelToken& cancel,
                             Callback fn) {
  const Clock::time_point now = Clock::now();
  const Clock::time_point due = now + Millis(delay_ms);
  const Clock::time_point fire_at =
      now + Millis(std::min(delay_ms, cancel.deadline().RemainingMillis()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) thread_ = std::thread([this] { Run(); });
    if (cancel.can_cancel()) ++cancellable_;
    heap_.push_back(Entry{due, fire_at, next_seq_++, cancel, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  cv_.notify_one();
}

void DeadlineTimer::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Entry> ready;
  while (true) {
    if (heap_.empty()) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    const Clock::time_point now = Clock::now();
    while (!heap_.empty() && heap_.front().fire_at <= now) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      ready.push_back(std::move(heap_.back()));
      heap_.pop_back();
    }
    if (cancellable_ > 0) {
      auto fired = std::partition(
          heap_.begin(), heap_.end(),
          [](const Entry& e) { return !e.cancel.CancelRequested(); });
      if (fired != heap_.end()) {
        std::move(fired, heap_.end(), std::back_inserter(ready));
        heap_.erase(fired, heap_.end());
        std::make_heap(heap_.begin(), heap_.end(), Later);
      }
    }
    if (!ready.empty()) {
      for (const Entry& e : ready) {
        if (e.cancel.can_cancel()) --cancellable_;
      }
      lock.unlock();
      for (Entry& e : ready) e.fn(now < e.due);
      ready.clear();
      lock.lock();
      continue;
    }
    Clock::time_point wake = heap_.front().fire_at;
    if (cancellable_ > 0) {
      wake = std::min(wake, now + Millis(kCancelPollMillis));
    }
    cv_.wait_until(lock, wake);
  }
}

}  // namespace lusail
