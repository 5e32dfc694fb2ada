#ifndef LUSAIL_COMMON_DEADLINE_TIMER_H_
#define LUSAIL_COMMON_DEADLINE_TIMER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"

namespace lusail {

/// One background thread that runs callbacks at their due times, kept in
/// a min-heap of deadlines. fed::Federation uses it to complete simulated
/// network waits, so thousands of pending responses cost one sleeping
/// thread instead of one each.
///
/// Each entry carries a CancelToken: the entry also fires at the token's
/// deadline, and — while any pending entry's token can be cancelled
/// explicitly — the thread re-checks the flags every kCancelPollMillis.
/// An entry that fires before its due time runs with `early = true`.
///
/// The thread starts on the first Schedule. Callbacks run on it one at a
/// time, must be short (hand real work to a pool) and must not throw.
/// Destruction lets every pending entry fire at its time, then joins.
class DeadlineTimer {
 public:
  using Clock = std::chrono::steady_clock;
  using Callback = std::function<void(bool early)>;

  /// How often pending explicit-cancel flags are re-checked.
  static constexpr double kCancelPollMillis = 2.0;

  DeadlineTimer() = default;
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Runs `fn(false)` `delay_ms` from now, or `fn(true)` as soon as
  /// `cancel` fires if that is earlier.
  void Schedule(double delay_ms, const CancelToken& cancel, Callback fn);

 private:
  struct Entry {
    Clock::time_point due;
    Clock::time_point fire_at;  ///< min(due, the token's deadline).
    uint64_t seq;               ///< FIFO among equal fire_at.
    CancelToken cancel;
    Callback fn;
  };

  /// Heap order: the earliest fire_at on top.
  static bool Later(const Entry& a, const Entry& b) {
    return a.fire_at != b.fire_at ? a.fire_at > b.fire_at : a.seq > b.seq;
  }

  void Run();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
  size_t cancellable_ = 0;  ///< Pending entries with an explicit flag.
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace lusail

#endif  // LUSAIL_COMMON_DEADLINE_TIMER_H_
