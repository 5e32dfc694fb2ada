#ifndef LUSAIL_COMMON_CANCEL_H_
#define LUSAIL_COMMON_CANCEL_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/stopwatch.h"

namespace lusail {

/// Cooperative cancellation handle for one query evaluation: an optional
/// shared atomic flag plus a wall-clock deadline. Both fire the same way
/// — Cancelled() turns true and every evaluation loop that checks it
/// unwinds with kTimeout — so deadline expiry and explicit cancellation
/// (client disconnect, QueryService::Cancel, server shutdown) share one
/// code path and one retryable status.
///
/// Tokens are cheap value types. The default-constructed token is inert
/// (never fires, no allocation); a deadline-only token costs nothing
/// either, so the hot path of deadline-less queries stays allocation-free.
/// Only Cancellable() allocates the shared flag that lets another thread
/// cancel a running evaluation.
///
/// Granularity contract: evaluation code checks Cancelled() at *chunk*
/// boundaries (per endpoint fetch, per VALUES block, per join partition,
/// every few thousand join cells), so a multi-second evaluation aborts
/// within milliseconds of the flag being set without per-row clock reads.
class CancelToken {
 public:
  /// Inert token: never cancelled, infinite deadline.
  CancelToken() = default;

  /// Deadline-only token (no shared flag; Cancel() is a no-op). This is
  /// what a plain Execute(text, deadline) call wraps its deadline in.
  explicit CancelToken(const Deadline& deadline) : deadline_(deadline) {}

  /// A token another thread can fire via Cancel(), with an optional
  /// deadline on top. The one allocation happens here.
  static CancelToken Cancellable(const Deadline& deadline = Deadline()) {
    CancelToken token(deadline);
    token.state_ = std::make_shared<State>();
    return token;
  }

  /// Requests cancellation. Safe from any thread; a no-op on tokens
  /// without a shared flag.
  void Cancel() {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_release);
    }
  }

  /// True when Cancel() was called (does not consider the deadline).
  bool CancelRequested() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_acquire);
  }

  /// True when evaluation must stop: explicit cancel or expired deadline.
  bool Cancelled() const {
    return CancelRequested() || deadline_.Expired();
  }

  /// The kTimeout status evaluation unwinds with, naming the cancellation
  /// point and distinguishing explicit cancellation from deadline expiry
  /// (both stay kTimeout so HTTP 504 mapping and retry classification are
  /// identical).
  Status StatusAt(const char* where) const {
    if (CancelRequested()) {
      return Status::Timeout(std::string("query cancelled during ") + where);
    }
    return Status::Timeout(std::string("deadline expired during ") + where);
  }

  /// The deadline endpoint requests and backoff sleeps are bounded by.
  const Deadline& deadline() const { return deadline_; }

  /// This token with its deadline tightened to at most `millis` from now;
  /// the cancel flag stays shared. Transports use it to bound a request
  /// whose caller set no deadline (or a very distant one).
  CancelToken CappedAt(double millis) const {
    if (deadline_.RemainingMillis() <= millis) return *this;
    CancelToken capped = *this;
    capped.deadline_ = Deadline::AfterMillis(millis);
    return capped;
  }

  /// True when some other thread could fire this token (a shared flag
  /// exists); deadline-only tokens return false.
  bool can_cancel() const { return state_ != nullptr; }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
  };

  std::shared_ptr<State> state_;
  Deadline deadline_;
};

}  // namespace lusail

#endif  // LUSAIL_COMMON_CANCEL_H_
