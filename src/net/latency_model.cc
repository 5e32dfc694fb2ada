#include "net/latency_model.h"

#include <chrono>
#include <thread>

namespace lusail::net {

namespace {

thread_local DeferredWait* g_current_wait = nullptr;

}  // namespace

void LatencyModel::Impose(size_t request_bytes, size_t response_bytes) const {
  if (sleep_scale <= 0.0) return;
  double ms = CostMillis(request_bytes, response_bytes) * sleep_scale;
  if (ms <= 0.0) return;
  if (g_current_wait != nullptr) {
    g_current_wait->millis_ += ms;
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

DeferredWait::DeferredWait() : previous_(g_current_wait) {
  g_current_wait = this;
}

DeferredWait::~DeferredWait() { g_current_wait = previous_; }

DeferredWait::Suspend::Suspend() : hidden_(g_current_wait) {
  g_current_wait = nullptr;
}

DeferredWait::Suspend::~Suspend() { g_current_wait = hidden_; }

}  // namespace lusail::net
