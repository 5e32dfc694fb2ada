#include "probe.h"

#include "common/stopwatch.h"
#include "common/string_util.h"

namespace perfbench {

using lusail::Result;
using lusail::Stopwatch;
using lusail::net::QueryResponse;

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kAsk: return "ask";
    case RequestKind::kCheck: return "check";
    case RequestKind::kCount: return "count";
    case RequestKind::kSubquery: return "subquery";
    case RequestKind::kBound: return "bound";
  }
  return "subquery";
}

RequestKind ClassifyRequest(const std::string& text) {
  if (lusail::LooksLikeAskQuery(text)) return RequestKind::kAsk;
  if (text.find("FILTER NOT EXISTS") != std::string::npos) {
    return RequestKind::kCheck;
  }
  if (text.find("(COUNT(*) AS ?c)") != std::string::npos) {
    return RequestKind::kCount;
  }
  if (text.find("VALUES") != std::string::npos) return RequestKind::kBound;
  return RequestKind::kSubquery;
}

void KindTotals::Add(const KindTotals& other) {
  requests += other.requests;
  nonempty += other.nonempty;
  wait_ms += other.wait_ms;
  server_ms += other.server_ms;
}

void KindTotals::Subtract(const KindTotals& other) {
  requests -= other.requests;
  nonempty -= other.nonempty;
  wait_ms -= other.wait_ms;
  server_ms -= other.server_ms;
}

KindTotals AllKinds(const RequestTotals& totals) {
  KindTotals sum;
  for (const KindTotals& kind : totals) sum.Add(kind);
  return sum;
}

void RequestCounters::Record(RequestKind kind, double wall_ms,
                             const QueryResponse* response) {
  std::lock_guard<std::mutex> lock(mu_);
  KindTotals& t = totals_[static_cast<size_t>(kind)];
  ++t.requests;
  t.wait_ms += wall_ms;
  if (response == nullptr) return;
  if (response->RowCount() > 0) ++t.nonempty;
  t.server_ms += response->server_ms;
}

RequestTotals RequestCounters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

namespace {

template <typename Call>
Result<QueryResponse> Timed(RequestCounters* counters,
                            const std::string& text, Call call) {
  Stopwatch watch;
  Result<QueryResponse> response = call();
  counters->Record(ClassifyRequest(text), watch.ElapsedMillis(),
                   response.ok() ? &*response : nullptr);
  return response;
}

}  // namespace

Result<QueryResponse> TimingEndpoint::Query(const std::string& text) {
  return Timed(counters_, text, [&] { return inner_->Query(text); });
}

Result<QueryResponse> TimingEndpoint::QueryWithDeadline(
    const std::string& text, const lusail::Deadline& deadline) {
  return Timed(counters_, text,
               [&] { return inner_->QueryWithDeadline(text, deadline); });
}

Result<QueryResponse> TimingEndpoint::QueryCancellable(
    const std::string& text, const lusail::CancelToken& cancel) {
  return Timed(counters_, text,
               [&] { return inner_->QueryCancellable(text, cancel); });
}

}  // namespace perfbench
