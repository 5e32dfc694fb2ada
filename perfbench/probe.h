#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/endpoint.h"

namespace perfbench {

/// What an endpoint request is for, recovered from its text. The engine's
/// request shapes are fixed: source-selection (and source-refinement)
/// probes are ASK queries, GJV locality checks are SELECTs with a
/// FILTER NOT EXISTS, cardinality probes are COUNT(*) SELECTs, bound joins
/// ship a VALUES block, and everything else is a plain subquery.
enum class RequestKind { kAsk = 0, kCheck, kCount, kSubquery, kBound };
inline constexpr size_t kNumRequestKinds = 5;

const char* RequestKindName(RequestKind kind);
RequestKind ClassifyRequest(const std::string& text);

/// Totals for one request kind.
struct KindTotals {
  uint64_t requests = 0;
  uint64_t nonempty = 0;   ///< Responses with at least one row.
  double wait_ms = 0.0;    ///< Wall time inside the wrapped call.
  double server_ms = 0.0;  ///< Sum of QueryResponse::server_ms.

  void Add(const KindTotals& other);
  void Subtract(const KindTotals& other);
};

using RequestTotals = std::array<KindTotals, kNumRequestKinds>;

/// Sum over kinds.
KindTotals AllKinds(const RequestTotals& totals);

/// Thread-safe request accounting shared by every TimingEndpoint of one
/// layer (all federation endpoints, or all server backends).
class RequestCounters {
 public:
  void Record(RequestKind kind, double wall_ms,
              const lusail::net::QueryResponse* response);
  RequestTotals Snapshot() const;

 private:
  mutable std::mutex mu_;
  RequestTotals totals_{};
};

/// A net::Endpoint decorator that times every call into the wrapped
/// endpoint and files it, by request kind, into shared counters. It sits
/// at a layer boundary without changing what crosses it: responses, ids
/// and errors pass through untouched. Streaming calls take the base
/// class's buffered path through QueryCancellable (no workload streams).
class TimingEndpoint : public lusail::net::Endpoint {
 public:
  TimingEndpoint(std::shared_ptr<lusail::net::Endpoint> inner,
                 RequestCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  const std::string& id() const override { return inner_->id(); }

  lusail::Result<lusail::net::QueryResponse> Query(
      const std::string& text) override;
  lusail::Result<lusail::net::QueryResponse> QueryWithDeadline(
      const std::string& text, const lusail::Deadline& deadline) override;
  lusail::Result<lusail::net::QueryResponse> QueryCancellable(
      const std::string& text, const lusail::CancelToken& cancel) override;

 private:
  std::shared_ptr<lusail::net::Endpoint> inner_;
  RequestCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
