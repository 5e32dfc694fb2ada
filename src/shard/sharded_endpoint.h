#ifndef LUSAIL_SHARD_SHARDED_ENDPOINT_H_
#define LUSAIL_SHARD_SHARDED_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/federation_cache.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "shard/shard_map.h"
#include "sparql/ast.h"
#include "sparql/probe.h"

namespace lusail::shard {

/// Tuning knobs for a ShardedEndpoint.
struct ShardedEndpointOptions {
  /// When a shard member fails, drop its contribution and return a
  /// lower-bound answer (the failed member ids travel back on
  /// QueryResponse::degraded_members) instead of failing the query.
  bool partial_results = false;

  /// Shared verdict/COUNT tiers consulted for per-shard pruning and fed
  /// by scattered ASK / COUNT probes, keyed by member id. The endpoint
  /// registers its member ids with the cache so Invalidate(logical id)
  /// reaches every member's entries. Optional; null disables pruning by
  /// cached verdicts (routing by subject still applies).
  cache::FederationCache* cache = nullptr;

  /// Pool the scatter requests run on. Must NOT be a pool whose workers
  /// can block inside ShardedEndpoint::Query* (the scatter-gather caller
  /// waits for its fan-out futures, so sharing the engine's SAPE pool
  /// would deadlock under load). Null means the endpoint owns a private
  /// pool of `own_pool_threads` workers. A worker waiting on an HTTP
  /// member's first response byte lends its slot (ThreadPool::Blocking),
  /// so up to (1 + ThreadPool::kSparesPerWorker) member requests per
  /// worker can be in flight.
  ThreadPool* pool = nullptr;

  /// Worker count for the private pool (0 = hardware concurrency).
  size_t own_pool_threads = 0;
};

/// Cumulative counters of one ShardedEndpoint.
struct ShardedEndpointStats {
  uint64_t queries = 0;            ///< Calls to Query*.
  uint64_t fanout_requests = 0;    ///< Member requests issued.
  uint64_t pruned_shards = 0;      ///< (star, shard) pairs skipped: subject
                                   ///< routing, VALUES routing, or a cached
                                   ///< false verdict.
  uint64_t single_shard_queries = 0;  ///< Whole query routed to one shard.
  uint64_t ask_short_circuits = 0;    ///< ASK answered from cached verdicts
                                      ///< with zero member requests.
  uint64_t broadcast_fallbacks = 0;   ///< Non-decomposable query texts
                                      ///< broadcast wholesale to all shards.
  uint64_t partial_queries = 0;       ///< Queries that dropped >= 1 member.
  uint64_t shard_failures = 0;        ///< Member requests that failed.
};

/// N shards of one logical endpoint behind a single net::Endpoint facade
/// — the data-partitioned dual of net::ReplicaGroup (each member may
/// itself be a ReplicaGroup, giving sharding * replication).
///
/// The data contract is the ShardMap's: every triple lives on exactly the
/// shard owning its *subject* (the loader splits files with the same
/// map). Execution exploits it by star decomposition: a query's triple
/// patterns are grouped by subject slot, so each group is answerable
/// per-shard with no cross-shard loss; groups scatter in parallel to
/// their relevant shards, per-shard results union in ID space
/// (AppendUnionIds into the endpoint's TermDictionary), and the groups
/// are joined — plus residual filters, OPTIONAL / UNION / EXISTS blocks,
/// VALUES, DISTINCT, COUNT, ORDER BY, LIMIT/OFFSET — at the gather site.
///
/// Routing prunes before any request is issued: a star whose subject is
/// a constant (or bound by a pushed VALUES block) goes to exactly the
/// owning shard(s), and a shard with a cached false ASK verdict for one
/// of the star's patterns is skipped. ASK queries consult per-member
/// verdicts first (a cached true answers with zero requests) and store
/// the scattered verdicts back per member; single-star COUNT(*) probes
/// scatter the count itself and sum, through the COUNT tier. A batched
/// probe does both per branch, with one request per shard.
///
/// Queries whose body the decomposer does not cover (nested OPTIONAL,
/// UNION alternatives beyond flat BGPs, unparseable text) are broadcast
/// wholesale to every shard and unioned — exact for single-star bodies;
/// for Lusail's multi-star locality checks the per-shard evaluation can
/// only *over*-report counterexamples, which costs pushdown, never
/// correctness.
///
/// Thread-safe; the caller's CancelToken/deadline is threaded through
/// every member request.
class ShardedEndpoint : public net::Endpoint {
 public:
  /// `members.size()` must equal `map.NumShards()`; member i serves the
  /// subjects `map` assigns to shard i.
  ShardedEndpoint(std::string id, ShardMap map,
                  std::vector<std::shared_ptr<net::Endpoint>> members,
                  ShardedEndpointOptions options = ShardedEndpointOptions());

  ShardedEndpoint(const ShardedEndpoint&) = delete;
  ShardedEndpoint& operator=(const ShardedEndpoint&) = delete;

  const std::string& id() const override { return id_; }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override;

  size_t NumShards() const { return members_.size(); }
  const std::string& member_id(size_t i) const;
  net::Endpoint* member(size_t i) const { return members_[i].get(); }
  std::vector<std::string> MemberIds() const;
  const ShardMap& map() const { return map_; }

  /// True when at least one shard member is Available() (a replicated
  /// member is iff one of its replicas' breakers admits a request). Source
  /// selection uses this to skip ASK probes against endpoints whose every
  /// shard is known-dead.
  bool Available() const override;

  /// Dictionary gather results are encoded into (and responses returned
  /// in), also handed to every member so their responses parse straight
  /// into it. Defaults to a private dictionary, which nullptr restores;
  /// engines share theirs so the Federation::ToIds fast path applies.
  /// Call before issuing queries.
  void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> dict) override;

  ShardedEndpointStats stats() const;

  /// Emits lusail_shard_* counters labelled {endpoint=<logical id>}, then
  /// every member's metrics.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const override;

  const ShardedEndpointOptions& options() const { return options_; }

 private:
  /// One subject star: the triple patterns sharing a subject slot, the
  /// filters/VALUES pushed into the shard subquery, and the shards it
  /// must visit.
  struct StarGroup {
    std::vector<sparql::TriplePattern> triples;
    std::vector<sparql::Expr> filters;
    std::vector<sparql::ValuesClause> values;
    std::set<std::string> vars;
    std::vector<size_t> shards;
  };

  /// A flat sub-pattern (OPTIONAL block, UNION alternative, EXISTS body)
  /// evaluated with the same star machinery and combined at the gather.
  struct Plan {
    std::vector<StarGroup> stars;
    std::vector<sparql::Expr> residual_filters;   ///< Applied post-join.
    std::vector<sparql::ValuesClause> gather_values;
    std::vector<Plan> optionals;                  ///< Left-joined.
    std::vector<std::vector<Plan>> unions;        ///< Joined union chains.
    std::vector<std::pair<bool, Plan>> exists;    ///< (negated, body).
  };

  /// Builds a plan for `pattern`; false when the shape is outside the
  /// decomposer (caller falls back to broadcast). `top_level` admits
  /// OPTIONAL/UNION/EXISTS blocks; nested blocks must be flat BGPs.
  bool BuildPlan(const sparql::GraphPattern& pattern, bool top_level,
                 Plan* plan);

  /// Routes every star of `plan` (and nested plans), filling
  /// StarGroup::shards and counting pruned pairs.
  void RoutePlan(Plan* plan);

  /// Collects the shard indices a routed plan touches (single-shard
  /// accounting).
  static void CollectShards(const Plan& plan, std::set<size_t>* out);

  /// Per-query scatter bookkeeping (accounting sums, degraded members,
  /// captured trace context); defined in the .cc.
  struct ScatterContext;

  /// Evaluates `plan` to an IdTable over dict_ (scatter + gather).
  /// When `star_limit` is non-zero each star subquery ships `LIMIT
  /// star_limit` to the shards — only safe when the caller proved the
  /// gather cannot need more than that many rows per shard (single
  /// star, no ORDER BY / DISTINCT / aggregate / gather-side joins).
  Result<core::IdTable> EvaluatePlan(const Plan& plan,
                                     const CancelToken& cancel,
                                     ScatterContext* ctx,
                                     size_t star_limit = 0);

  Result<net::QueryResponse> ExecuteDecomposed(const sparql::Query& query,
                                               const CancelToken& cancel,
                                               ScatterContext* ctx);
  Result<net::QueryResponse> ExecuteAsk(const sparql::Query& query,
                                        const CancelToken& cancel,
                                        ScatterContext* ctx);
  Result<net::QueryResponse> Broadcast(const sparql::Query& query,
                                       const CancelToken& cancel,
                                       ScatterContext* ctx);
  /// A batched probe (sparql/probe.h). Each branch that is one star is
  /// routed, pruned and answered from the cache tiers exactly as its
  /// single probe would be; then every shard gets one batched request
  /// for the branches it still has to answer, so the fan-out never
  /// exceeds the single probes'. Other branches run alone through
  /// ExecuteAsk / ExecuteDecomposed.
  Result<net::QueryResponse> ExecuteProbeBatch(const sparql::ProbeBatch& batch,
                                               const CancelToken& cancel,
                                               ScatterContext* ctx);
  /// A star's triples, pushed filters and VALUES as a probe body.
  static std::string StarBody(const StarGroup& star);
  /// Cache key of member `shard`'s ASK verdict for `star`: the shared
  /// FederationCache::PatternKey for one clean pattern, else the key of
  /// the star's ASK text.
  std::string VerdictKey(size_t shard, const StarGroup& star) const;
  Result<net::QueryResponse> ScatterCount(const sparql::Query& query,
                                          const StarGroup& star,
                                          const CancelToken& cancel,
                                          ScatterContext* ctx);
  Result<net::QueryResponse> FinishSelect(const sparql::Query& query,
                                          const core::IdTable& acc,
                                          ScatterContext* ctx);

  /// One member request, run on a pool worker: tracing span, accounting,
  /// failure counters.
  Result<net::QueryResponse> IssueShardRequest(size_t shard,
                                               const std::string& text,
                                               const CancelToken& cancel,
                                               ScatterContext* ctx);

  /// Runs (shard, text) jobs on the pool and waits for all of them.
  std::vector<Result<net::QueryResponse>> RunScatter(
      const std::vector<std::pair<size_t, std::string>>& jobs,
      const CancelToken& cancel, ScatterContext* ctx);

  /// Re-encodes a member response into dict_ (fast path when the member
  /// already parsed into the same dictionary).
  core::IdTable EncodeResponse(const net::QueryResponse& response) const;

  /// Builds the response envelope from the context's accounting sums.
  net::QueryResponse MakeResponse(ScatterContext* ctx);

  std::string id_;
  ShardMap map_;
  std::vector<std::shared_ptr<net::Endpoint>> members_;
  std::vector<std::string> member_ids_;
  ShardedEndpointOptions options_;
  std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool* pool_ = nullptr;
  std::shared_ptr<core::TermDictionary> dict_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> fanout_requests_{0};
  std::atomic<uint64_t> pruned_shards_{0};
  std::atomic<uint64_t> single_shard_queries_{0};
  std::atomic<uint64_t> ask_short_circuits_{0};
  std::atomic<uint64_t> broadcast_fallbacks_{0};
  std::atomic<uint64_t> partial_queries_{0};
  std::atomic<uint64_t> shard_failures_{0};
};

}  // namespace lusail::shard

#endif  // LUSAIL_SHARD_SHARDED_ENDPOINT_H_
