// Tests for the federation-level cross-query cache, the concurrent
// QueryService (including queue-expiry fail-fast and Cancel), and
// regression fixes: the SAPE empty-partner short-circuit and per-chunk
// bound-join cancellation, exact COUNT-literal parsing, and the parallel
// cartesian join path.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_endpoint.h"
#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/hash_join.h"
#include "core/lusail_engine.h"
#include "core/sape.h"
#include "net/sparql_endpoint.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sparql/parser.h"
#include "sparql/probe.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"
#include "test_payload.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// LruTier / FederationCache
// ---------------------------------------------------------------------

TEST(LruTierTest, GetAfterPutAndMissCounters) {
  cache::LruTier<int> tier(/*max_entries=*/4, /*max_bytes=*/0);
  EXPECT_FALSE(tier.Get("a").has_value());
  tier.Put("a", "ep0", 1, sizeof(int));
  auto hit = tier.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);
  cache::TierStats stats = tier.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruTierTest, EvictsLeastRecentlyUsedAtEntryCapacity) {
  cache::LruTier<int> tier(/*max_entries=*/2, /*max_bytes=*/0);
  tier.Put("a", "ep", 1, 0);
  tier.Put("b", "ep", 2, 0);
  // Touch "a" so "b" is the LRU victim.
  EXPECT_TRUE(tier.Get("a").has_value());
  tier.Put("c", "ep", 3, 0);
  EXPECT_TRUE(tier.Get("a").has_value());
  EXPECT_FALSE(tier.Get("b").has_value());
  EXPECT_TRUE(tier.Get("c").has_value());
  EXPECT_EQ(tier.Stats().evictions, 1u);
}

TEST(LruTierTest, EvictsAtByteBudget) {
  // Each entry charges value_bytes + key + endpoint id = 100 + 1 + 2.
  cache::LruTier<int> tier(/*max_entries=*/100, /*max_bytes=*/250);
  tier.Put("a", "ep", 1, 100);
  tier.Put("b", "ep", 2, 100);
  EXPECT_EQ(tier.Stats().entries, 2u);
  tier.Put("c", "ep", 3, 100);  // Pushes bytes past 250: "a" evicted.
  EXPECT_FALSE(tier.Get("a").has_value());
  EXPECT_TRUE(tier.Get("b").has_value());
  EXPECT_TRUE(tier.Get("c").has_value());
  EXPECT_LE(tier.Stats().bytes, 250u);
}

TEST(LruTierTest, UpdatingAKeyReplacesItsBytes) {
  cache::LruTier<int> tier(/*max_entries=*/10, /*max_bytes=*/0);
  tier.Put("a", "ep", 1, 100);
  uint64_t before = tier.Stats().bytes;
  tier.Put("a", "ep", 2, 50);
  EXPECT_EQ(tier.Stats().bytes, before - 50);
  EXPECT_EQ(tier.Stats().entries, 1u);
  EXPECT_EQ(*tier.Get("a"), 2);
}

TEST(LruTierTest, InvalidateEndpointDropsOnlyItsEntries) {
  cache::LruTier<int> tier(/*max_entries=*/10, /*max_bytes=*/0);
  tier.Put("a", "ep0", 1, 0);
  tier.Put("b", "ep1", 2, 0);
  tier.Put("c", "ep0", 3, 0);
  tier.InvalidateEndpoint("ep0");
  EXPECT_FALSE(tier.Get("a").has_value());
  EXPECT_TRUE(tier.Get("b").has_value());
  EXPECT_FALSE(tier.Get("c").has_value());
  EXPECT_EQ(tier.Stats().invalidations, 2u);
}

TEST(LruTierTest, InvalidationIsLazyButComplete) {
  cache::LruTier<int> tier(/*max_entries=*/10, /*max_bytes=*/0);
  tier.Put("a", "ep0", 1, 0);
  tier.Put("b", "ep0", 2, 0);
  tier.InvalidateEndpoint("ep0");
  // The bump is O(1): entries linger in the index until touched...
  EXPECT_EQ(tier.Stats().entries, 2u);
  EXPECT_EQ(tier.Stats().invalidations, 0u);
  // ...but any Get observes the invalidation and drops the entry.
  EXPECT_FALSE(tier.Get("a").has_value());
  EXPECT_EQ(tier.Stats().entries, 1u);
  EXPECT_EQ(tier.Stats().invalidations, 1u);
  // A fresh Put after the bump belongs to the new generation.
  tier.Put("a", "ep0", 3, 0);
  EXPECT_TRUE(tier.Get("a").has_value());
}

TEST(LruTierTest, EntriesExpireAfterMaxAge) {
  cache::LruTier<int> tier(/*max_entries=*/10, /*max_bytes=*/0,
                           /*max_age_ms=*/1000.0);
  tier.Put("a", "ep", 1, 0);
  EXPECT_TRUE(tier.Get("a").has_value());
  tier.AdvanceTimeForTesting(500.0);
  EXPECT_TRUE(tier.Get("a").has_value());  // Still fresh.
  tier.AdvanceTimeForTesting(600.0);       // 1100ms total: past the TTL.
  EXPECT_FALSE(tier.Get("a").has_value());
  EXPECT_EQ(tier.Stats().expired, 1u);
  EXPECT_EQ(tier.Stats().entries, 0u);
  // Re-inserting restarts the clock.
  tier.Put("a", "ep", 2, 0);
  EXPECT_TRUE(tier.Get("a").has_value());
}

TEST(FederationCacheTest, PerTierTtlExpiresIndependently) {
  cache::FederationCacheOptions options;
  options.verdict_max_age_ms = 10000.0;
  options.result_max_age_ms = 1000.0;  // Results age 10x faster.
  cache::FederationCache cache(options);
  std::string key = cache::FederationCache::Key("ep0", "q");
  cache.PutVerdict(key, "ep0", true);
  sparql::ResultTable table;
  table.vars = {"x"};
  cache.PutResult("ep0", "q", IdPayload(table));

  cache.AdvanceTimeForTesting(2000.0);
  EXPECT_TRUE(cache.GetVerdict(key).has_value());
  EXPECT_FALSE(cache.GetResult("ep0", "q").has_value());
  EXPECT_EQ(cache.ResultStats().expired, 1u);
  EXPECT_EQ(cache.VerdictStats().expired, 0u);

  obs::MetricsSnapshot snapshot;
  cache.ExportMetrics(&snapshot);
  const obs::MetricSample* expired =
      snapshot.Find("lusail_cache_expired_total", {{"tier", "results"}});
  ASSERT_NE(expired, nullptr);
  EXPECT_EQ(expired->value, 1.0);
}

TEST(FederationCacheTest, ThreeTiersAreIndependent) {
  cache::FederationCache cache;
  std::string key = cache::FederationCache::Key("ep0", "ASK { ?s ?p ?o }");
  cache.PutVerdict(key, "ep0", true);
  cache.PutCount(key, "ep0", 42);
  sparql::ResultTable table;
  table.vars = {"x"};
  table.rows.push_back({rdf::Term::Iri("urn:a")});
  cache.PutResult("ep0", "SELECT ...", IdPayload(table));

  EXPECT_EQ(cache.GetVerdict(key), std::optional<bool>(true));
  EXPECT_EQ(cache.GetCount(key), std::optional<uint64_t>(42));
  auto result = cache.GetResult("ep0", "SELECT ...");
  ASSERT_TRUE(result.has_value());
  sparql::ResultTable decoded = core::DecodeIdTable(*result->ids,
                                                    *result->terms);
  ASSERT_EQ(decoded.rows.size(), 1u);
  EXPECT_EQ(decoded.rows[0][0]->lexical(), "urn:a");
}

TEST(FederationCacheTest, InvalidateEvictsEveryTier) {
  cache::FederationCache cache;
  std::string k0 = cache::FederationCache::Key("ep0", "q");
  std::string k1 = cache::FederationCache::Key("ep1", "q");
  cache.PutVerdict(k0, "ep0", true);
  cache.PutVerdict(k1, "ep1", false);
  cache.PutCount(k0, "ep0", 7);
  sparql::ResultTable table;
  table.vars = {"x"};
  cache.PutResult("ep0", "q", IdPayload(table));

  cache.Invalidate("ep0");
  EXPECT_FALSE(cache.GetVerdict(k0).has_value());
  EXPECT_TRUE(cache.GetVerdict(k1).has_value());
  EXPECT_FALSE(cache.GetCount(k0).has_value());
  EXPECT_FALSE(cache.GetResult("ep0", "q").has_value());
}

TEST(FederationCacheTest, ResultTierHonorsByteBudget) {
  cache::FederationCacheOptions options;
  options.result_byte_budget = 4096;
  cache::FederationCache cache(options);
  sparql::ResultTable table;
  table.vars = {"x"};
  for (int i = 0; i < 200; ++i) {
    table.rows.push_back(
        {rdf::Term::Iri("urn:value-" + std::to_string(i))});
  }
  cache::CachedAnswer answer = IdPayload(table);
  cache.PutResult("ep0", "query 0", answer);
  // Each entry is charged for its 200 id cells.
  ASSERT_GT(cache.ResultStats().bytes, 200 * sizeof(rdf::TermId));
  for (int i = 1; i < 16; ++i) {
    cache.PutResult("ep0", "query " + std::to_string(i), answer);
  }
  cache::TierStats stats = cache.ResultStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
}

TEST(FederationCacheTest, JsonExportCarriesAllTiers) {
  cache::FederationCache cache;
  cache.PutVerdict("k", "ep", true);
  sparql::ResultTable table;
  table.vars = {"x"};
  table.rows.push_back({rdf::Term::Iri("urn:a")});
  cache.PutResult("ep", "q", IdPayload(table));
  obs::MetricsSnapshot snapshot;
  cache.ExportMetrics(&snapshot);
  // The JSON form of the snapshot, as GET /stats and --cache-stats show it.
  obs::JsonValue json = snapshot.ToJson();
  std::vector<std::string> tiers;
  for (const obs::JsonValue& sample :
       json.Get("lusail_cache_insertions_total").Get("samples").items()) {
    const std::string tier = sample.Get("labels").Get("tier").AsString();
    tiers.push_back(tier);
    if (tier == "verdicts" || tier == "results") {
      EXPECT_EQ(sample.Get("value").AsDouble(), 1.0) << tier;
    }
  }
  EXPECT_EQ(tiers,
            (std::vector<std::string>{"verdicts", "counts", "results"}));
}

// ---------------------------------------------------------------------
// Engine-level caching: identical results, fewer requests
// ---------------------------------------------------------------------

uint64_t TotalRequests(const fed::Federation& federation) {
  uint64_t total = 0;
  for (size_t i = 0; i < federation.size(); ++i) {
    auto* ep = dynamic_cast<net::SparqlEndpoint*>(federation.endpoint(i));
    if (ep != nullptr) total += ep->stats().requests;
  }
  return total;
}

void ResetRequests(const fed::Federation& federation) {
  for (size_t i = 0; i < federation.size(); ++i) {
    auto* ep = dynamic_cast<net::SparqlEndpoint*>(federation.endpoint(i));
    if (ep != nullptr) ep->ResetStats();
  }
}

std::multiset<std::string> RowSet(const sparql::ResultTable& table) {
  std::vector<size_t> cols(table.vars.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::sort(cols.begin(), cols.end(), [&table](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::multiset<std::string> out;
  for (const auto& row : table.rows) {
    std::string key;
    for (size_t c : cols) {
      key += table.vars[c] + "=";
      key += row[c].has_value() ? row[c]->ToString() : "UNBOUND";
      key += ";";
    }
    out.insert(std::move(key));
  }
  return out;
}

class SharedCacheLubmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::LubmGenerator generator(workload::LubmConfig::Small());
    federation_ = workload::BuildFederation(generator.GenerateAll(),
                                            net::LatencyModel::None());
    queries_ = workload::LubmGenerator::BenchmarkQueries();
  }

  std::unique_ptr<fed::Federation> federation_;
  std::vector<std::pair<std::string, std::string>> queries_;
};

TEST_F(SharedCacheLubmTest, CachedResultsAreBitIdenticalAndCheaper) {
  // Reference: no shared cache at all.
  std::map<std::string, std::multiset<std::string>> reference;
  {
    core::LusailEngine engine(federation_.get());
    for (const auto& [label, query] : queries_) {
      auto result = engine.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference[label] = RowSet(result->table);
    }
  }

  cache::FederationCache cache;
  federation_->set_query_cache(&cache);
  core::LusailOptions options;
  options.result_cache = true;

  ResetRequests(*federation_);
  {
    core::LusailEngine cold(federation_.get(), options);
    for (const auto& [label, query] : queries_) {
      auto result = cold.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      EXPECT_EQ(RowSet(result->table), reference[label]) << label;
    }
  }
  uint64_t cold_requests = TotalRequests(*federation_);

  ResetRequests(*federation_);
  {
    // A fresh engine has empty per-engine caches; only the shared cache
    // carries over.
    core::LusailEngine warm(federation_.get(), options);
    for (const auto& [label, query] : queries_) {
      auto result = warm.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      EXPECT_EQ(RowSet(result->table), reference[label]) << label;
    }
  }
  uint64_t warm_requests = TotalRequests(*federation_);

  // Acceptance: the warm pass issues >= 5x fewer endpoint requests.
  EXPECT_LT(warm_requests * 5, cold_requests)
      << "cold=" << cold_requests << " warm=" << warm_requests;
  EXPECT_GT(cache.VerdictStats().hits, 0u);
  EXPECT_GT(cache.CountStats().hits, 0u);
  EXPECT_GT(cache.ResultStats().hits, 0u);
  federation_->set_query_cache(nullptr);
}

TEST_F(SharedCacheLubmTest, FullyWarmRunIssuesNoRequests) {
  // Every fetch class is cacheable — ASK verdicts, COUNT probes, unbound
  // subquery results, and (since the binding-block fingerprint keys)
  // bound VALUES joins — so an identical re-run against a warm cache
  // must answer entirely from memory.
  cache::FederationCache cache;
  federation_->set_query_cache(&cache);
  core::LusailOptions options;
  options.result_cache = true;
  std::map<std::string, std::multiset<std::string>> reference;
  {
    core::LusailEngine cold(federation_.get(), options);
    for (const auto& [label, query] : queries_) {
      auto result = cold.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      reference[label] = RowSet(result->table);
    }
  }
  ResetRequests(*federation_);
  {
    core::LusailEngine warm(federation_.get(), options);
    for (const auto& [label, query] : queries_) {
      auto result = warm.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      EXPECT_EQ(RowSet(result->table), reference[label]) << label;
    }
  }
  EXPECT_EQ(TotalRequests(*federation_), 0u);
  federation_->set_query_cache(nullptr);
}

TEST_F(SharedCacheLubmTest, InvalidateForcesRefetch) {
  cache::FederationCache cache;
  federation_->set_query_cache(&cache);
  core::LusailOptions options;
  options.result_cache = true;
  const std::string& query = queries_[0].second;
  {
    core::LusailEngine engine(federation_.get(), options);
    ASSERT_TRUE(engine.Execute(query, Deadline()).ok());
  }
  ASSERT_GT(cache.VerdictStats().entries, 0u);

  for (size_t i = 0; i < federation_->size(); ++i) {
    cache.Invalidate(federation_->id(i));
  }
  // Invalidation is lazy (generation bump): entries linger until a Get
  // touches them, but every Get must now miss.
  std::string probe = cache::FederationCache::Key(federation_->id(0),
                                                  "ASK { ?s ?p ?o }");
  EXPECT_FALSE(cache.GetVerdict(probe).has_value());

  // The next cold engine must go back to the network.
  ResetRequests(*federation_);
  {
    core::LusailEngine engine(federation_.get(), options);
    ASSERT_TRUE(engine.Execute(query, Deadline()).ok());
  }
  EXPECT_GT(TotalRequests(*federation_), 0u);
  federation_->set_query_cache(nullptr);
}

// ---------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------

TEST_F(SharedCacheLubmTest, ConcurrentQueriesMatchSequential) {
  std::map<std::string, std::multiset<std::string>> reference;
  {
    core::LusailEngine engine(federation_.get());
    for (const auto& [label, query] : queries_) {
      auto result = engine.Execute(query, Deadline());
      ASSERT_TRUE(result.ok()) << label;
      reference[label] = RowSet(result->table);
    }
  }

  cache::FederationCache cache;
  federation_->set_query_cache(&cache);
  cache::QueryServiceOptions options;
  options.max_concurrent = 8;
  options.engine.result_cache = true;
  cache::QueryService service(federation_.get(), options);

  // 8 concurrent queries: Q1-Q4, two rounds.
  std::vector<std::pair<std::string,
                        std::future<Result<fed::FederatedResult>>>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [label, query] : queries_) {
      auto submitted = service.Submit(query);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.emplace_back(label, std::move(submitted).value());
    }
  }
  for (auto& [label, future] : futures) {
    Result<fed::FederatedResult> result = future.get();
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    EXPECT_EQ(RowSet(result->table), reference[label]) << label;
  }
  service.Drain();
  cache::QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  // Every accepted query passed through the queue exactly once, so the
  // wait-time histogram saw all 8; nothing is queued or running now.
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.wait.count(), 8u);
  EXPECT_GE(stats.wait.P99(), stats.wait.P50());
  obs::MetricsSnapshot snapshot;
  service.ExportMetrics(&snapshot);
  const obs::MetricSample* queued = snapshot.Find("lusail_service_queued", {});
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(queued->value, 0.0);
  const obs::MetricSample* wait =
      snapshot.Find("lusail_service_queue_wait_seconds", {});
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 8u);
  uint64_t bucketed = 0;
  for (uint64_t n : wait->buckets) bucketed += n;
  EXPECT_EQ(bucketed, 8u);
  federation_->set_query_cache(nullptr);
}

TEST(QueryServiceTest, AdmissionCapRejectsExcessQueries) {
  // 50 ms of simulated latency per request keeps the first query in
  // flight long enough for the second Submit to hit the cap.
  workload::LubmGenerator generator(workload::LubmConfig::Small());
  net::LatencyModel slow{/*request_latency_ms=*/50.0,
                         /*bandwidth_bytes_per_ms=*/0.0,
                         /*sleep_scale=*/1.0};
  auto federation =
      workload::BuildFederation(generator.GenerateAll(), slow);
  cache::QueryServiceOptions options;
  options.max_concurrent = 1;
  options.max_pending = 1;
  cache::QueryService service(federation.get(), options);

  auto queries = workload::LubmGenerator::BenchmarkQueries();
  auto first = service.Submit(queries[0].second);
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(queries[1].second);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(first->get().ok());
  service.Drain();
  cache::QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

// ---------------------------------------------------------------------
// Regression: COUNT-literal parsing above 2^53
// ---------------------------------------------------------------------

/// Regression (queue-expiry fail-fast): a query whose deadline passes
/// while it waits behind other queries must fail with kTimeout at
/// dequeue — counted as expired_in_queue — instead of executing with a
/// budget it no longer has.
TEST(QueryServiceTest, QueueExpiryFailsFastWithTimeout) {
  workload::LubmGenerator generator(workload::LubmConfig::Small());
  net::LatencyModel slow{/*request_latency_ms=*/50.0,
                         /*bandwidth_bytes_per_ms=*/0.0,
                         /*sleep_scale=*/1.0};
  auto federation = workload::BuildFederation(generator.GenerateAll(), slow);
  cache::QueryServiceOptions options;
  options.max_concurrent = 1;  // The second query must wait in the queue.
  cache::QueryService service(federation.get(), options);

  auto queries = workload::LubmGenerator::BenchmarkQueries();
  auto first = service.Submit(queries[0].second);
  ASSERT_TRUE(first.ok());
  // 1 ms of budget against >= 50 ms of queue wait: expired at dequeue.
  auto second = service.Submit(queries[0].second, Deadline::AfterMillis(1.0));
  ASSERT_TRUE(second.ok());

  Result<fed::FederatedResult> expired = second->get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kTimeout)
      << expired.status().ToString();
  // The fail-fast path, not a mid-execution timeout.
  EXPECT_NE(expired.status().message().find("queue wait"), std::string::npos)
      << expired.status().ToString();

  EXPECT_TRUE(first->get().ok());
  service.Drain();
  cache::QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(QueryServiceTest, CancelAbortsSubmittedQuery) {
  workload::LubmGenerator generator(workload::LubmConfig::Small());
  net::LatencyModel slow{/*request_latency_ms=*/50.0,
                         /*bandwidth_bytes_per_ms=*/0.0,
                         /*sleep_scale=*/1.0};
  auto federation = workload::BuildFederation(generator.GenerateAll(), slow);
  cache::QueryServiceOptions options;
  options.max_concurrent = 1;
  cache::QueryService service(federation.get(), options);

  auto queries = workload::LubmGenerator::BenchmarkQueries();
  auto submitted = service.SubmitCancellable(queries[0].second);
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(service.Cancel(submitted->id));

  // Whether the cancel lands while the query is still queued or already
  // running, the future resolves to kTimeout within one work chunk.
  Result<fed::FederatedResult> result = submitted->future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();

  service.Drain();
  cache::QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 1u);
  // Finished and unknown ids no longer cancel.
  EXPECT_FALSE(service.Cancel(submitted->id));
  EXPECT_FALSE(service.Cancel(424242));
}

TEST(ParseCountLiteralTest, KeepsFullPrecisionAboveDoubleRange) {
  // 2^53 + 1 is the first integer a double cannot represent.
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("9007199254740993")),
            9007199254740993ull);
  EXPECT_EQ(sparql::ParseCountLiteral(
                rdf::Term::Literal("18446744073709551615")),
            18446744073709551615ull);
  EXPECT_EQ(sparql::ParseCountLiteral(
                rdf::Term::TypedLiteral(
                    "9007199254740993",
                    "http://www.w3.org/2001/XMLSchema#integer")),
            9007199254740993ull);
}

TEST(ParseCountLiteralTest, FallbacksAreExplicit) {
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("+42")), 42ull);
  // Scientific notation goes through the double path.
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("1e3")), 1000ull);
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("12.0")), 12ull);
  // Overflow saturates instead of wrapping.
  EXPECT_EQ(sparql::ParseCountLiteral(
                rdf::Term::Literal("99999999999999999999999999")),
            std::numeric_limits<uint64_t>::max());
  // Non-numeric and negative map to zero.
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("not-a-number")),
            0ull);
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("-5")), 0ull);
  EXPECT_EQ(sparql::ParseCountLiteral(rdf::Term::Literal("")), 0ull);
}

/// An endpoint whose every SELECT answers with one huge COUNT literal.
class HugeCountEndpoint : public net::Endpoint {
 public:
  explicit HugeCountEndpoint(std::string count)
      : id_("huge"), count_(std::move(count)) {}

  const std::string& id() const override { return id_; }

  Result<net::QueryResponse> QueryCancellable(const std::string& text,
                                              const CancelToken&) override {
    net::QueryResponse response;
    if (lusail::LooksLikeAskQuery(text)) {
      response.SetAskVerdict(true);
      return response;
    }
    sparql::ResultTable table;
    table.vars = {"c"};
    table.rows.push_back({rdf::Term::TypedLiteral(
        count_, "http://www.w3.org/2001/XMLSchema#integer")});
    SetPayload(&response, table);
    return response;
  }

 private:
  std::string id_;
  std::string count_;
};

TEST(CostModelCountTest, HugeCountSurvivesCollection) {
  fed::Federation federation;
  federation.Add(std::make_shared<HugeCountEndpoint>("9007199254740993"));
  ThreadPool pool(2);
  core::CostModel model(&federation, &pool);
  auto query = sparql::ParseQuery("SELECT ?s WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(query.ok());
  fed::MetricsCollector metrics;
  Status status = model.CollectStatistics(query->where.triples, {{0}}, {},
                                          &metrics, CancelToken());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(model.PatternCount(0, 0), 9007199254740993ull);
}

// ---------------------------------------------------------------------
// Regression: SAPE empty-partner short-circuit
// ---------------------------------------------------------------------

TEST(SapeEmptyPartnerTest, DelayedSubqueryWithEmptyPartnerIsNotFetched) {
  // EP0 holds nothing matching the first subquery's pattern (zero rows);
  // EP1 holds a large relation for the delayed second subquery. The fix
  // must short-circuit the delayed subquery without contacting EP1.
  std::vector<workload::EndpointSpec> specs(2);
  specs[0].id = "ep0";
  specs[0].triples.push_back({rdf::Term::Iri("urn:a"),
                              rdf::Term::Iri("urn:unrelated"),
                              rdf::Term::Iri("urn:b")});
  specs[1].id = "ep1";
  for (int i = 0; i < 100; ++i) {
    specs[1].triples.push_back(
        {rdf::Term::Iri("urn:x" + std::to_string(i)), rdf::Term::Iri("urn:q"),
         rdf::Term::Iri("urn:y" + std::to_string(i))});
  }
  auto federation =
      workload::BuildFederation(std::move(specs), net::LatencyModel::None());

  auto query = sparql::ParseQuery(
      "SELECT ?s ?x ?y WHERE { ?s <urn:p> ?x . ?x <urn:q> ?y . }");
  ASSERT_TRUE(query.ok());

  core::Subquery empty_sq;
  empty_sq.triple_indices = {0};
  empty_sq.sources = {0};
  empty_sq.projection = {"s", "x"};
  empty_sq.estimated_cardinality = 0.0;

  core::Subquery delayed_sq;
  delayed_sq.triple_indices = {1};
  delayed_sq.sources = {1};
  delayed_sq.projection = {"x", "y"};
  delayed_sq.estimated_cardinality = 1e6;  // Forces the delay decision.

  core::LusailOptions options;
  ThreadPool pool(4);
  core::SapeExecutor sape(federation.get(), &pool, &options);
  core::TermDictionary dict;
  auto result = sape.Execute({empty_sq, delayed_sq}, query->where.triples,
                             &dict, nullptr, CancelToken());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 0u);

  // EP1 (the delayed subquery's only source) was never contacted.
  auto* ep1 = dynamic_cast<net::SparqlEndpoint*>(federation->endpoint(1));
  ASSERT_NE(ep1, nullptr);
  EXPECT_EQ(ep1->stats().requests, 0u);
  // EP0 was queried for the concurrent-phase subquery.
  auto* ep0 = dynamic_cast<net::SparqlEndpoint*>(federation->endpoint(0));
  ASSERT_NE(ep0, nullptr);
  EXPECT_EQ(ep0->stats().requests, 1u);
}

// ---------------------------------------------------------------------
// Regression: bound join re-checks cancellation between VALUES chunks
// ---------------------------------------------------------------------

/// Decorator that fires `token` after serving each request — the
/// deterministic "client gives up right after the first bound-join
/// chunk" scenario.
class CancelAfterRequestEndpoint : public net::Endpoint {
 public:
  CancelAfterRequestEndpoint(std::shared_ptr<net::Endpoint> inner,
                             CancelToken token)
      : inner_(std::move(inner)), token_(std::move(token)) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    Result<net::QueryResponse> response =
        inner_->QueryCancellable(text, cancel);
    requests_.fetch_add(1, std::memory_order_relaxed);
    token_.Cancel();
    return response;
  }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  CancelToken token_;
  std::atomic<uint64_t> requests_{0};
};

/// A found subquery with 8 bindings on ep0 and a delayed subquery on ep1,
/// bound in 8 one-binding VALUES blocks; ep1 fires `token` after serving
/// each request. Runs the pair on a `threads`-thread pool and returns
/// the result and, in `requests`, how many requests ep1 served.
Result<core::IdTable> RunCancelledBoundJoin(size_t threads,
                                            uint64_t* requests) {
  auto store0 = std::make_unique<store::TripleStore>();
  auto store1 = std::make_unique<store::TripleStore>();
  for (int i = 0; i < 8; ++i) {
    store0->Add({rdf::Term::Iri("urn:s" + std::to_string(i)),
                 rdf::Term::Iri("urn:p"),
                 rdf::Term::Iri("urn:x" + std::to_string(i))});
    store1->Add({rdf::Term::Iri("urn:x" + std::to_string(i)),
                 rdf::Term::Iri("urn:q"),
                 rdf::Term::Iri("urn:y" + std::to_string(i))});
  }
  store0->Freeze();
  store1->Freeze();

  CancelToken token = CancelToken::Cancellable();
  auto ep1 = std::make_shared<CancelAfterRequestEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep1", std::move(store1),
                                            net::LatencyModel::None()),
      token);
  fed::Federation federation;
  federation.Add(std::make_shared<net::SparqlEndpoint>(
      "ep0", std::move(store0), net::LatencyModel::None()));
  federation.Add(ep1);

  auto query = sparql::ParseQuery(
      "SELECT ?s ?x ?y WHERE { ?s <urn:p> ?x . ?x <urn:q> ?y . }");
  EXPECT_TRUE(query.ok());
  if (!query.ok()) return query.status();

  core::Subquery found_sq;
  found_sq.triple_indices = {0};
  found_sq.sources = {0};
  found_sq.projection = {"s", "x"};
  found_sq.estimated_cardinality = 8.0;

  core::Subquery delayed_sq;
  delayed_sq.triple_indices = {1};
  delayed_sq.sources = {1};
  delayed_sq.projection = {"x", "y"};
  delayed_sq.estimated_cardinality = 1e6;  // Forces the delay decision.

  core::LusailOptions options;
  options.bound_join_block_size = 1;  // 8 bindings -> 8 VALUES chunks.
  Result<core::IdTable> result = Status::Internal("not run");
  {
    ThreadPool pool(threads);
    core::SapeExecutor sape(&federation, &pool, &options);
    core::TermDictionary dict;
    result = sape.Execute({found_sq, delayed_sq}, query->where.triples,
                          &dict, nullptr, token);
  }
  *requests = ep1->requests();
  return result;
}

/// Regression (per-chunk cancellation): a delayed subquery shipping its
/// bindings in N VALUES blocks must stop sending once the cancel or
/// deadline fires, not fire the remaining requests, and still fail with
/// the bound join's kTimeout. One pool thread sends the wave's blocks in
/// order, so the first block's cancel reaches every later one unsent.
TEST(SapeBoundJoinCancelTest, CancelBetweenValuesChunksStopsFetching) {
  uint64_t requests = 0;
  auto result = RunCancelledBoundJoin(/*threads=*/1, &requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("bound join"), std::string::npos)
      << result.status().ToString();
  // One chunk was served when the token fired; the remaining 7 must not
  // have been sent.
  EXPECT_EQ(requests, 1u);
}

/// On four threads up to four blocks may be on their way when the first
/// one's cancel fires; every block after them stays unsent.
TEST(SapeBoundJoinCancelTest, CancelMidWaveOnFourThreadsStopsFetching) {
  uint64_t requests = 0;
  auto result = RunCancelledBoundJoin(/*threads=*/4, &requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("bound join"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(requests, 1u);
  EXPECT_LT(requests, 8u);
}

// ---------------------------------------------------------------------
// Regression: parallel cartesian join path
// ---------------------------------------------------------------------

TEST(ParallelCartesianTest, MatchesSingleThreadedProduct) {
  core::TermDictionary dict;
  core::IdTable left, right;
  left.vars = {"a"};
  right.vars = {"b"};
  for (int i = 0; i < 80; ++i) {
    left.AppendRow({dict.Intern(rdf::Term::Iri("urn:l" + std::to_string(i)))});
  }
  for (int i = 0; i < 60; ++i) {
    right.AppendRow({dict.Intern(rdf::Term::Iri("urn:r" + std::to_string(i)))});
  }
  ThreadPool pool(4);
  core::IdTable parallel = core::ParallelHashJoin(left, right, &pool, 4);
  core::IdTable serial = core::JoinIds(left, right, /*left_outer=*/false);
  ASSERT_EQ(parallel.NumRows(), 80u * 60u);
  ASSERT_EQ(serial.NumRows(), parallel.NumRows());

  auto fingerprint = [](const core::IdTable& t) {
    std::multiset<std::string> out;
    size_t a = static_cast<size_t>(t.VarIndex("a"));
    size_t b = static_cast<size_t>(t.VarIndex("b"));
    for (size_t r = 0; r < t.NumRows(); ++r) {
      out.insert(std::to_string(t.At(r, a)) + "|" + std::to_string(t.At(r, b)));
    }
    return out;
  };
  EXPECT_EQ(fingerprint(parallel), fingerprint(serial));
}

TEST(ParallelCartesianTest, EmptySideYieldsEmptyProduct) {
  core::IdTable left, right;
  left.vars = {"a"};
  right.vars = {"b"};
  for (int i = 0; i < 5000; ++i) {
    left.AppendRow({static_cast<rdf::TermId>(i + 1)});
  }
  ThreadPool pool(4);
  core::IdTable product = core::ParallelHashJoin(left, right, &pool, 4);
  EXPECT_EQ(product.NumRows(), 0u);
  EXPECT_EQ(product.vars.size(), 2u);
}

// ---------------------------------------------------------------------
// Crash-safe snapshots: SaveToDisk / LoadFromDisk
// ---------------------------------------------------------------------

std::string SnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "lusail_" + name + ".cache";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(CacheSnapshotTest, RoundTripRestoresVerdictsAndCounts) {
  const std::string path = SnapshotPath("roundtrip");
  cache::FederationCache original;
  std::string k_yes = cache::FederationCache::Key("ep0", "ASK { a }");
  std::string k_no = cache::FederationCache::Key("ep0", "ASK { b }");
  std::string k_count = cache::FederationCache::Key("ep1", "COUNT q");
  original.PutVerdict(k_yes, "ep0", true);
  original.PutVerdict(k_no, "ep0", false);
  original.PutCount(k_count, "ep1", 42);
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  cache::FederationCache restored;
  auto loaded = restored.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3u);
  EXPECT_EQ(restored.GetVerdict(k_yes), std::optional<bool>(true));
  EXPECT_EQ(restored.GetVerdict(k_no), std::optional<bool>(false));
  EXPECT_EQ(restored.GetCount(k_count), std::optional<uint64_t>(42));
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, ResultTablesAreDeliberatelyNotPersisted) {
  const std::string path = SnapshotPath("no_results");
  cache::FederationCache original;
  sparql::ResultTable table;
  table.vars = {"s"};
  table.rows.push_back({rdf::Term::Iri("http://ex/s")});
  original.PutResult("ep0", "SELECT q", IdPayload(table));
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  cache::FederationCache restored;
  auto loaded = restored.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0u);
  EXPECT_FALSE(restored.GetResult("ep0", "SELECT q").has_value());
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, MissingSnapshotIsNotFound) {
  cache::FederationCache cache;
  auto loaded = cache.LoadFromDisk(SnapshotPath("does_not_exist"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CacheSnapshotTest, CorruptSnapshotIsRejectedWithoutTouchingTheCache) {
  const std::string path = SnapshotPath("corrupt");
  cache::FederationCache original;
  original.PutVerdict(cache::FederationCache::Key("ep0", "q"), "ep0", true);
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] ^= 0x5a;  // Flip bits mid-body.
  WriteFile(path, bytes);

  cache::FederationCache restored;
  auto loaded = restored.LoadFromDisk(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(restored.VerdictStats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, TruncatedSnapshotIsRejected) {
  const std::string path = SnapshotPath("truncated");
  cache::FederationCache original;
  original.PutVerdict(cache::FederationCache::Key("ep0", "q"), "ep0", true);
  ASSERT_TRUE(original.SaveToDisk(path).ok());
  std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));

  cache::FederationCache restored;
  EXPECT_FALSE(restored.LoadFromDisk(path).ok());
  EXPECT_EQ(restored.VerdictStats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, PreSaveInvalidationsStayDeadAfterLoad) {
  const std::string path = SnapshotPath("generations");
  cache::FederationCache original;
  std::string k0 = cache::FederationCache::Key("ep0", "q");
  std::string k1 = cache::FederationCache::Key("ep1", "q");
  original.PutVerdict(k0, "ep0", true);
  original.PutVerdict(k1, "ep1", true);
  // ep0's store mutated before the save: its entry must not resurrect
  // on a restarted process, even though it was written to the tier.
  original.Invalidate("ep0");
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  cache::FederationCache restored;
  auto loaded = restored.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
  EXPECT_FALSE(restored.GetVerdict(k0).has_value());
  EXPECT_EQ(restored.GetVerdict(k1), std::optional<bool>(true));

  // And an invalidation *after* the restore still works on restored
  // entries (the generation map survived the round trip).
  restored.Invalidate("ep1");
  EXPECT_FALSE(restored.GetVerdict(k1).has_value());
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, LiveEntriesWinOverSnapshotEntries) {
  const std::string path = SnapshotPath("live_wins");
  std::string key = cache::FederationCache::Key("ep0", "q");
  cache::FederationCache original;
  original.PutVerdict(key, "ep0", true);
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  cache::FederationCache target;
  target.PutVerdict(key, "ep0", false);  // Fresher than the snapshot.
  auto loaded = target.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0u);
  EXPECT_EQ(target.GetVerdict(key), std::optional<bool>(false));
  std::remove(path.c_str());
}

TEST(CacheSnapshotTest, CachedAskEndpointWarmLoadsToZeroColdProbes) {
  const std::string path = SnapshotPath("ask_endpoint");
  auto store = [] {
    auto s = std::make_unique<store::TripleStore>();
    s->Add(rdf::TermTriple{rdf::Term::Iri("http://ex/s"),
                           rdf::Term::Iri("http://ex/p"),
                           rdf::Term::Integer(1)});
    s->Freeze();
    return s;
  };
  const std::string ask = "ASK { ?s <http://ex/p> ?o . }";

  // First process lifetime: serve, memoize, snapshot on shutdown.
  {
    cache::FederationCache verdicts;
    cache::CachedAskEndpoint endpoint(
        std::make_shared<net::SparqlEndpoint>("ep", store(),
                                              net::LatencyModel::None()),
        &verdicts);
    auto cold = endpoint.Query(ask);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->RowCount(), 1u);
    EXPECT_EQ(endpoint.misses(), 1u);
    auto warm = endpoint.Query(ask);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->RowCount(), 1u);
    EXPECT_EQ(endpoint.hits(), 1u);
    // Non-ASK traffic bypasses the verdict tier entirely.
    ASSERT_TRUE(
        endpoint.Query("SELECT ?s WHERE { ?s <http://ex/p> ?o . }").ok());
    EXPECT_EQ(endpoint.hits() + endpoint.misses(), 2u);
    ASSERT_TRUE(verdicts.SaveToDisk(path).ok());
  }

  // Restarted process: warm-load, then answer the repeated probe with
  // verdict hits > 0 and zero cold evaluations.
  {
    cache::FederationCache verdicts;
    ASSERT_TRUE(verdicts.LoadFromDisk(path).ok());
    cache::CachedAskEndpoint endpoint(
        std::make_shared<net::SparqlEndpoint>("ep", store(),
                                              net::LatencyModel::None()),
        &verdicts);
    auto warm = endpoint.Query(ask);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->RowCount(), 1u);
    EXPECT_EQ(endpoint.hits(), 1u);
    EXPECT_EQ(endpoint.misses(), 0u);
    EXPECT_GT(verdicts.VerdictStats().hits, 0u);
  }
  std::remove(path.c_str());
}

TEST_F(SharedCacheLubmTest, SnapshotWarmStartSkipsEveryAskProbe) {
  const std::string path = SnapshotPath("warm_start");

  // First federator lifetime: cold run populates the shared cache, then
  // snapshots it at shutdown.
  std::multiset<std::string> reference;
  const std::string query = queries_.front().second;
  {
    cache::FederationCache cache;
    federation_->set_query_cache(&cache);
    core::LusailEngine engine(federation_.get());
    auto cold = engine.Execute(query, Deadline());
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_GT(cold->profile.ask_requests, 0u);
    reference = RowSet(cold->table);
    ASSERT_TRUE(cache.SaveToDisk(path).ok());
    federation_->set_query_cache(nullptr);
  }

  // Restarted federator: a fresh cache warm-loaded from the snapshot
  // answers every source-selection probe, so the repeated query issues
  // zero ASK requests yet returns identical rows.
  {
    cache::FederationCache cache;
    auto loaded = cache.LoadFromDisk(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_GT(*loaded, 0u);
    federation_->set_query_cache(&cache);
    core::LusailEngine engine(federation_.get());
    auto warm = engine.Execute(query, Deadline());
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->profile.ask_requests, 0u);
    EXPECT_GT(cache.VerdictStats().hits, 0u);
    EXPECT_EQ(RowSet(warm->table), reference);
    federation_->set_query_cache(nullptr);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Member-id fan-out: Invalidate(logical id) reaches shard/replica ids
// ---------------------------------------------------------------------

TEST(FederationCacheTest, InvalidateReachesRegisteredMemberIds) {
  cache::FederationCache cache;
  cache.RegisterMemberIds("lubm", {"lubm#0", "lubm#1"});

  std::string k0 = cache::FederationCache::Key("lubm#0", "ASK { a }");
  std::string k1 = cache::FederationCache::Key("lubm#1", "COUNT q");
  std::string k_logical = cache::FederationCache::Key("lubm", "ASK { b }");
  std::string k_other = cache::FederationCache::Key("other", "ASK { a }");
  cache.PutVerdict(k0, "lubm#0", true);
  cache.PutCount(k1, "lubm#1", 7);
  cache.PutVerdict(k_logical, "lubm", false);
  cache.PutVerdict(k_other, "other", true);

  // Invalidating the *logical* endpoint must outdate the member-keyed
  // entries too — cached per-shard verdicts must not outlive the logical
  // endpoint's data — while unrelated endpoints keep theirs.
  cache.Invalidate("lubm");
  EXPECT_FALSE(cache.GetVerdict(k0).has_value());
  EXPECT_FALSE(cache.GetCount(k1).has_value());
  EXPECT_FALSE(cache.GetVerdict(k_logical).has_value());
  EXPECT_EQ(cache.GetVerdict(k_other), std::optional<bool>(true));
}

TEST(FederationCacheTest, MemberRegistrationAccumulatesAndDedups) {
  cache::FederationCache cache;
  cache.RegisterMemberIds("ep", {"ep#0"});
  cache.RegisterMemberIds("ep", {"ep#0", "ep#1"});  // Idempotent + growth.
  cache.RegisterMemberIds("ep", {"ep"});  // Self-registration is a no-op.

  std::string k0 = cache::FederationCache::Key("ep#0", "q");
  std::string k1 = cache::FederationCache::Key("ep#1", "q");
  cache.PutVerdict(k0, "ep#0", true);
  cache.PutVerdict(k1, "ep#1", true);
  cache.Invalidate("ep");
  EXPECT_FALSE(cache.GetVerdict(k0).has_value());
  EXPECT_FALSE(cache.GetVerdict(k1).has_value());

  // Invalidating a member directly still touches only that member.
  cache.PutVerdict(k0, "ep#0", true);
  cache.PutVerdict(k1, "ep#1", true);
  cache.Invalidate("ep#0");
  EXPECT_FALSE(cache.GetVerdict(k0).has_value());
  EXPECT_EQ(cache.GetVerdict(k1), std::optional<bool>(true));
}

}  // namespace
}  // namespace lusail
