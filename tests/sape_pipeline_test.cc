// Tests for SAPE's pipelined bound join: a delayed subquery sends all of
// its VALUES blocks in one wave and unions the parts in block order. A
// row-limited whole-query fetch sends its first source alone, then the
// rest in one wave.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/sape.h"
#include "net/sparql_endpoint.h"
#include "obs/trace.h"
#include "sparql/parser.h"

namespace lusail {
namespace {

/// Fails every request whose text contains `marker` (never, when it is
/// empty) with kUnavailable; forwards the rest.
class FailOnTextEndpoint : public net::Endpoint {
 public:
  FailOnTextEndpoint(std::shared_ptr<net::Endpoint> inner, std::string marker)
      : inner_(std::move(inner)), marker_(std::move(marker)) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (!marker_.empty() && text.find(marker_) != std::string::npos) {
      return Status::Unavailable("injected failure");
    }
    return inner_->QueryCancellable(text, cancel);
  }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  std::string marker_;
  std::atomic<uint64_t> requests_{0};
};

std::string Iri(const std::string& prefix, size_t i) {
  std::string digits = std::to_string(i);
  return "urn:" + prefix + std::string(3 - digits.size(), '0') + digits;
}

/// A found subquery on ep0 (`?s p ?x`, `n` bindings of ?x) and a delayed
/// two-pattern subquery (`?x q ?y . ?y r ?z`) on ep1 and ep2. ep1 holds
/// two chains per binding, so the bound join's table is twice the found
/// table and the final join probes with it: the answer keeps the bound
/// join's row order. ep2 holds chains that join nothing, so it is a
/// relevant source that answers each block empty. Both bound-join
/// sources sit behind a FailOnTextEndpoint and charge `latency`.
struct ChainFixture {
  ChainFixture(size_t n, net::LatencyModel latency,
               const std::string& fail_marker = "") {
    auto store0 = std::make_unique<store::TripleStore>();
    auto store1 = std::make_unique<store::TripleStore>();
    auto store2 = std::make_unique<store::TripleStore>();
    for (size_t i = 0; i < n; ++i) {
      store0->Add({rdf::Term::Iri(Iri("s", i)), rdf::Term::Iri("urn:p"),
                   rdf::Term::Iri(Iri("x", i))});
      for (const char* y : {"ya", "yb"}) {
        store1->Add({rdf::Term::Iri(Iri("x", i)), rdf::Term::Iri("urn:q"),
                     rdf::Term::Iri(Iri(y, i))});
        store1->Add({rdf::Term::Iri(Iri(y, i)), rdf::Term::Iri("urn:r"),
                     rdf::Term::Iri(Iri("z", i))});
      }
      store2->Add({rdf::Term::Iri(Iri("w", i)), rdf::Term::Iri("urn:q"),
                   rdf::Term::Iri(Iri("v", i))});
      store2->Add({rdf::Term::Iri(Iri("v", i)), rdf::Term::Iri("urn:r"),
                   rdf::Term::Iri(Iri("u", i))});
    }
    store0->Freeze();
    store1->Freeze();
    store2->Freeze();
    ep1 = std::make_shared<FailOnTextEndpoint>(
        std::make_shared<net::SparqlEndpoint>("ep1", std::move(store1),
                                              latency),
        fail_marker);
    ep2 = std::make_shared<FailOnTextEndpoint>(
        std::make_shared<net::SparqlEndpoint>("ep2", std::move(store2),
                                              latency),
        "");
    federation.Add(std::make_shared<net::SparqlEndpoint>(
        "ep0", std::move(store0), net::LatencyModel::None()));
    federation.Add(ep1);
    federation.Add(ep2);

    auto query = sparql::ParseQuery(
        "SELECT ?s ?x ?y ?z WHERE { ?s <urn:p> ?x . ?x <urn:q> ?y . "
        "?y <urn:r> ?z . }");
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (query.ok()) triples = query->where.triples;

    found.triple_indices = {0};
    found.sources = {0};
    found.projection = {"s", "x"};
    found.estimated_cardinality = static_cast<double>(n);

    delayed.triple_indices = {1, 2};
    delayed.sources = {1, 2};
    delayed.projection = {"x", "y", "z"};
    delayed.estimated_cardinality = 1e6;  // Forces the delay decision.
  }

  Result<core::IdTable> Run(const core::LusailOptions& options,
                            core::TermDictionary* dict,
                            fed::MetricsCollector* metrics = nullptr,
                            size_t pool_threads = 4) {
    ThreadPool pool(pool_threads);
    core::SapeExecutor sape(&federation, &pool, &options);
    return sape.Execute({found, delayed}, triples, dict, metrics,
                        CancelToken());
  }

  /// Bound-join requests sent so far, over both sources.
  uint64_t BoundRequests() const { return ep1->requests() + ep2->requests(); }

  std::shared_ptr<FailOnTextEndpoint> ep1;
  std::shared_ptr<FailOnTextEndpoint> ep2;
  fed::Federation federation;
  std::vector<sparql::TriplePattern> triples;
  core::Subquery found;
  core::Subquery delayed;
};

/// Rows decoded to text, in table order, each cell in `vars` order.
std::vector<std::string> RowsOf(const core::IdTable& table,
                                const core::TermDictionary& dict) {
  const std::vector<std::string> vars = {"s", "x", "y", "z"};
  std::vector<std::string> rows;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (const std::string& v : vars) {
      const int c = table.VarIndex(v);
      const rdf::TermId id =
          c < 0 ? rdf::kInvalidTermId : table.At(r, static_cast<size_t>(c));
      row += (id == rdf::kInvalidTermId ? "UNDEF" : dict.term(id).ToString()) +
             " ";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

const obs::Span* DelayedSpan(const obs::Trace& trace) {
  for (const obs::Span* span : trace.ByCategory("subquery")) {
    for (const obs::SpanAnnotation& a : span->annotations) {
      if (a.key == "mode" && a.value == "delayed") return span;
    }
  }
  return nullptr;
}

std::string AnnotationOf(const obs::Span& span, const std::string& key) {
  for (const obs::SpanAnnotation& a : span.annotations) {
    if (a.key == key) return a.value;
  }
  return "";
}

TEST(SapeBoundJoinPipelineTest, BlocksUnionInSingleBlockOrder) {
  constexpr size_t kBindings = 20;
  ChainFixture reference_fixture(kBindings, net::LatencyModel::None());
  core::LusailOptions single;
  single.bound_join_block_size = kBindings;
  core::TermDictionary reference_dict;
  auto reference = reference_fixture.Run(single, &reference_dict);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<std::string> expected = RowsOf(*reference, reference_dict);
  ASSERT_EQ(expected.size(), 2 * kBindings);
  EXPECT_EQ(reference_fixture.BoundRequests(), 2u);

  for (size_t block : {1u, 3u, 7u}) {
    ChainFixture fixture(kBindings, net::LatencyModel::None());
    core::LusailOptions options;
    options.bound_join_block_size = block;
    core::TermDictionary dict;
    fed::MetricsCollector metrics;
    obs::Tracer tracer;
    metrics.SetTracer(&tracer);
    auto result = fixture.Run(options, &dict, &metrics);
    ASSERT_TRUE(result.ok()) << "block " << block << ": "
                             << result.status().ToString();
    EXPECT_EQ(RowsOf(*result, dict), expected) << "block " << block;

    const size_t blocks = (kBindings + block - 1) / block;
    EXPECT_EQ(fixture.ep1->requests(), blocks) << "block " << block;
    EXPECT_EQ(fixture.ep2->requests(), blocks) << "block " << block;
    const obs::Trace trace = tracer.Snapshot();
    const obs::Span* span = DelayedSpan(trace);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(AnnotationOf(*span, "values_blocks"), std::to_string(blocks));
    EXPECT_EQ(AnnotationOf(*span, "waves"), "1") << "block " << block;
  }
}

TEST(SapeBoundJoinPipelineTest, EightBlocksTakeOneRoundTrip) {
  // Each bound-join request waits `kRoundTripMs` on the federation's
  // timer. Serial blocks would take 8 round trips; one wave takes 1, and
  // a first block sent alone would make it 2.
  constexpr double kRoundTripMs = 100.0;
  ChainFixture fixture(16, net::LatencyModel{kRoundTripMs, 0.0, 1.0});
  core::LusailOptions options;
  options.bound_join_block_size = 2;
  core::TermDictionary dict;
  fed::MetricsCollector metrics;
  obs::Tracer tracer;
  metrics.SetTracer(&tracer);
  Stopwatch timer;
  auto result = fixture.Run(options, &dict, &metrics);
  const double elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 32u);
  EXPECT_EQ(fixture.BoundRequests(), 16u);
  EXPECT_GE(elapsed_ms, kRoundTripMs);
  EXPECT_LT(elapsed_ms, 2 * kRoundTripMs);

  const obs::Trace trace = tracer.Snapshot();
  const obs::Span* span = DelayedSpan(trace);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(AnnotationOf(*span, "values_blocks"), "8");
  EXPECT_EQ(AnnotationOf(*span, "waves"), "1");
}

TEST(SapeBoundJoinPipelineTest, SingleBlockIsOneWave) {
  ChainFixture fixture(5, net::LatencyModel::None());
  core::LusailOptions options;  // Block size 50: one block.
  core::TermDictionary dict;
  fed::MetricsCollector metrics;
  obs::Tracer tracer;
  metrics.SetTracer(&tracer);
  auto result = fixture.Run(options, &dict, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 10u);
  const obs::Trace trace = tracer.Snapshot();
  const obs::Span* span = DelayedSpan(trace);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(AnnotationOf(*span, "values_blocks"), "1");
  EXPECT_EQ(AnnotationOf(*span, "waves"), "1");
}

TEST(SapeBoundJoinPipelineTest, FailedWaveBlockFailsQueryAfterEveryBlock) {
  // Block size 2 over 20 bindings: x006 rides in the fourth block, so it
  // fails inside the wave, with later blocks still in flight.
  ChainFixture fixture(20, net::LatencyModel::None(), Iri("x", 6));
  core::LusailOptions options;
  options.bound_join_block_size = 2;
  auto dict = std::make_unique<core::TermDictionary>();
  auto result = fixture.Run(options, dict.get());
  // Every request of the wave was issued and consumed before Execute
  // returned: dropping the dictionary now leaves nothing to touch it
  // (ASan/TSan would flag a late response).
  dict.reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("1 of 2 endpoint requests failed"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("ep1"), std::string::npos) << message;
  // Blocks 1-4 reached ep1; the wave's blocks still queued when block 4
  // failed were skipped, however many the pool had already started.
  EXPECT_GE(fixture.ep1->requests(), 4u);
  EXPECT_LE(fixture.ep1->requests(), 10u);
  EXPECT_LE(fixture.ep2->requests(), 10u);
}

TEST(SapeBoundJoinPipelineTest, FailedBlockSkipsTheBlocksNotYetSent) {
  // One pool thread sends the wave's fetches in block order: block 4's
  // request to ep1 fails and fires the cutoff before anything after it
  // is sent, so ep1 sees blocks 1-4 and ep2 blocks 1-3.
  ChainFixture fixture(20, net::LatencyModel::None(), Iri("x", 6));
  core::LusailOptions options;
  options.bound_join_block_size = 2;
  core::TermDictionary dict;
  fed::MetricsCollector metrics;
  auto result = fixture.Run(options, &dict, &metrics, /*pool_threads=*/1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("1 of 2 endpoint requests failed"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("ep1"), std::string::npos) << message;
  EXPECT_EQ(fixture.ep1->requests(), 4u);
  EXPECT_EQ(fixture.ep2->requests(), 3u);
  // Skipped fetches are cutoffs, not failures: nothing is sent or
  // accounted for them. The profile counts the answered requests: the
  // found subquery's at ep0 and blocks 1-3 at ep1 and at ep2.
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, 7u);
}

TEST(SapeBoundJoinPipelineTest, PartialResultsDropTheFailedBlock) {
  ChainFixture full_fixture(20, net::LatencyModel::None());
  core::LusailOptions options;
  options.bound_join_block_size = 2;
  core::TermDictionary full_dict;
  auto full = full_fixture.Run(options, &full_dict);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<std::string> exact = RowsOf(*full, full_dict);

  ChainFixture fixture(20, net::LatencyModel::None(), Iri("x", 6));
  options.partial_results = true;
  core::TermDictionary dict;
  fed::MetricsCollector metrics;
  auto result = fixture.Run(options, &dict, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<std::string> partial = RowsOf(*result, dict);
  // The failed block held two bindings, each answered by ep1 alone with
  // two rows.
  EXPECT_EQ(partial.size(), exact.size() - 4);
  for (const std::string& row : partial) {
    EXPECT_NE(std::find(exact.begin(), exact.end(), row), exact.end()) << row;
  }
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.failed_endpoint_ids, std::vector<std::string>{"ep1"});
  EXPECT_EQ(profile.subqueries_dropped, 0u);
}

/// Six endpoints answering one pattern, `?s <urn:p> ?o`, each behind a
/// FailOnTextEndpoint: endpoint e holds `rows[e]` triples, and ep0 fails
/// every request when `fail_first` holds. The whole query is one
/// subquery, so a LIMIT takes SAPE's row-limited whole-query path.
struct LimitFixture {
  LimitFixture(const std::vector<size_t>& rows, bool fail_first = false) {
    for (size_t e = 0; e < rows.size(); ++e) {
      auto store = std::make_unique<store::TripleStore>();
      for (size_t i = 0; i < rows[e]; ++i) {
        store->Add({rdf::Term::Iri(Iri("s", e * 100 + i)),
                    rdf::Term::Iri("urn:p"), rdf::Term::Integer(
                                                 static_cast<int64_t>(i))});
      }
      store->Freeze();
      const std::string id = "ep" + std::to_string(e);
      endpoints.push_back(std::make_shared<FailOnTextEndpoint>(
          std::make_shared<net::SparqlEndpoint>(id, std::move(store),
                                                net::LatencyModel::None()),
          fail_first && e == 0 ? "SELECT" : ""));
      federation.Add(endpoints.back());
      whole.sources.push_back(static_cast<int>(e));
    }
    auto query = sparql::ParseQuery("SELECT ?s ?o WHERE { ?s <urn:p> ?o . }");
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (query.ok()) triples = query->where.triples;
    whole.triple_indices = {0};
    whole.projection = {"s", "o"};
  }

  Result<core::IdTable> Run(const core::LusailOptions& options,
                            size_t row_limit, size_t pool_threads,
                            fed::MetricsCollector* metrics = nullptr) {
    ThreadPool pool(pool_threads);
    core::SapeExecutor sape(&federation, &pool, &options);
    core::TermDictionary dict;
    return sape.Execute({whole}, triples, &dict, metrics, CancelToken(),
                        nullptr, row_limit);
  }

  /// Requests each endpoint received, in endpoint order.
  std::vector<uint64_t> Requests() const {
    std::vector<uint64_t> out;
    for (const auto& ep : endpoints) out.push_back(ep->requests());
    return out;
  }

  std::vector<std::shared_ptr<FailOnTextEndpoint>> endpoints;
  fed::Federation federation;
  std::vector<sparql::TriplePattern> triples;
  core::Subquery whole;
};

TEST(SapeLimitRampTest, FirstSourceHoldingTheRowsIsOneRequest) {
  for (size_t threads : {1u, 4u}) {
    LimitFixture fixture({10, 10, 10, 10, 10, 10});
    auto result = fixture.Run(core::LusailOptions(), 5, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->NumRows(), 5u) << threads << " threads";
    EXPECT_EQ(fixture.Requests(),
              (std::vector<uint64_t>{1, 0, 0, 0, 0, 0}))
        << threads << " threads";
  }
}

TEST(SapeLimitRampTest, ShortFirstSourceSendsTheRestInOneWave) {
  // Two rows per source against a budget of 11: the first source is
  // short, so the other five go out together, and only the last of them
  // fills the budget.
  for (size_t threads : {1u, 4u}) {
    LimitFixture fixture({2, 2, 2, 2, 2, 2});
    auto result = fixture.Run(core::LusailOptions(), 11, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->NumRows(), 12u) << threads << " threads";
    EXPECT_EQ(fixture.Requests(),
              (std::vector<uint64_t>{1, 1, 1, 1, 1, 1}))
        << threads << " threads";
  }
}

TEST(SapeLimitRampTest, PartialResultsSendTheRestPastAFailedFirstSource) {
  LimitFixture fixture({2, 2, 2, 2, 2, 2}, /*fail_first=*/true);
  core::LusailOptions options;
  options.partial_results = true;
  fed::MetricsCollector metrics;
  auto result = fixture.Run(options, 10, 1, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ep0 fails and the other five answer two rows each.
  EXPECT_EQ(result->NumRows(), 10u);
  EXPECT_EQ(fixture.Requests(), (std::vector<uint64_t>{1, 1, 1, 1, 1, 1}));
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.failed_endpoint_ids, std::vector<std::string>{"ep0"});
}

TEST(SapeLimitRampTest, FailedFirstSourceWithoutPartialResultsSendsNoMore) {
  // Without partial_results the first failure decides the call, so the
  // other sources are never asked.
  for (size_t threads : {1u, 4u}) {
    LimitFixture fixture({2, 2, 2, 2, 2, 2}, /*fail_first=*/true);
    auto result = fixture.Run(core::LusailOptions(), 10, threads);
    EXPECT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(fixture.Requests(),
              (std::vector<uint64_t>{1, 0, 0, 0, 0, 0}))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace lusail
