// Tests for LADE's single wave: the GJV locality checks and the COUNT
// probes both need only the relevant sources, so a cold query sends them
// together and waits one round trip for both, in execution and in
// EXPLAIN's Analyze alike.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "core/lusail_engine.h"
#include "net/sparql_endpoint.h"
#include "obs/trace.h"

namespace lusail {
namespace {

constexpr double kRoundTripMs = 100.0;

/// Counts the locality checks and COUNT probes it forwards, and fails
/// every locality check with kUnavailable when `fail_checks` holds.
class ProbeCountingEndpoint : public net::Endpoint {
 public:
  ProbeCountingEndpoint(std::shared_ptr<net::Endpoint> inner, bool fail_checks)
      : inner_(std::move(inner)), fail_checks_(fail_checks) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    if (text.find("FILTER NOT EXISTS") != std::string::npos) {
      checks_.fetch_add(1, std::memory_order_relaxed);
      if (fail_checks_) return Status::Unavailable("injected check failure");
    } else if (text.find("COUNT") != std::string::npos) {
      counts_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->QueryCancellable(text, cancel);
  }

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t counts() const { return counts_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  bool fail_checks_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> counts_{0};
};

/// Two endpoints, each holding four local `?s p ?x . ?x q ?y` chains, and
/// each charging kRoundTripMs per request. ?x joins the two patterns and
/// both have the same sources, so LADE sends one locality check per
/// endpoint; each endpoint also gets one batched COUNT request for the
/// two patterns. Every check finds ?x local, so the query is one
/// subquery.
struct LadeFixture {
  explicit LadeFixture(bool fail_checks = false) {
    for (int e = 0; e < 2; ++e) {
      auto store = std::make_unique<store::TripleStore>();
      for (int i = 0; i < 4; ++i) {
        const std::string n = std::to_string(e) + "_" + std::to_string(i);
        store->Add({rdf::Term::Iri("urn:s" + n), rdf::Term::Iri("urn:p"),
                    rdf::Term::Iri("urn:x" + n)});
        store->Add({rdf::Term::Iri("urn:x" + n), rdf::Term::Iri("urn:q"),
                    rdf::Term::Iri("urn:y" + n)});
      }
      store->Freeze();
      endpoints.push_back(std::make_shared<ProbeCountingEndpoint>(
          std::make_shared<net::SparqlEndpoint>(
              "ep" + std::to_string(e), std::move(store),
              net::LatencyModel{kRoundTripMs, 0.0, 1.0}),
          fail_checks));
      federation.Add(endpoints.back());
    }
  }

  uint64_t Checks() const {
    return endpoints[0]->checks() + endpoints[1]->checks();
  }
  uint64_t Counts() const {
    return endpoints[0]->counts() + endpoints[1]->counts();
  }

  std::vector<std::shared_ptr<ProbeCountingEndpoint>> endpoints;
  fed::Federation federation;
};

const char* const kQuery =
    "SELECT ?s ?x ?y WHERE { ?s <urn:p> ?x . ?x <urn:q> ?y . }";

/// Requests whose span is a direct child of the phase span `name`.
size_t RequestsUnder(const obs::Trace& trace, const std::string& name) {
  size_t n = 0;
  for (const obs::Span* request : trace.ByCategory("request")) {
    const obs::Span* parent = trace.Find(request->parent);
    if (parent != nullptr && parent->name == name) ++n;
  }
  return n;
}

TEST(LadeWaveTest, ChecksAndCountsShareOneRoundTrip) {
  LadeFixture fixture;
  core::LusailOptions options;
  options.trace = true;
  core::LusailEngine engine(&fixture.federation, options);
  auto result = engine.Execute(kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 8u);
  const fed::ExecutionProfile& profile = result->profile;

  // Sent one after the other, checks and counts take two round trips.
  EXPECT_GE(profile.analysis_ms, kRoundTripMs);
  EXPECT_LT(profile.analysis_ms, 2 * kRoundTripMs);

  // The same requests as when they went one after the other: one check
  // and one COUNT request per endpoint, two ASK and two fetch requests.
  EXPECT_EQ(fixture.Checks(), 2u);
  EXPECT_EQ(fixture.Counts(), 2u);
  EXPECT_EQ(profile.requests, 8u);
  EXPECT_EQ(profile.ask_requests, 2u);
  // Source selection, LADE and the whole-query fetch: three waves, one
  // fewer than with LADE's checks and counts in two.
  EXPECT_EQ(profile.serial_waves, 3u);

  // Each overlapping phase span parents its own requests.
  ASSERT_NE(profile.trace, nullptr);
  EXPECT_EQ(RequestsUnder(*profile.trace, "gjv detection"), 2u);
  EXPECT_EQ(RequestsUnder(*profile.trace, "statistics"), 2u);
  EXPECT_EQ(RequestsUnder(*profile.trace, "LADE analysis"), 0u);
}

TEST(LadeWaveTest, WarmQueryCountsNoWaveForCachedProbes) {
  LadeFixture fixture;
  core::LusailEngine engine(&fixture.federation);
  ASSERT_TRUE(engine.Execute(kQuery).ok());
  auto warm = engine.Execute(kQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // ASK verdicts and check verdicts are cached per engine; the COUNT
  // probes (no shared cache attached) and the fetch go out again.
  EXPECT_EQ(fixture.Checks(), 2u);
  EXPECT_EQ(fixture.Counts(), 4u);
  EXPECT_EQ(warm->profile.serial_waves, 2u);
}

TEST(LadeWaveTest, AnalyzeSendsTheSameWave) {
  LadeFixture fixture;
  core::LusailEngine engine(&fixture.federation);
  Stopwatch timer;
  auto analyzed = engine.Analyze(kQuery);
  const double elapsed_ms = timer.ElapsedMillis();
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  // Source selection, then checks and counts together.
  EXPECT_GE(elapsed_ms, 2 * kRoundTripMs);
  EXPECT_LT(elapsed_ms, 3 * kRoundTripMs);
  EXPECT_EQ(analyzed->gjvs.check_queries, 2u);
  EXPECT_EQ(fixture.Counts(), 2u);
  EXPECT_TRUE(analyzed->gjvs.GjvNames().empty());
  EXPECT_EQ(analyzed->decomposition.subqueries.size(), 1u);
}

TEST(LadeWaveTest, FailedCheckFailsTheQueryAfterTheCounts) {
  auto fixture = std::make_unique<LadeFixture>(/*fail_checks=*/true);
  auto engine = std::make_unique<core::LusailEngine>(&fixture->federation);
  Stopwatch timer;
  auto result = engine->Execute(kQuery);
  const double elapsed_ms = timer.ElapsedMillis();
  // Dropping the engine drops its pool and its dictionary; a COUNT
  // response still on its way would land on both (ASan/TSan would flag
  // it during the wait below).
  engine.reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("locality check"),
            std::string::npos)
      << result.status().ToString();
  // The checks failed at once, but the query waited for the COUNT probes
  // in flight with them: source selection plus one more round trip.
  EXPECT_EQ(fixture->Checks(), 2u);
  EXPECT_EQ(fixture->Counts(), 2u);
  EXPECT_GE(elapsed_ms, 2 * kRoundTripMs);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(2 * kRoundTripMs)));
}

TEST(LadeWaveTest, PartialResultsTurnTheFailedPairGlobal) {
  LadeFixture fixture(/*fail_checks=*/true);
  core::LusailOptions options;
  options.partial_results = true;
  core::LusailEngine engine(&fixture.federation, options);
  auto result = engine.Execute(kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ?x goes global, so the two patterns run as separate subqueries and
  // join at the federator: the answer is still exact.
  EXPECT_EQ(result->table.NumRows(), 8u);
  EXPECT_FALSE(result->profile.partial);

  auto analyzed = engine.Analyze(kQuery);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed->gjvs.IsCausingPair(0, 1));
  EXPECT_TRUE(analyzed->gjvs.IsGjv("x"));
  EXPECT_EQ(analyzed->decomposition.subqueries.size(), 2u);
}

}  // namespace
}  // namespace lusail
