// Tests for the fault-tolerance layer: deterministic fault injection,
// retry + circuit-breaker resilience, and graceful degradation (partial
// results) across Lusail and the baseline engines.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/resilience.h"
#include "net/sparql_endpoint.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// A federation whose endpoints are wrapped in fault injectors. `base`
/// owns the real endpoints; `faulty` aliases them through the injectors.
struct ChaosFederation {
  std::unique_ptr<fed::Federation> base;
  fed::Federation faulty;
  std::vector<std::shared_ptr<net::FaultInjectingEndpoint>> injectors;
};

std::unique_ptr<ChaosFederation> WrapWithFaults(
    std::vector<workload::EndpointSpec> specs,
    const net::FaultProfile& profile) {
  auto out = std::make_unique<ChaosFederation>();
  out->base =
      workload::BuildFederation(std::move(specs), net::LatencyModel::None());
  for (size_t i = 0; i < out->base->size(); ++i) {
    auto inner = std::shared_ptr<net::Endpoint>(out->base->endpoint(i),
                                                [](net::Endpoint*) {});
    auto injector =
        std::make_shared<net::FaultInjectingEndpoint>(inner, profile);
    out->injectors.push_back(injector);
    out->faulty.Add(injector);
  }
  return out;
}

/// Issues `text` at endpoint `i` of `federation` under `retry` and waits
/// for the decoded table.
Result<sparql::ResultTable> IssueAndWait(const fed::Federation& federation,
                                         size_t i, const std::string& text,
                                         fed::MetricsCollector* metrics,
                                         const net::RetryPolicy* retry) {
  fed::IssueContext ctx;
  ctx.metrics = metrics;
  ctx.retry = retry;
  return federation
      .Issue(nullptr, i, text, std::move(ctx), fed::Federation::ToTable)
      .get();
}

/// Order-independent row fingerprints for result comparison.
std::vector<std::string> CanonicalRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string s;
    for (const auto& cell : row) {
      s += cell.has_value() ? cell->ToString() : "UNDEF";
      s += "\x1f";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::unique_ptr<store::TripleStore> TinyStore() {
  auto store = std::make_unique<store::TripleStore>();
  for (int i = 0; i < 5; ++i) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(i)),
        rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
  }
  store->Freeze();
  return store;
}

// ---------------------------------------------------------------------
// Fault injection determinism
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, SameSeedSameFaultStream) {
  net::FaultProfile profile;
  profile.seed = 99;
  profile.transient_error_rate = 0.3;
  profile.timeout_rate = 0.1;
  auto make = [&] {
    return std::make_unique<net::FaultInjectingEndpoint>(
        std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                              net::LatencyModel::None()),
        profile);
  };
  auto a = make();
  auto b = make();
  const std::string query = "ASK { ?s <http://ex/p> ?o . }";
  for (int i = 0; i < 50; ++i) {
    auto ra = a->Query(query);
    auto rb = b->Query(query);
    ASSERT_EQ(ra.ok(), rb.ok()) << "diverged at request " << i;
    if (!ra.ok()) {
      EXPECT_EQ(ra.status().code(), rb.status().code());
    }
  }
  EXPECT_EQ(a->stats().injected_errors, b->stats().injected_errors);
  EXPECT_EQ(a->stats().injected_timeouts, b->stats().injected_timeouts);
  EXPECT_GT(a->stats().injected_errors, 0u);
  EXPECT_GT(a->stats().passed_through, 0u);
}

TEST(FaultInjectionTest, DifferentSeedsDifferentStreams) {
  auto make = [](uint64_t seed) {
    return std::make_unique<net::FaultInjectingEndpoint>(
        std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                              net::LatencyModel::None()),
        net::FaultProfile::Transient(0.5, seed));
  };
  auto a = make(1);
  auto b = make(2);
  const std::string query = "ASK { ?s <http://ex/p> ?o . }";
  int diverged = 0;
  for (int i = 0; i < 64; ++i) {
    if (a->Query(query).ok() != b->Query(query).ok()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjectionTest, ResetHistoryReplaysTheStream) {
  auto injector = std::make_unique<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                            net::LatencyModel::None()),
      net::FaultProfile::Transient(0.4, 7));
  const std::string query = "ASK { ?s <http://ex/p> ?o . }";
  std::vector<bool> first;
  for (int i = 0; i < 30; ++i) first.push_back(injector->Query(query).ok());
  injector->ResetHistory();
  EXPECT_EQ(injector->stats().requests, 0u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(injector->Query(query).ok(), first[i]) << "request " << i;
  }
}

TEST(FaultInjectionTest, OutageWindowFailsByArrivalIndex) {
  net::FaultProfile profile;
  profile.outage_start = 2;
  profile.outage_length = 3;
  auto injector = std::make_unique<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                            net::LatencyModel::None()),
      profile);
  const std::string query = "ASK { ?s <http://ex/p> ?o . }";
  std::vector<bool> ok;
  for (int i = 0; i < 8; ++i) ok.push_back(injector->Query(query).ok());
  EXPECT_EQ(ok, (std::vector<bool>{true, true, false, false, false, true,
                                   true, true}));
  EXPECT_EQ(injector->stats().outage_failures, 3u);
}

TEST(FaultInjectionTest, HardDownFailsEverythingUntilRevived) {
  auto injector = std::make_unique<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                            net::LatencyModel::None()),
      net::FaultProfile::None());
  injector->set_down(true);
  const std::string query = "ASK { ?s <http://ex/p> ?o . }";
  auto r = injector->Query(query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(r.status().IsRetryable());
  injector->set_down(false);
  EXPECT_TRUE(injector->Query(query).ok());
}

// ---------------------------------------------------------------------
// Circuit breaker state machine
// ---------------------------------------------------------------------

net::CircuitBreakerConfig TightBreaker() {
  net::CircuitBreakerConfig config;
  config.window_size = 4;
  config.min_samples = 4;
  config.failure_rate_threshold = 0.5;
  config.open_cooldown_ms = 20.0;
  config.half_open_probes = 1;
  return config;
}

/// A breaker that never trips (a failure rate never exceeds 1), for tests
/// about retries alone.
net::CircuitBreakerConfig NeverTrippingBreaker() {
  net::CircuitBreakerConfig config;
  config.failure_rate_threshold = 2.0;
  return config;
}

TEST(CircuitBreakerTest, TripsAtFailureRateThreshold) {
  net::CircuitBreaker breaker(TightBreaker());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  // 3 of 4 outcomes failed >= 50%: this failure trips it.
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  net::CircuitBreaker breaker(TightBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(breaker.AllowRequest());  // Cooldown elapsed: half-open probe.
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());  // Only one probe admitted.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  net::CircuitBreaker breaker(TightBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_TRUE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  breaker.Reset();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------
// Federation request path: retries and the per-endpoint breaker
// ---------------------------------------------------------------------

TEST(FederationRetryTest, RetriesThroughTransientFaults) {
  auto injector = std::make_shared<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                            net::LatencyModel::None()),
      net::FaultProfile::Transient(0.5, 11));
  fed::Federation federation;
  federation.Add(injector);
  // At a 50% fault rate the breaker could legitimately open; this test
  // is about the retry loop alone.
  federation.ConfigureBreakers(NeverTrippingBreaker());
  net::RetryPolicy policy = net::RetryPolicy::Standard(8);
  policy.initial_backoff_ms = 0.1;
  policy.max_backoff_ms = 0.5;
  fed::MetricsCollector metrics;
  for (int i = 0; i < 20; ++i) {
    auto r = IssueAndWait(federation, 0, "ASK { ?s <http://ex/p> ?o . }",
                          &metrics, &policy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, 20u);
  EXPECT_GT(profile.retries, 0u);
  // Every attempt reached the endpoint: one per request plus each retry.
  EXPECT_EQ(injector->stats().requests, profile.requests + profile.retries);
}

TEST(FederationBreakerTest, BreakerOpensOnPersistentOutageAndFailsFast) {
  auto injector = std::make_shared<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ep0", TinyStore(),
                                            net::LatencyModel::None()),
      net::FaultProfile::None());
  injector->set_down(true);
  fed::Federation federation;
  federation.Add(injector);
  federation.ConfigureBreakers(TightBreaker());
  net::RetryPolicy policy = net::RetryPolicy::Standard(3);
  policy.initial_backoff_ms = 0.1;
  policy.max_backoff_ms = 0.5;
  fed::MetricsCollector metrics;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(
        IssueAndWait(federation, 0, "ASK { ?s ?p ?o . }", &metrics, &policy)
            .ok());
  }
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_GE(profile.breaker_trips, 1u);
  EXPECT_GT(profile.breaker_rejections, 0u);
  EXPECT_EQ(federation.breaker(0)->state(), net::CircuitBreaker::State::kOpen);
  // Fail-fast: once open, attempts stop growing with each call.
  EXPECT_LT(injector->stats().requests, 10u * 3u);
  auto r = IssueAndWait(federation, 0, "ASK { ?s ?p ?o . }", &metrics,
                        &policy);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("circuit breaker open"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Deadline-aware retries: no doomed attempts, no breaker pollution
// ---------------------------------------------------------------------

/// Endpoint that sleeps out the caller's remaining deadline budget (plus
/// a margin) and then fails with `code` — the shape of a server slower
/// than the client's patience.
class SleepOutDeadlineEndpoint : public net::Endpoint {
 public:
  SleepOutDeadlineEndpoint(std::string id, StatusCode code)
      : id_(std::move(id)), code_(code) {}

  const std::string& id() const override { return id_; }

  Result<net::QueryResponse> QueryCancellable(
      const std::string&, const CancelToken& cancel) override {
    const Deadline& deadline = cancel.deadline();
    attempts_.fetch_add(1, std::memory_order_relaxed);
    if (deadline.has_deadline()) {
      double remaining = deadline.RemainingMillis();
      if (remaining > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(remaining + 5.0));
      }
    }
    return Status(code_, "server outlived the caller's budget");
  }

  int attempts() const { return attempts_.load(std::memory_order_relaxed); }

 private:
  std::string id_;
  StatusCode code_;
  std::atomic<int> attempts_{0};
};

/// A breaker that would trip on the very first recorded failure.
net::CircuitBreakerConfig HairTriggerBreaker() {
  net::CircuitBreakerConfig config;
  config.window_size = 4;
  config.min_samples = 1;
  config.failure_rate_threshold = 0.5;
  return config;
}

/// Regression: a kTimeout that coincides with the caller's own expired
/// deadline is self-inflicted — it says nothing about endpoint health
/// and must not open the breaker (tight client deadlines would otherwise
/// trip breakers on perfectly healthy endpoints).
TEST(DeadlineRetryTest, SelfInflictedTimeoutDoesNotFeedTheBreaker) {
  SleepOutDeadlineEndpoint slow("slow", StatusCode::kTimeout);
  net::CircuitBreaker breaker(HairTriggerBreaker());
  net::RetryOutcome outcome;
  Result<net::QueryResponse> r = net::QueryWithRetry(
      &slow, "ASK { ?s ?p ?o . }", CancelToken(Deadline::AfterMillis(20)),
      net::RetryPolicy::Standard(3), &breaker, &outcome);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_EQ(outcome.breaker_trips, 0);
}

/// Contrast case: a server-side kTimeout while the caller still has
/// budget is real endpoint sickness and must keep feeding the breaker.
TEST(DeadlineRetryTest, ServerTimeoutWithBudgetLeftStillFeedsTheBreaker) {
  // Infinite client deadline: the endpoint fails instantly with kTimeout.
  SleepOutDeadlineEndpoint sick("sick", StatusCode::kTimeout);
  net::CircuitBreaker breaker(HairTriggerBreaker());
  net::RetryOutcome outcome;
  Result<net::QueryResponse> r = net::QueryWithRetry(
      &sick, "ASK { ?s ?p ?o . }", CancelToken(),
      net::RetryPolicy::Standard(2), &breaker, &outcome);
  ASSERT_FALSE(r.ok());
  EXPECT_GE(breaker.trips(), 1u);
}

/// Regression: when the deadline expires during an attempt, the retry
/// loop must bail with kTimeout instead of sleeping a backoff and
/// issuing a doomed attempt (or mislabeling the exit with the prior
/// attempt's kUnavailable).
TEST(DeadlineRetryTest, NoDoomedAttemptAfterDeadlineExpires) {
  SleepOutDeadlineEndpoint slow("slow", StatusCode::kUnavailable);
  net::RetryOutcome outcome;
  Result<net::QueryResponse> r = net::QueryWithRetry(
      &slow, "ASK { ?s ?p ?o . }", CancelToken(Deadline::AfterMillis(20)),
      net::RetryPolicy::Standard(3), /*breaker=*/nullptr, &outcome);
  ASSERT_FALSE(r.ok());
  // The deadline ended the loop, not the endpoint: kTimeout, one attempt.
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout)
      << r.status().ToString();
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(slow.attempts(), 1);
  EXPECT_EQ(outcome.retries, 0);
}

/// A fired cancel token stops the retry loop before any attempt.
TEST(DeadlineRetryTest, CancelledTokenStopsRetriesBeforeAnyAttempt) {
  SleepOutDeadlineEndpoint slow("slow", StatusCode::kUnavailable);
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  net::RetryOutcome outcome;
  Result<net::QueryResponse> r = net::QueryWithRetry(
      &slow, "ASK { ?s ?p ?o . }", token, net::RetryPolicy::Standard(3),
      /*breaker=*/nullptr, &outcome);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(outcome.attempts, 0);
  EXPECT_EQ(slow.attempts(), 0);
}

// ---------------------------------------------------------------------
// End-to-end: flaky federation + retries converge to exact results
// ---------------------------------------------------------------------

TEST(RetryConvergenceTest, FlakyFederationMatchesFaultFreeResults) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());

  // Ground truth from a fault-free federation.
  auto clean = workload::BuildFederation(gen.GenerateAll(),
                                         net::LatencyModel::None());
  core::LusailEngine oracle(clean.get());

  // The same data behind 20%-flaky endpoints, with retries enabled.
  auto chaos =
      WrapWithFaults(gen.GenerateAll(), net::FaultProfile::Transient(0.2, 5));
  // The breaker's sliding window mixes outcomes from concurrently
  // executing subqueries, so whether sustained 20% noise trips it is
  // interleaving-dependent. This test pins down retry *convergence*;
  // breaker behaviour has its own deterministic tests above and below.
  chaos->faulty.ConfigureBreakers(NeverTrippingBreaker());
  core::LusailOptions options;
  options.retry_policy = net::RetryPolicy::Standard(6);
  options.retry_policy.initial_backoff_ms = 0.1;
  options.retry_policy.max_backoff_ms = 0.5;
  core::LusailEngine flaky(&chaos->faulty, options);

  uint64_t total_retries = 0;
  for (const auto& [label, query] : workload::LubmGenerator::BenchmarkQueries()) {
    auto expected = oracle.Execute(query);
    ASSERT_TRUE(expected.ok()) << label;
    auto actual = flaky.Execute(query);
    ASSERT_TRUE(actual.ok()) << label << ": " << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(actual->table), CanonicalRows(expected->table))
        << label;
    EXPECT_FALSE(actual->profile.partial) << label;
    total_retries += actual->profile.retries;
  }
  EXPECT_GT(total_retries, 0u);
  uint64_t injected = 0;
  for (const auto& injector : chaos->injectors) {
    injected += injector->stats().injected_errors;
  }
  EXPECT_GT(injected, 0u);
}

TEST(RetryConvergenceTest, SameSeedSameFaultsSameResult) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  core::LusailOptions options;
  options.retry_policy = net::RetryPolicy::Standard(6);
  options.retry_policy.initial_backoff_ms = 0.1;
  options.retry_policy.max_backoff_ms = 0.5;

  auto run = [&]() {
    auto chaos = WrapWithFaults(gen.GenerateAll(),
                                net::FaultProfile::Transient(0.2, 21));
    // Breaker state is interleaving-dependent; keep it closed so the
    // request multiset (and thus the injected-fault tallies) is exactly
    // repeatable.
    chaos->faulty.ConfigureBreakers(NeverTrippingBreaker());
    core::LusailEngine engine(&chaos->faulty, options);
    auto result = engine.Execute(workload::LubmGenerator::Q2());
    EXPECT_TRUE(result.ok());
    std::vector<uint64_t> injected;
    for (const auto& injector : chaos->injectors) {
      injected.push_back(injector->stats().injected_errors);
    }
    return std::make_pair(CanonicalRows(result->table), injected);
  };

  auto [rows1, injected1] = run();
  auto [rows2, injected2] = run();
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(injected1, injected2);
}

TEST(RetryConvergenceTest, BaselinesConvergeWithSameDecorators) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  auto clean = workload::BuildFederation(gen.GenerateAll(),
                                         net::LatencyModel::None());
  core::LusailEngine oracle(clean.get());
  auto expected = oracle.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(expected.ok());

  net::RetryPolicy retry = net::RetryPolicy::Standard(6);
  retry.initial_backoff_ms = 0.1;
  retry.max_backoff_ms = 0.5;

  {
    auto chaos = WrapWithFaults(gen.GenerateAll(),
                                net::FaultProfile::Transient(0.2, 13));
    // Convergence, not breaker, under test.
    chaos->faulty.ConfigureBreakers(NeverTrippingBreaker());
    baselines::FedXOptions options;
    options.retry_policy = retry;
    baselines::FedXEngine fedx(&chaos->faulty, options);
    auto actual = fedx.Execute(workload::LubmGenerator::QueryQa());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(actual->table), CanonicalRows(expected->table));
  }
}

// ---------------------------------------------------------------------
// Graceful degradation: permanently-down endpoints
// ---------------------------------------------------------------------

TEST(PartialResultsTest, DownEndpointDegradesGracefully) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  auto clean = workload::BuildFederation(gen.GenerateAll(),
                                         net::LatencyModel::None());
  core::LusailEngine oracle(clean.get());
  auto expected = oracle.Execute(workload::LubmGenerator::Q1());
  ASSERT_TRUE(expected.ok());

  auto chaos = WrapWithFaults(gen.GenerateAll(), net::FaultProfile::None());
  chaos->injectors[1]->set_down(true);
  const std::string down_id = chaos->injectors[1]->id();

  core::LusailOptions options;
  options.partial_results = true;
  options.retry_policy = net::RetryPolicy::Standard(2);
  options.retry_policy.initial_backoff_ms = 0.1;
  options.retry_policy.max_backoff_ms = 0.2;
  core::LusailEngine engine(&chaos->faulty, options);

  auto result = engine.Execute(workload::LubmGenerator::Q1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.partial);
  EXPECT_GE(result->profile.endpoints_failed, 1u);
  ASSERT_FALSE(result->profile.failed_endpoint_ids.empty());
  EXPECT_NE(std::find(result->profile.failed_endpoint_ids.begin(),
                      result->profile.failed_endpoint_ids.end(), down_id),
            result->profile.failed_endpoint_ids.end());

  // A partial result is a lower bound: every row also appears in the
  // exact answer.
  std::vector<std::string> exact = CanonicalRows(expected->table);
  for (const std::string& row : CanonicalRows(result->table)) {
    EXPECT_NE(std::find(exact.begin(), exact.end(), row), exact.end());
  }
}

TEST(PartialResultsTest, ExactModeAggregatesMultiEndpointErrors) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  auto chaos = WrapWithFaults(gen.GenerateAll(), net::FaultProfile::None());
  chaos->injectors[1]->set_down(true);

  core::LusailOptions options;  // partial_results = false (default).
  core::LusailEngine engine(&chaos->faulty, options);
  auto result = engine.Execute(workload::LubmGenerator::Q1());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The aggregated message reports the failure count, not just the first
  // error.
  EXPECT_NE(result.status().message().find("failed"), std::string::npos);
  EXPECT_NE(result.status().message().find(chaos->injectors[1]->id()),
            std::string::npos);
}

TEST(PartialResultsTest, FigureOneFederationSurvivesDownEndpoint) {
  auto chaos =
      WrapWithFaults(workload::Figure1Federation(), net::FaultProfile::None());
  chaos->injectors[1]->set_down(true);

  core::LusailOptions options;
  options.partial_results = true;
  core::LusailEngine engine(&chaos->faulty, options);
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.partial);
  // EP2 holds data Q_a needs, so the partial answer is a strict subset.
  EXPECT_LT(result->table.NumRows(), 3u);
}

// ---------------------------------------------------------------------
// Federation-owned breakers
// ---------------------------------------------------------------------

TEST(FederationBreakerTest, RepeatedFailuresTripTheSharedBreaker) {
  auto chaos =
      WrapWithFaults(workload::Figure1Federation(), net::FaultProfile::None());
  chaos->injectors[0]->set_down(true);
  chaos->faulty.ConfigureBreakers(TightBreaker());

  net::RetryPolicy retry = net::RetryPolicy::Standard(2);
  retry.initial_backoff_ms = 0.1;
  retry.max_backoff_ms = 0.2;
  fed::MetricsCollector metrics;
  for (int i = 0; i < 6; ++i) {
    auto r = IssueAndWait(chaos->faulty, 0, "ASK { ?s ?p ?o . }", &metrics,
                          &retry);
    EXPECT_FALSE(r.ok());
  }
  EXPECT_EQ(chaos->faulty.breaker(0)->state(),
            net::CircuitBreaker::State::kOpen);
  EXPECT_GE(chaos->faulty.breaker(0)->trips(), 1u);

  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_GT(profile.retries, 0u);
  EXPECT_GT(profile.breaker_trips, 0u);
  EXPECT_GT(profile.breaker_rejections, 0u);
}

}  // namespace
}  // namespace lusail
