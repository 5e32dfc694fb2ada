// The split request path: DeadlineTimer, and Federation::Issue, which runs
// an endpoint exchange's CPU part on the engine pool and completes its
// simulated network wait on the federation's timer, so pool threads never
// sleep through a wait.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline_timer.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/lusail_engine.h"
#include "federation/federation.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "obs/metrics.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// DeadlineTimer
// ---------------------------------------------------------------------

TEST(DeadlineTimerTest, FiresInDueOrderAndDrainsOnDestruction) {
  std::mutex mu;
  std::vector<int> order;
  std::vector<bool> early;
  {
    DeadlineTimer timer;
    // Delays relative to one start, so a slow Schedule call cannot
    // reorder the due times.
    Stopwatch start;
    for (int ms : {60, 20, 40}) {
      timer.Schedule(ms - start.ElapsedMillis(), CancelToken(),
                     [&, ms](bool e) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(ms);
        early.push_back(e);
      });
    }
  }
  EXPECT_EQ(order, (std::vector<int>{20, 40, 60}));
  EXPECT_EQ(early, (std::vector<bool>{false, false, false}));
}

TEST(DeadlineTimerTest, FiresNoSoonerThanDue) {
  DeadlineTimer timer;
  std::promise<double> fired;
  Stopwatch watch;
  timer.Schedule(25, CancelToken(),
                 [&](bool) { fired.set_value(watch.ElapsedMillis()); });
  EXPECT_GE(fired.get_future().get(), 25.0);
}

TEST(DeadlineTimerTest, ExplicitCancelFiresEarly) {
  DeadlineTimer timer;
  CancelToken token = CancelToken::Cancellable();
  std::promise<bool> fired;
  Stopwatch watch;
  timer.Schedule(500, token,
                 [&](bool early) { fired.set_value(early); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  token.Cancel();
  EXPECT_TRUE(fired.get_future().get());
  EXPECT_LT(watch.ElapsedMillis(), 250.0);
}

TEST(DeadlineTimerTest, TokenDeadlineFiresEarly) {
  DeadlineTimer timer;
  std::promise<bool> fired;
  Stopwatch watch;
  timer.Schedule(500, CancelToken(Deadline::AfterMillis(20)),
                 [&](bool early) { fired.set_value(early); });
  EXPECT_TRUE(fired.get_future().get());
  double ms = watch.ElapsedMillis();
  EXPECT_GE(ms, 19.0);
  EXPECT_LT(ms, 250.0);
}

TEST(DeadlineTimerTest, OneThreadCarriesManyConcurrentWaits) {
  std::atomic<int> fired{0};
  Stopwatch watch;
  {
    DeadlineTimer timer;
    for (int i = 0; i < 200; ++i) {
      timer.Schedule(30, CancelToken(), [&](bool) { ++fired; });
    }
  }
  EXPECT_EQ(fired.load(), 200);
  // All 200 waits overlap: about one 30 ms wait, not 6 s of them.
  EXPECT_LT(watch.ElapsedMillis(), 1000.0);
}

// ---------------------------------------------------------------------
// Federation::Issue
// ---------------------------------------------------------------------

/// Endpoint e's data: one subject s<e> with predicates p0, p1 and p2.
std::unique_ptr<store::TripleStore> StarStore(size_t e) {
  auto store = std::make_unique<store::TripleStore>();
  for (int p = 0; p < 3; ++p) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(e)),
        rdf::Term::Iri("http://ex/p" + std::to_string(p)),
        rdf::Term::Iri("http://ex/o" + std::to_string(e))});
  }
  store->Freeze();
  return store;
}

/// `n` in-process endpoints at `latency` over StarStore data, so every
/// endpoint is relevant to every pattern of the star query below.
std::unique_ptr<fed::Federation> StarFederation(size_t n,
                                                net::LatencyModel latency) {
  auto federation = std::make_unique<fed::Federation>();
  for (size_t e = 0; e < n; ++e) {
    federation->Add(std::make_shared<net::SparqlEndpoint>(
        "ep" + std::to_string(e), StarStore(e), latency));
  }
  return federation;
}

constexpr char kStarQuery[] =
    "SELECT * WHERE { ?s <http://ex/p0> ?a . ?s <http://ex/p1> ?b . "
    "?s <http://ex/p2> ?c . }";

TEST(FederationIssueTest, SourceSelectionGoesOutInOneWave) {
  // 3 patterns x 8 endpoints = 24 ASK probes, batched into 8 requests at
  // 20 ms each on two pool threads. Sleeping on the threads would take 4
  // waves (~80 ms) on top of the CPU work; one wave adds ~20 ms. The same run at sleep_scale 0 gives
  // the CPU part, so sanitizer builds and loaded hosts keep the margin.
  auto run = [](double sleep_scale) {
    auto federation =
        StarFederation(8, net::LatencyModel{20.0, 0.0, sleep_scale});
    core::LusailOptions options;
    options.num_threads = 2;
    core::LusailEngine engine(federation.get(), options);
    return engine.Execute(kStarQuery);
  };
  Result<fed::FederatedResult> cpu_only = run(0.0);
  Result<fed::FederatedResult> waited = run(1.0);
  ASSERT_TRUE(cpu_only.ok()) << cpu_only.status().ToString();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->table.rows.size(), 8u);
  // The 24 (pattern, endpoint) ASK probes go out as one batched request
  // per endpoint; the logical count adds the 24 COUNT probes.
  EXPECT_EQ(waited->profile.ask_requests, 8u);
  EXPECT_EQ(waited->profile.probe_pairs, 48u);
  EXPECT_GE(waited->profile.source_selection_ms, 20.0);
  EXPECT_LT(waited->profile.source_selection_ms,
            cpu_only->profile.source_selection_ms + 60.0);
}

TEST(FederationIssueTest, CancelEndsAPendingWait) {
  auto federation = StarFederation(2, net::LatencyModel{200.0, 0.0, 1.0});
  core::LusailEngine engine(federation.get());
  CancelToken token = CancelToken::Cancellable();
  Stopwatch watch;
  std::atomic<double> cancelled_at{0.0};
  std::thread canceller([token, &watch, &cancelled_at]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancelled_at = watch.ElapsedMillis();
    token.Cancel();
  });
  Result<fed::FederatedResult> result = engine.Execute(kStarQuery, token);
  double returned_at = watch.ElapsedMillis();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  // Sleeping out the response would return ~190 ms after the cancel.
  EXPECT_LT(returned_at - cancelled_at.load(), 50.0);
}

TEST(FederationIssueTest, AccountingLandsAtCompletion) {
  auto federation = StarFederation(1, net::LatencyModel{200.0, 0.0, 1.0});
  ThreadPool pool(1);
  fed::MetricsCollector metrics;
  fed::IssueContext ctx;
  ctx.metrics = &metrics;
  ctx.kind = fed::RequestKind::kAsk;
  std::future<Result<bool>> answer =
      federation->Issue(&pool, 0, "ASK { ?s ?p ?o . }", ctx,
                        fed::Federation::NonEmpty);
  // The one pool thread is free while the response is pending.
  std::future<int> other = pool.Submit([] { return 7; });
  ASSERT_EQ(other.wait_for(std::chrono::milliseconds(150)),
            std::future_status::ready);
  ASSERT_EQ(answer.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  fed::ExecutionProfile before;
  metrics.FillCounters(&before);
  EXPECT_EQ(before.requests, 0u);

  Result<bool> verdict = answer.get();
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(*verdict);
  fed::ExecutionProfile after;
  metrics.FillCounters(&after);
  EXPECT_EQ(after.requests, 1u);
  EXPECT_EQ(after.ask_requests, 1u);
  EXPECT_NEAR(after.network_ms, 200.0, 0.01);
  // A probe's row never stamps the first-row time.
  EXPECT_EQ(after.first_row_ms, 0.0);
}

TEST(FederationIssueTest, CutoffSkipsAnUnsentRequest) {
  auto federation = StarFederation(1, net::LatencyModel::None());
  ThreadPool pool(1);
  fed::MetricsCollector metrics;
  fed::IssueContext ctx;
  ctx.metrics = &metrics;
  ctx.cutoff = CancelToken::Cancellable();
  ctx.cutoff.Cancel();
  Result<bool> verdict = federation
                             ->Issue(&pool, 0, "ASK { ?s ?p ?o . }", ctx,
                                     fed::Federation::NonEmpty)
                             .get();
  EXPECT_FALSE(verdict.ok());
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, 0u);
  auto* endpoint = static_cast<net::SparqlEndpoint*>(federation->endpoint(0));
  EXPECT_EQ(endpoint->stats().requests, 0u);
}

TEST(FederationIssueTest, ReplicaMembersStillSleepUnderTheScope) {
  net::LatencyModel latency{20.0, 0.0, 1.0};
  std::vector<std::shared_ptr<net::Endpoint>> members;
  for (size_t i = 0; i < 2; ++i) {
    members.push_back(std::make_shared<net::SparqlEndpoint>(
        "replica" + std::to_string(i), StarStore(0), latency));
  }
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedging_enabled = false;
  auto group = std::make_shared<net::ReplicaGroup>("group", members, options);
  fed::Federation federation;
  federation.Add(group);

  ThreadPool pool(2);
  fed::IssueContext ctx;
  Result<bool> verdict = federation
                             .Issue(&pool, 0, "ASK { ?s ?p ?o . }", ctx,
                                    fed::Federation::NonEmpty)
                             .get();
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  obs::MetricsSnapshot snapshot;
  group->ExportMetrics(&snapshot);
  uint64_t timed = 0;
  for (size_t i = 0; i < group->NumReplicas(); ++i) {
    const obs::MetricSample* latency = snapshot.Find(
        "lusail_replica_latency_seconds",
        {{"endpoint", "group"}, {"replica", group->replica_id(i)}});
    ASSERT_NE(latency, nullptr);
    if (latency->count == 0) continue;
    ++timed;
    // One request: its p50 is its latency, the histogram's sum.
    EXPECT_EQ(latency->count, 1u);
    EXPECT_GE(latency->sum_seconds * 1e3, 20.0);
  }
  EXPECT_EQ(timed, 1u);
}

TEST(FederationIssueTest, FirstRowComesAfterTheProbes) {
  workload::LubmGenerator generator(workload::LubmConfig::Small());
  auto federation = workload::BuildFederation(generator.GenerateAll(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  Result<fed::FederatedResult> result =
      engine.Execute(workload::LubmGenerator::Q1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const fed::ExecutionProfile& profile = result->profile;
  ASSERT_GT(profile.ask_requests, 0u);
  ASSERT_GT(profile.first_row_ms, 0.0);
  EXPECT_GE(profile.first_row_ms,
            profile.source_selection_ms + profile.analysis_ms);
}

}  // namespace
}  // namespace lusail
