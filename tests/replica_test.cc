// Tests for the replica-group endpoint layer: health-ranked selection,
// transparent failover, hedged requests, breaker integration, crash
// recovery via the source-selection health consult, and the 2-replica
// loopback end-to-end with a mid-query replica kill.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/replica.h"
#include "net/resilience.h"
#include "net/sparql_endpoint.h"
#include "obs/metrics.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

const char kQuery[] = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }";

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

std::shared_ptr<net::SparqlEndpoint> PlainReplica(const std::string& id) {
  return std::make_shared<net::SparqlEndpoint>(id, TinyStore(),
                                               net::LatencyModel::None());
}

std::shared_ptr<net::FaultInjectingEndpoint> FaultyReplica(
    const std::string& id, const net::FaultProfile& profile) {
  return std::make_shared<net::FaultInjectingEndpoint>(PlainReplica(id),
                                                       profile);
}

/// Options that make selection deterministic: no background probes, no
/// hedging, requests go to replicas strictly in rank order.
net::ReplicaGroupOptions SequentialOptions() {
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedging_enabled = false;
  return options;
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

// ---------------------------------------------------------------------
// Selection and failover
// ---------------------------------------------------------------------

TEST(ReplicaGroupTest, SingleReplicaServesAndStampsServedBy) {
  net::ReplicaGroup group("ep", {PlainReplica("ep#0")}, SequentialOptions());
  auto response = group.Query(kQuery);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "ep#0");
  EXPECT_FALSE(response->hedged);
  EXPECT_EQ(response->RowCount(), 5u);
  EXPECT_EQ(group.stats().requests, 1u);
  EXPECT_EQ(group.stats().failovers, 0u);
}

TEST(ReplicaGroupTest, EmptyGroupFailsLoudly) {
  net::ReplicaGroup group("ep", {});
  auto response = group.Query(kQuery);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(ReplicaGroupTest, FailsOverWhenTheServingReplicaCrashes) {
  // Replica 0 dies after its first query, exactly like a killed process.
  net::ReplicaGroup group(
      "ep",
      {FaultyReplica("ep#0", net::FaultProfile::CrashAfter(1)),
       PlainReplica("ep#1")},
      SequentialOptions());

  auto first = group.Query(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->served_by, "ep#0");

  auto second = group.Query(kQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->served_by, "ep#1");
  EXPECT_GE(group.stats().failovers, 1u);
  EXPECT_EQ(CanonicalRows(*fed::Federation::ToTable(first)),
            CanonicalRows(*fed::Federation::ToTable(second)));
}

TEST(ReplicaGroupTest, FreshUnhealthyReplicaIsDeprioritized) {
  net::ReplicaGroup group(
      "ep",
      {FaultyReplica("ep#0", net::FaultProfile::CrashAfter(1)),
       PlainReplica("ep#1")},
      SequentialOptions());
  ASSERT_TRUE(group.Query(kQuery).ok());   // ep#0 serves, then crashes.
  ASSERT_TRUE(group.Query(kQuery).ok());   // Fails over to ep#1.
  uint64_t failovers = group.stats().failovers;

  // ep#0 is now fresh-unhealthy, ep#1 fresh-healthy: the next request
  // must go straight to ep#1 without burning a failover on the corpse.
  auto third = group.Query(kQuery);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->served_by, "ep#1");
  EXPECT_EQ(group.stats().failovers, failovers);
}

TEST(ReplicaGroupTest, AllReplicasExhaustedReportsAggregateError) {
  net::FaultProfile down;
  down.permanently_down = true;
  net::ReplicaGroup group(
      "ep", {FaultyReplica("ep#0", down), FaultyReplica("ep#1", down)},
      SequentialOptions());
  auto response = group.Query(kQuery);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status().message().find("exhausted"), std::string::npos)
      << response.status().ToString();
  EXPECT_GE(group.stats().failovers, 1u);
}

TEST(ReplicaGroupTest, NonRetryableErrorDoesNotFailOver) {
  net::ReplicaGroup group("ep",
                          {PlainReplica("ep#0"), PlainReplica("ep#1")},
                          SequentialOptions());
  auto response = group.Query("THIS IS NOT SPARQL");
  ASSERT_FALSE(response.ok());
  EXPECT_FALSE(response.status().IsRetryable());
  EXPECT_EQ(group.stats().failovers, 0u);
}

TEST(ReplicaGroupTest, CancelledTokenFailsFastWithoutContactingReplicas) {
  net::ReplicaGroup group("ep", {PlainReplica("ep#0")}, SequentialOptions());
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  auto response = group.QueryCancellable(kQuery, token);
  EXPECT_FALSE(response.ok());
}

// ---------------------------------------------------------------------
// Lazy probes
// ---------------------------------------------------------------------

TEST(ReplicaGroupTest, LazyProbeRunsOncePerReplica) {
  net::ReplicaGroupOptions options;
  options.hedging_enabled = false;  // Keep selection single-threaded.
  net::ReplicaGroup group("ep",
                          {PlainReplica("ep#0"), PlainReplica("ep#1")},
                          options);
  ASSERT_TRUE(group.Query(kQuery).ok());
  ASSERT_TRUE(group.Query(kQuery).ok());
  // Only the selected replica is probed, and only before its first use.
  EXPECT_EQ(group.stats().probes, 1u);
}

TEST(ReplicaGroupTest, ProbeDiscoversDeadPrimaryBeforeRealTraffic) {
  net::FaultProfile down;
  down.permanently_down = true;
  net::ReplicaGroupOptions options;
  options.hedging_enabled = false;
  net::ReplicaGroup group(
      "ep", {FaultyReplica("ep#0", down), PlainReplica("ep#1")}, options);

  // The probe eats ep#0's failure; the real query lands on ep#1.
  auto response = group.Query(kQuery);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "ep#1");
  EXPECT_GE(group.stats().probes, 1u);
}

// ---------------------------------------------------------------------
// Hedged requests
// ---------------------------------------------------------------------

TEST(ReplicaGroupTest, HedgeWinsOverSlowPrimary) {
  net::FaultProfile slow;
  slow.slow_rate = 1.0;
  slow.slow_latency_ms = 150.0;
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedge_delay_ms = 5.0;
  net::ReplicaGroup group(
      "ep", {FaultyReplica("ep#0", slow), PlainReplica("ep#1")}, options);

  auto response =
      group.QueryWithDeadline(kQuery, Deadline::AfterMillis(5000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "ep#1");
  EXPECT_TRUE(response->hedged);
  EXPECT_GE(group.stats().hedges_launched, 1u);
  EXPECT_GE(group.stats().hedge_wins, 1u);
  EXPECT_EQ(response->RowCount(), 5u);
}

TEST(ReplicaGroupTest, PrimaryWinStillCountsTheLostHedge) {
  net::FaultProfile mildly_slow;
  mildly_slow.slow_rate = 1.0;
  mildly_slow.slow_latency_ms = 40.0;
  net::FaultProfile very_slow;
  very_slow.slow_rate = 1.0;
  very_slow.slow_latency_ms = 400.0;
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedge_delay_ms = 5.0;
  net::ReplicaGroup group("ep",
                          {FaultyReplica("ep#0", mildly_slow),
                           FaultyReplica("ep#1", very_slow)},
                          options);

  auto response =
      group.QueryWithDeadline(kQuery, Deadline::AfterMillis(5000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "ep#0");
  EXPECT_TRUE(response->hedged);
  EXPECT_GE(group.stats().hedges_launched, 1u);
  EXPECT_GE(group.stats().hedge_losses, 1u);
  EXPECT_EQ(group.stats().hedge_wins, 0u);
}

TEST(ReplicaGroupTest, HedgedPathFailsOverWhenThePrimaryCrashes) {
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;  // The probe would eat the crash budget.
  options.hedge_delay_ms = 50.0;
  net::ReplicaGroup group(
      "ep",
      {FaultyReplica("ep#0", net::FaultProfile::CrashAfter(1)),
       PlainReplica("ep#1")},
      options);
  ASSERT_TRUE(group.Query(kQuery).ok());  // ep#0 serves, then crashes.

  // The crashed primary fails instantly — long before the hedge delay —
  // so the hedged path must fail over rather than wait out the timer.
  auto response =
      group.QueryWithDeadline(kQuery, Deadline::AfterMillis(5000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "ep#1");
  EXPECT_EQ(response->RowCount(), 5u);
}

// ---------------------------------------------------------------------
// Circuit breakers and availability
// ---------------------------------------------------------------------

TEST(ReplicaGroupTest, OpenBreakersAreSkippedAndSurfaceInAvailability) {
  net::FaultProfile down;
  down.permanently_down = true;
  net::ReplicaGroupOptions options = SequentialOptions();
  options.breaker_config.window_size = 4;
  options.breaker_config.min_samples = 2;
  options.breaker_config.open_cooldown_ms = 1e9;  // Never half-opens here.
  net::ReplicaGroup group("ep", {FaultyReplica("ep#0", down)}, options);

  EXPECT_TRUE(group.Available());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(group.Query(kQuery).ok());
  }
  EXPECT_EQ(group.breaker(0).state(), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(group.Available());

  auto rejected = group.Query(kQuery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(group.stats().breaker_skips, 1u);
}

/// The value of sample `name`{labels}, or -1 when the snapshot has none.
double SampleValue(const obs::MetricsSnapshot& snapshot,
                   const std::string& name, const obs::MetricLabels& labels) {
  const obs::MetricSample* sample = snapshot.Find(name, labels);
  return sample == nullptr ? -1.0 : sample->value;
}

/// Replica `replica`'s health verdict in `group`'s metrics, rendered as
/// "healthy", "unhealthy (stale)", "unknown", ...
std::string HealthOf(const net::ReplicaGroup& group,
                     const std::string& replica) {
  obs::MetricsSnapshot snapshot;
  group.ExportMetrics(&snapshot);
  const obs::MetricLabels labels{{"endpoint", group.id()},
                                 {"replica", replica}};
  std::string health;
  for (const char* verdict : {"healthy", "unhealthy", "unknown"}) {
    obs::MetricLabels verdict_labels = labels;
    verdict_labels.emplace_back("verdict", verdict);
    if (SampleValue(snapshot, "lusail_replica_health", verdict_labels) == 1) {
      health += verdict;
    }
  }
  if (SampleValue(snapshot, "lusail_replica_health_stale", labels) == 1) {
    health += " (stale)";
  }
  return health;
}

TEST(ReplicaGroupTest, MetricsCarryPerReplicaHealth) {
  net::ReplicaGroup group("ep",
                          {PlainReplica("ep#0"), PlainReplica("ep#1")},
                          SequentialOptions());
  ASSERT_TRUE(group.Query(kQuery).ok());

  obs::MetricsSnapshot snapshot;
  group.ExportMetrics(&snapshot);
  EXPECT_EQ(SampleValue(snapshot, "lusail_replica_requests_total",
                        {{"endpoint", "ep"}}),
            1.0);
  const obs::MetricLabels first{{"endpoint", "ep"}, {"replica", "ep#0"}};
  const obs::MetricLabels second{{"endpoint", "ep"}, {"replica", "ep#1"}};
  obs::MetricLabels closed = first;
  closed.emplace_back("state", "closed");
  EXPECT_EQ(SampleValue(snapshot, "lusail_replica_breaker_state", closed),
            1.0);
  EXPECT_EQ(
      SampleValue(snapshot, "lusail_replica_breaker_trips_total", second),
      0.0);
  EXPECT_EQ(HealthOf(group, "ep#0"), "healthy");
  EXPECT_EQ(HealthOf(group, "ep#1"), "unknown");
  EXPECT_EQ(SampleValue(snapshot, "lusail_replica_probed", second), 0.0);
  const obs::MetricSample* latency =
      snapshot.Find("lusail_replica_latency_seconds", first);
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 1u);
}

TEST(ReplicaGroupTest, HealthVerdictsDecayToStale) {
  net::ReplicaGroupOptions options = SequentialOptions();
  options.health_decay_ms = 30.0;
  net::ReplicaGroup group("ep", {PlainReplica("ep#0")}, options);
  ASSERT_TRUE(group.Query(kQuery).ok());
  EXPECT_EQ(HealthOf(group, "ep#0"), "healthy");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(HealthOf(group, "ep#0"), "healthy (stale)");
}

// ---------------------------------------------------------------------
// Service and source-selection integration
// ---------------------------------------------------------------------

TEST(ReplicaGroupTest, QueryServiceMetricsSurfaceReplicaGroups) {
  fed::Federation federation;
  federation.Add(std::make_shared<net::ReplicaGroup>(
      "grouped",
      std::vector<std::shared_ptr<net::Endpoint>>{PlainReplica("grouped#0"),
                                                  PlainReplica("grouped#1")},
      SequentialOptions()));
  federation.Add(PlainReplica("plain"));
  cache::FederationCache cache;
  federation.set_query_cache(&cache);

  cache::QueryService service(&federation);
  auto submitted = service.Submit(kQuery);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->get().ok());
  service.Drain();

  obs::MetricsSnapshot snapshot;
  service.ExportMetrics(&snapshot);
  for (const char* id : {"grouped", "plain"}) {
    double states = 0;
    for (const char* state : {"closed", "open", "half-open"}) {
      double value = SampleValue(snapshot, "lusail_federation_breaker_state",
                                 {{"endpoint", id}, {"state", state}});
      ASSERT_GE(value, 0.0) << id << " " << state;
      states += value;
    }
    EXPECT_EQ(states, 1.0) << id;
  }
  for (const char* replica : {"grouped#0", "grouped#1"}) {
    EXPECT_NE(snapshot.Find("lusail_replica_latency_seconds",
                            {{"endpoint", "grouped"}, {"replica", replica}}),
              nullptr)
        << replica;
  }
  EXPECT_EQ(snapshot.Find("lusail_replica_requests_total",
                          {{"endpoint", "plain"}}),
            nullptr);
  EXPECT_GE(SampleValue(snapshot, "lusail_cache_hits_total",
                        {{"tier", "verdicts"}}),
            0.0);
}

TEST(ReplicaGroupTest, SourceSelectionSkipsGroupsWithEveryBreakerOpen) {
  net::FaultProfile down;
  down.permanently_down = true;
  net::ReplicaGroupOptions options = SequentialOptions();
  options.breaker_config.window_size = 4;
  options.breaker_config.min_samples = 2;
  options.breaker_config.open_cooldown_ms = 1e9;
  auto group = std::make_shared<net::ReplicaGroup>(
      "dead",
      std::vector<std::shared_ptr<net::Endpoint>>{
          FaultyReplica("dead#0", down)},
      options);
  // Trip the lone replica's breaker with direct traffic.
  while (group->Available()) {
    ASSERT_FALSE(group->Query(kQuery).ok());
  }

  fed::Federation federation;
  federation.Add(group);
  federation.Add(PlainReplica("alive"));

  // Strict execution refuses fast instead of burning deadline budget on
  // probes the group cannot answer.
  core::LusailEngine strict(&federation);
  auto failed = strict.Execute(kQuery);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status().message().find("source selection"),
            std::string::npos)
      << failed.status().ToString();

  // Degraded execution keeps the survivors' contribution.
  core::LusailOptions degraded_options;
  degraded_options.partial_results = true;
  core::LusailEngine degraded(&federation, degraded_options);
  auto partial = degraded.Execute(kQuery);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->profile.partial);
  EXPECT_EQ(partial->table.rows.size(), 5u);
}

TEST(ReplicaGroupTest, SourceSelectionSeesDeadGroupsThroughDecorators) {
  net::ReplicaGroupOptions options = SequentialOptions();
  options.breaker_config.window_size = 4;
  options.breaker_config.min_samples = 2;
  options.breaker_config.open_cooldown_ms = 1e9;
  auto group = std::make_shared<net::ReplicaGroup>(
      "dead",
      std::vector<std::shared_ptr<net::Endpoint>>{PlainReplica("dead#0"),
                                                  PlainReplica("dead#1")},
      options);
  // Trip both breakers without sending the group a request.
  for (size_t i = 0; i < group->NumReplicas(); ++i) {
    while (group->breaker(i).state() != net::CircuitBreaker::State::kOpen) {
      group->mutable_breaker(i)->RecordFailure();
    }
  }
  ASSERT_FALSE(group->Available());

  // The decorator must pass the group's availability through; a retrying
  // engine would otherwise spend its backoff schedule against a group
  // that rejects every attempt.
  auto faulty =
      std::make_shared<net::FaultInjectingEndpoint>(group, net::FaultProfile());
  EXPECT_FALSE(faulty->Available());

  fed::Federation federation;
  federation.Add(faulty);
  federation.Add(PlainReplica("alive"));
  core::LusailOptions retrying;
  retrying.retry_policy = net::RetryPolicy::Standard(4);
  core::LusailEngine strict(&federation, retrying);
  auto failed = strict.Execute(kQuery);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status().message().find("dead"), std::string::npos)
      << failed.status().ToString();
  EXPECT_NE(failed.status().message().find("source selection"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(group->stats().requests, 0u);
  EXPECT_EQ(faulty->stats().requests, 0u);
}

// ---------------------------------------------------------------------
// 2-replica loopback end-to-end: LUBM over real sockets, mid-query kill
// ---------------------------------------------------------------------

/// Two LUBM universities, each a ReplicaGroup of two HttpServers serving
/// identical partitions on loopback ports, plus the in-process baseline
/// federation for row-identity checks.
class ReplicaLoopbackTest : public ::testing::Test {
 protected:
  static constexpr int kReplicasPerEndpoint = 2;

  void SetUp() override {
    workload::LubmConfig config = workload::LubmConfig::Small();
    config.num_universities = 2;
    std::vector<workload::EndpointSpec> specs =
        workload::LubmGenerator(config).GenerateAll();
    in_process_ = workload::BuildFederation(specs, net::LatencyModel::None());

    for (const auto& spec : specs) {
      std::vector<std::shared_ptr<net::Endpoint>> replicas;
      for (int r = 0; r < kReplicasPerEndpoint; ++r) {
        auto store = std::make_unique<store::TripleStore>();
        for (const auto& triple : spec.triples) store->Add(triple);
        store->Freeze();
        std::string replica_id = spec.id + "#" + std::to_string(r);
        auto endpoint = std::make_shared<net::SparqlEndpoint>(
            replica_id, std::move(store), net::LatencyModel::None());
        auto server = std::make_unique<rpc::HttpServer>(endpoint);
        ASSERT_TRUE(server->Start().ok());
        replicas.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
            replica_id, "127.0.0.1", server->port()));
        servers_.push_back(std::move(server));
      }
      remote_.Add(std::make_shared<net::ReplicaGroup>(
          spec.id, std::move(replicas)));
    }
  }
  void TearDown() override {
    for (auto& server : servers_) server->Stop();
  }

  std::unique_ptr<fed::Federation> in_process_;
  fed::Federation remote_;
  /// servers_[2 * u + r] is replica r of university u.
  std::vector<std::unique_ptr<rpc::HttpServer>> servers_;
};

TEST_F(ReplicaLoopbackTest, ReplicatedFederationIsRowIdentical) {
  core::LusailEngine local_engine(in_process_.get());
  core::LusailEngine remote_engine(&remote_);
  Result<fed::FederatedResult> local =
      local_engine.Execute(workload::LubmGenerator::QueryQa());
  Result<fed::FederatedResult> remote =
      remote_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_GT(remote->table.rows.size(), 0u);
  EXPECT_EQ(CanonicalRows(remote->table), CanonicalRows(local->table));
}

TEST_F(ReplicaLoopbackTest, KilledReplicaFailsOverWithoutLosingRows) {
  core::LusailEngine local_engine(in_process_.get());
  Result<fed::FederatedResult> expected =
      local_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Kill one replica of each university up front: every request must
  // transparently fail over to the survivor, with no partial-results or
  // retry-policy crutch configured.
  servers_[0]->Stop();
  servers_[2]->Stop();

  core::LusailEngine remote_engine(&remote_);
  Result<fed::FederatedResult> survived =
      remote_engine.Execute(workload::LubmGenerator::QueryQa(),
                            Deadline::AfterMillis(20000));
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(CanonicalRows(survived->table), CanonicalRows(expected->table));
}

TEST_F(ReplicaLoopbackTest, MidQueryReplicaKillKeepsRowIdentity) {
  core::LusailEngine local_engine(in_process_.get());
  Result<fed::FederatedResult> expected =
      local_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Kill university 0's first replica while the query is in flight: the
  // kill can land during source selection, probes, or execution. The
  // survivor holds an identical partition, so the answer must come back
  // complete and row-identical — transparent failover, not degradation.
  core::LusailEngine remote_engine(&remote_);
  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    servers_[0]->Stop();
  });
  Result<fed::FederatedResult> survived =
      remote_engine.Execute(workload::LubmGenerator::QueryQa(),
                            Deadline::AfterMillis(20000));
  killer.join();
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(CanonicalRows(survived->table), CanonicalRows(expected->table));
}

}  // namespace
}  // namespace lusail
