// Differential tests for batched probes: one endpoint's ASK probes, and
// then its COUNT probes, travel as one tagged SPARQL request. Every
// (pattern, endpoint) verdict and count must equal what the single probe
// returns — in process, over HTTP, on a 3-shard endpoint and on a replica
// group — and the batch keeps the single probes' caching, failure and
// early-exit behaviour. Also covers GROUP BY, the one grammar batching
// adds, on every execution path.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "baselines/splendid_engine.h"
#include "cache/federation_cache.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/lusail_engine.h"
#include "federation/source_selection.h"
#include "net/fault_injection.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "shard/sharded_endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "sparql/probe.h"
#include "sparql/serializer.h"
#include "workload/federation_builder.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"
#include "test_payload.h"

namespace lusail {
namespace {

using sparql::ProbeKind;
using workload::EndpointSpec;

using QueryList = std::vector<std::pair<std::string, std::string>>;

QueryList LrbQueries() {
  QueryList queries;
  for (const QueryList& set : {workload::LrbGenerator::SimpleQueries(),
                               workload::LrbGenerator::ComplexQueries(),
                               workload::LrbGenerator::LargeQueries()}) {
    queries.insert(queries.end(), set.begin(), set.end());
  }
  return queries;
}

std::unique_ptr<store::TripleStore> StoreOf(
    const std::vector<rdf::TermTriple>& triples) {
  auto store = std::make_unique<store::TripleStore>();
  for (const rdf::TermTriple& t : triples) store->Add(t);
  store->Freeze();
  return store;
}

std::shared_ptr<net::SparqlEndpoint> EndpointOf(const EndpointSpec& spec) {
  return std::make_shared<net::SparqlEndpoint>(spec.id, StoreOf(spec.triples),
                                               net::LatencyModel::None());
}

/// The filters CostModel pushes into `tp`'s COUNT probe: those whose
/// variables all occur in the pattern.
std::vector<const sparql::Expr*> PushedFilters(
    const sparql::TriplePattern& tp, const std::vector<sparql::Expr>& filters) {
  std::vector<std::string> vars = tp.VariableNames();
  std::vector<const sparql::Expr*> pushed;
  for (const sparql::Expr& f : filters) {
    std::set<std::string> fvars;
    f.CollectVariables(&fvars);
    bool covered = !fvars.empty();
    for (const std::string& v : fvars) {
      covered = covered && std::find(vars.begin(), vars.end(), v) != vars.end();
    }
    if (covered) pushed.push_back(&f);
  }
  return pushed;
}

void CollectBodies(const sparql::GraphPattern& gp,
                   std::set<std::string>* bodies) {
  for (const sparql::TriplePattern& tp : gp.triples) {
    bodies->insert(sparql::ProbeBody(tp));
    std::vector<const sparql::Expr*> pushed = PushedFilters(tp, gp.filters);
    if (!pushed.empty()) bodies->insert(sparql::ProbeBody(tp, pushed));
  }
  for (const sparql::GraphPattern& opt : gp.optionals) {
    CollectBodies(opt, bodies);
  }
  for (const auto& chain : gp.unions) {
    for (const sparql::GraphPattern& alt : chain) CollectBodies(alt, bodies);
  }
  for (const sparql::ExistsFilter& ef : gp.exists_filters) {
    CollectBodies(ef.pattern, bodies);
  }
}

/// Probe bodies for every triple pattern of `queries` (alone, and with
/// the filters a COUNT probe pushes into it), plus patterns naming
/// constants no endpoint has.
std::vector<std::string> ProbeBodies(const QueryList& queries) {
  std::set<std::string> bodies;
  for (const auto& [label, text] : queries) {
    Result<sparql::Query> query = sparql::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << label << ": " << query.status().ToString();
    if (query.ok()) CollectBodies(query->where, &bodies);
  }
  bodies.insert("?s <http://absent.example/p> ?o . ");
  bodies.insert("<http://absent.example/s> ?p ?o . ");
  bodies.insert("?s ?p <http://absent.example/o> . ");
  return {bodies.begin(), bodies.end()};
}

sparql::ResultTable TableOf(const net::QueryResponse& response) {
  return core::DecodeIdTable(*response.ids, *response.ids_dict);
}

/// One value per body, each probed in its own request.
std::vector<uint64_t> SingleValues(net::Endpoint* endpoint, ProbeKind kind,
                                   const std::vector<std::string>& bodies) {
  std::vector<uint64_t> values;
  for (const std::string& body : bodies) {
    Result<net::QueryResponse> r =
        endpoint->Query(sparql::ProbeText(kind, {body}));
    EXPECT_TRUE(r.ok()) << body << ": " << r.status().ToString();
    if (!r.ok()) {
      values.push_back(0);
      continue;
    }
    Result<std::vector<uint64_t>> v =
        sparql::DecodeProbeAnswer(kind, TableOf(*r), 1);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    values.push_back(v.ok() ? (*v)[0] : 0);
  }
  return values;
}

/// Every body's value from one batched request.
std::vector<uint64_t> BatchValues(net::Endpoint* endpoint, ProbeKind kind,
                                  const std::vector<std::string>& bodies) {
  Result<net::QueryResponse> r =
      endpoint->Query(sparql::ProbeText(kind, bodies));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  Result<std::vector<uint64_t>> v =
      sparql::DecodeProbeAnswer(kind, TableOf(*r), bodies.size());
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : std::vector<uint64_t>{};
}

/// `subject` answers the batch, for ASK and for COUNT, with exactly the
/// values `reference` gives the single probes.
void ExpectBatchMatchesSingles(net::Endpoint* reference, net::Endpoint* subject,
                               const std::vector<std::string>& bodies) {
  for (ProbeKind kind : {ProbeKind::kAsk, ProbeKind::kCount}) {
    std::vector<uint64_t> expected = SingleValues(reference, kind, bodies);
    ASSERT_EQ(expected.size(), bodies.size());
    std::vector<uint64_t> actual = BatchValues(subject, kind, bodies);
    ASSERT_EQ(actual.size(), bodies.size());
    for (size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i])
          << subject->id() << (kind == ProbeKind::kAsk ? " ASK " : " COUNT ")
          << bodies[i];
    }
  }
}

struct Workload {
  std::string name;
  std::vector<EndpointSpec> specs;
  QueryList queries;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  workload::LubmGenerator lubm(workload::LubmConfig::Small());
  out.push_back({"lubm", lubm.GenerateAll(),
                 workload::LubmGenerator::BenchmarkQueries()});
  workload::LrbGenerator lrb(workload::LrbConfig::Small());
  out.push_back({"lrb", lrb.GenerateAll(), LrbQueries()});
  return out;
}

/// The spec holding the most triples (the most interesting to split).
const EndpointSpec& LargestSpec(const std::vector<EndpointSpec>& specs) {
  return *std::max_element(specs.begin(), specs.end(),
                           [](const EndpointSpec& a, const EndpointSpec& b) {
                             return a.triples.size() < b.triples.size();
                           });
}

TEST(BatchedProbeTest, InProcessBatchEqualsSingleProbes) {
  for (const Workload& w : Workloads()) {
    const std::vector<std::string> bodies = ProbeBodies(w.queries);
    for (const EndpointSpec& spec : w.specs) {
      std::shared_ptr<net::SparqlEndpoint> endpoint = EndpointOf(spec);
      ExpectBatchMatchesSingles(endpoint.get(), endpoint.get(), bodies);
    }
  }
}

TEST(BatchedProbeTest, HttpBatchEqualsSingleProbes) {
  for (const Workload& w : Workloads()) {
    std::shared_ptr<net::SparqlEndpoint> endpoint =
        EndpointOf(LargestSpec(w.specs));
    rpc::HttpServer server(endpoint);
    ASSERT_TRUE(server.Start().ok());
    rpc::HttpSparqlEndpoint client("http", "127.0.0.1", server.port());
    ExpectBatchMatchesSingles(endpoint.get(), &client, ProbeBodies(w.queries));
    server.Stop();
  }
}

TEST(BatchedProbeTest, ShardedBatchEqualsSingleProbes) {
  for (const Workload& w : Workloads()) {
    const EndpointSpec& spec = LargestSpec(w.specs);
    std::shared_ptr<net::SparqlEndpoint> reference = EndpointOf(spec);
    const std::vector<std::string> bodies = ProbeBodies(w.queries);
    shard::ShardMap map = shard::ShardMap::HashRing(3);
    auto members = [&]() {
      std::vector<EndpointSpec> slices(3);
      for (size_t i = 0; i < slices.size(); ++i) {
        slices[i].id = spec.id + "#" + std::to_string(i);
      }
      for (const rdf::TermTriple& t : spec.triples) {
        slices[map.ShardOfSubject(t.subject)].triples.push_back(t);
      }
      std::vector<std::shared_ptr<net::Endpoint>> out;
      for (const EndpointSpec& slice : slices) out.push_back(EndpointOf(slice));
      return out;
    };

    // Cold, then warm from the verdict and COUNT tiers: the same values.
    cache::FederationCache cache;
    shard::ShardedEndpointOptions options;
    options.cache = &cache;
    options.own_pool_threads = 2;
    shard::ShardedEndpoint cached(spec.id, map, members(), options);
    ExpectBatchMatchesSingles(reference.get(), &cached, bodies);
    const uint64_t cold_fanout = cached.stats().fanout_requests;
    ExpectBatchMatchesSingles(reference.get(), &cached, bodies);
    EXPECT_EQ(cached.stats().fanout_requests, cold_fanout)
        << "a warm batch is answered from the cache tiers";

    // Fan-out: one batch never asks more members than its single probes.
    for (ProbeKind kind : {ProbeKind::kAsk, ProbeKind::kCount}) {
      shard::ShardedEndpointOptions plain;
      plain.own_pool_threads = 2;
      shard::ShardedEndpoint singles(spec.id, map, members(), plain);
      shard::ShardedEndpoint batched(spec.id, map, members(), plain);
      EXPECT_EQ(BatchValues(&batched, kind, bodies),
                SingleValues(&singles, kind, bodies));
      EXPECT_LE(batched.stats().fanout_requests, map.NumShards());
      EXPECT_LE(batched.stats().fanout_requests,
                singles.stats().fanout_requests);
    }
  }
}

TEST(BatchedProbeTest, ReplicaGroupBatchEqualsSingleProbes) {
  for (const Workload& w : Workloads()) {
    const EndpointSpec& spec = LargestSpec(w.specs);
    std::shared_ptr<net::SparqlEndpoint> reference = EndpointOf(spec);
    EndpointSpec a = spec;
    a.id = spec.id + "-a";
    EndpointSpec b = spec;
    b.id = spec.id + "-b";
    net::ReplicaGroup group(spec.id, {EndpointOf(a), EndpointOf(b)});
    ExpectBatchMatchesSingles(reference.get(), &group, ProbeBodies(w.queries));
  }
}

TEST(BatchedProbeTest, SelectorAndCostModelMatchSingleProbes) {
  for (const Workload& w : Workloads()) {
    auto federation =
        workload::BuildFederation(w.specs, net::LatencyModel::None());
    ThreadPool pool(2);
    for (const auto& [label, text] : w.queries) {
      Result<sparql::Query> query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      const std::vector<sparql::TriplePattern>& triples = query->where.triples;
      if (triples.empty()) continue;
      fed::AskCache ask_cache;
      fed::SourceSelector selector(federation.get(), &ask_cache, &pool);
      fed::MetricsCollector metrics;
      auto sources =
          selector.SelectSources(triples, &metrics, CancelToken(), true);
      ASSERT_TRUE(sources.ok()) << sources.status().ToString();
      core::CostModel model(federation.get(), &pool);
      ASSERT_TRUE(model
                      .CollectStatistics(triples, *sources,
                                         query->where.filters, &metrics,
                                         CancelToken())
                      .ok());
      fed::ExecutionProfile profile;
      metrics.FillCounters(&profile);
      uint64_t pairs = triples.size() * federation->size();
      for (size_t ti = 0; ti < triples.size(); ++ti) {
        pairs += (*sources)[ti].size();
        std::vector<const sparql::Expr*> pushed =
            PushedFilters(triples[ti], query->where.filters);
        for (size_t ep = 0; ep < federation->size(); ++ep) {
          net::Endpoint* endpoint = federation->endpoint(ep);
          const bool relevant =
              SingleValues(endpoint, ProbeKind::kAsk,
                           {sparql::ProbeBody(triples[ti])})[0] > 0;
          const auto& list = (*sources)[ti];
          EXPECT_EQ(std::count(list.begin(), list.end(),
                               static_cast<int>(ep)) > 0,
                    relevant)
              << w.name << "/" << label << " pattern " << ti << " at "
              << endpoint->id();
          if (!relevant) continue;
          EXPECT_EQ(
              model.PatternCount(static_cast<int>(ti), static_cast<int>(ep)),
              SingleValues(endpoint, ProbeKind::kCount,
                           {sparql::ProbeBody(triples[ti], pushed)})[0])
              << w.name << "/" << label << " pattern " << ti << " at "
              << endpoint->id();
        }
      }
      // Duplicate patterns within a query are still probed per pattern.
      EXPECT_EQ(profile.probe_pairs, pairs) << w.name << "/" << label;
      EXPECT_LE(profile.requests, 2 * federation->size());
    }
  }
}

TEST(BatchedProbeTest, GroupByRoundTripsThroughTheSerializer) {
  const std::vector<std::string> texts = {
      sparql::ProbeText(ProbeKind::kAsk,
                        {"?s <http://p> ?o . ", "?s <http://q> ?o . "}),
      sparql::ProbeText(ProbeKind::kCount,
                        {"?s <http://p> ?o . FILTER ((?o > 3)) ",
                         "<http://s> ?p ?o . "}),
      "SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o . } "
      "GROUP BY ?p ORDER BY DESC(?n) LIMIT 3",
      "SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?s"};
  for (const std::string& text : texts) {
    Result<sparql::Query> first = sparql::ParseQuery(text);
    ASSERT_TRUE(first.ok()) << text << ": " << first.status().ToString();
    const std::string printed = sparql::QueryToString(*first);
    Result<sparql::Query> second = sparql::ParseQuery(printed);
    ASSERT_TRUE(second.ok()) << printed << ": " << second.status().ToString();
    EXPECT_EQ(sparql::QueryToString(*second), printed);
    EXPECT_EQ(second->group_by, first->group_by);
  }
  // A reprinted probe text is still a batched probe.
  for (size_t i = 0; i < 2; ++i) {
    std::optional<sparql::ProbeBatch> batch = sparql::MatchProbeBatch(
        *sparql::ParseQuery(sparql::QueryToString(*sparql::ParseQuery(texts[i]))));
    ASSERT_TRUE(batch.has_value()) << texts[i];
    EXPECT_EQ(batch->kind, i == 0 ? ProbeKind::kAsk : ProbeKind::kCount);
    EXPECT_EQ(batch->branches.size(), 2u);
  }
  for (const char* bad :
       {"SELECT ?s (COUNT(*) AS ?c) WHERE { ?s ?p ?o . }",
        "SELECT ?s WHERE { ?s ?p ?o . } GROUP BY ?s",
        "SELECT ?o (COUNT(*) AS ?c) WHERE { ?s ?p ?o . } GROUP BY ?s",
        "SELECT * WHERE { ?s ?p ?o . } GROUP BY ?s",
        "ASK { ?s ?p ?o . } GROUP BY ?s",
        "SELECT ?s (COUNT(*) AS ?c) WHERE { ?s ?p ?o . } GROUP BY ?s ?p"}) {
    EXPECT_FALSE(sparql::ParseQuery(bad).ok()) << bad;
  }
}

/// `n` triples <a_i> <p> <b_i>.
std::shared_ptr<net::SparqlEndpoint> ChainEndpoint(int n) {
  std::vector<rdf::TermTriple> triples;
  for (int i = 0; i < n; ++i) {
    triples.push_back({rdf::Term::Iri("http://ex/a" + std::to_string(i)),
                       rdf::Term::Iri("http://ex/p"),
                       rdf::Term::Iri("http://ex/b" + std::to_string(i))});
  }
  return std::make_shared<net::SparqlEndpoint>("chain", StoreOf(triples),
                                               net::LatencyModel::None());
}

TEST(BatchedProbeTest, AskBranchStopsAtItsFirstSolution) {
  // 10^4 triples make the cartesian branch 10^8 solutions: an ASK branch
  // that enumerated them would run for minutes.
  std::shared_ptr<net::SparqlEndpoint> endpoint = ChainEndpoint(10000);
  const std::vector<std::string> bodies = {
      "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ",
      "?a <http://ex/missing> ?b . ", "<http://ex/a7> <http://ex/p> ?b . "};
  Stopwatch watch;
  EXPECT_EQ(BatchValues(endpoint.get(), ProbeKind::kAsk, bodies),
            (std::vector<uint64_t>{1, 0, 1}));
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST(BatchedProbeTest, CountBranchesCountTheirOwnSolutions) {
  std::shared_ptr<net::SparqlEndpoint> endpoint = ChainEndpoint(100);
  const std::vector<std::string> bodies = {
      "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ", "?a <http://ex/p> ?b . ",
      "?a <http://ex/p> ?b . FILTER (?a = <http://ex/a3>) ",
      "?a <http://ex/missing> ?b . "};
  EXPECT_EQ(BatchValues(endpoint.get(), ProbeKind::kCount, bodies),
            (std::vector<uint64_t>{10000, 100, 1, 0}));
  ExpectBatchMatchesSingles(endpoint.get(), endpoint.get(), bodies);
}

/// Answers every COUNT query, single or batched, with `count` as each
/// count: the literal forms a foreign endpoint may send.
class LiteralCountEndpoint : public net::Endpoint {
 public:
  LiteralCountEndpoint(std::string id, rdf::Term count)
      : id_(std::move(id)), count_(std::move(count)) {}

  const std::string& id() const override { return id_; }

  Result<net::QueryResponse> QueryCancellable(const std::string& text,
                                              const CancelToken&) override {
    LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
    if (!query.aggregate.has_value()) {
      return Status::Unsupported("COUNT queries only");
    }
    sparql::ResultTable table;
    if (std::optional<sparql::ProbeBatch> batch =
            sparql::MatchProbeBatch(query)) {
      table.vars = {batch->tag_var, batch->count_alias};
      for (const sparql::ProbeBranch& branch : batch->branches) {
        table.rows.push_back({*branch.tag, count_});
      }
    } else {
      table.vars = {query.aggregate->alias.name};
      table.rows.push_back({count_});
    }
    net::QueryResponse response;
    SetPayload(&response, table);
    return response;
  }

 private:
  std::string id_;
  rdf::Term count_;
};

TEST(BatchedProbeTest, CountLiteralsParseAlikeInCostModelAndShardGather) {
  auto integer = [](const char* lex) {
    return rdf::Term::TypedLiteral(lex, std::string(rdf::kXsdInteger));
  };
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const std::vector<std::pair<rdf::Term, uint64_t>> cases = {
      {integer("-5"), 0},
      {integer("+5"), 5},
      {rdf::Term::TypedLiteral("1.2e3", std::string(rdf::kXsdDouble)), 1200},
      {integer("36893488147419103232"), kMax},  // 2^65
      {rdf::Term::Literal("many"), 0}};
  const std::vector<sparql::TriplePattern> patterns = {
      {sparql::Variable{"s"}, rdf::Term::Iri("http://p"), sparql::Variable{"o"}},
      {sparql::Variable{"s"}, rdf::Term::Iri("http://q"),
       sparql::Variable{"o"}}};
  ThreadPool pool(1);
  for (const auto& [literal, expected] : cases) {
    SCOPED_TRACE(literal.ToString());
    // The cost model, through a single probe and through a batch of two.
    fed::Federation federation;
    federation.Add(std::make_shared<LiteralCountEndpoint>("ep", literal));
    for (size_t n : {1, 2}) {
      core::CostModel model(&federation, &pool);
      fed::MetricsCollector metrics;
      std::vector<sparql::TriplePattern> triples(patterns.begin(),
                                                 patterns.begin() + n);
      ASSERT_TRUE(model
                      .CollectStatistics(triples,
                                         std::vector<std::vector<int>>(n, {0}),
                                         {}, &metrics, CancelToken())
                      .ok());
      for (size_t ti = 0; ti < n; ++ti) {
        EXPECT_EQ(model.PatternCount(static_cast<int>(ti), 0), expected);
      }
    }
    // The shard gather, through its COUNT scatter and a batched probe.
    shard::ShardedEndpointOptions options;
    options.own_pool_threads = 1;
    shard::ShardedEndpoint sharded(
        "sh", shard::ShardMap::HashRing(1),
        {std::make_shared<LiteralCountEndpoint>("sh#0", literal)}, options);
    Result<net::QueryResponse> scattered =
        sharded.Query("SELECT (COUNT(*) AS ?n) WHERE { ?s <http://p> ?o . }");
    ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
    sparql::ResultTable table = TableOf(*scattered);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(sparql::ParseCountLiteral(*table.rows[0][0]), expected);
    EXPECT_EQ(BatchValues(&sharded, ProbeKind::kCount,
                          {sparql::ProbeBody(patterns[0]),
                           sparql::ProbeBody(patterns[1])}),
              (std::vector<uint64_t>{expected, expected}));
  }
}

/// A two-endpoint federation whose second endpoint fails every request.
struct FlakyFederation {
  FlakyFederation() {
    workload::LubmGenerator lubm(workload::LubmConfig::Small());
    std::vector<EndpointSpec> specs = lubm.GenerateAll();
    federation.Add(EndpointOf(specs[0]));
    net::FaultProfile down;
    down.permanently_down = true;
    federation.Add(std::make_shared<net::FaultInjectingEndpoint>(
        EndpointOf(specs[1]), down));
    federation.set_query_cache(&cache);
  }

  cache::FederationCache cache;
  fed::Federation federation;
};

std::vector<sparql::TriplePattern> LubmPatterns() {
  auto query = sparql::ParseQuery(workload::LubmGenerator::Q1());
  EXPECT_TRUE(query.ok());
  return query->where.triples;
}

TEST(BatchedProbeTest, FailedAskBatchKeepsEveryPatternAndCachesNothing) {
  FlakyFederation flaky;
  ThreadPool pool(2);
  const std::vector<sparql::TriplePattern> patterns = LubmPatterns();
  ASSERT_GE(patterns.size(), 2u);
  const std::string& down_id = flaky.federation.id(1);

  fed::AskCache ask_cache;
  fed::SourceSelector selector(&flaky.federation, &ask_cache, &pool);
  fed::MetricsCollector metrics;
  auto sources = selector.SelectSources(patterns, &metrics, CancelToken(),
                                        true, nullptr,
                                        /*tolerate_failures=*/true);
  ASSERT_TRUE(sources.ok()) << sources.status().ToString();
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const auto& list = (*sources)[pi];
    EXPECT_NE(std::find(list.begin(), list.end(), 1), list.end())
        << "pattern " << pi << " must keep the failed endpoint";
    const std::string key =
        cache::FederationCache::PatternKey(down_id, patterns[pi]);
    EXPECT_FALSE(ask_cache.Get(key).has_value());
    EXPECT_FALSE(flaky.cache.GetVerdict(key).has_value());
  }
  for (const sparql::TriplePattern& tp : patterns) {
    EXPECT_TRUE(
        ask_cache
            .Get(cache::FederationCache::PatternKey(flaky.federation.id(0), tp))
            .has_value())
        << "the healthy endpoint's verdicts are cached";
  }

  fed::AskCache strict_cache;
  fed::SourceSelector strict(&flaky.federation, &strict_cache, &pool);
  fed::MetricsCollector strict_metrics;
  auto failed = strict.SelectSources(patterns, &strict_metrics, CancelToken(),
                                     /*use_cache=*/false);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find(down_id), std::string::npos)
      << failed.status().ToString();
}

TEST(BatchedProbeTest, FailedCountBatchLeavesCountsAbsent) {
  FlakyFederation flaky;
  ThreadPool pool(2);
  const std::vector<sparql::TriplePattern> patterns = LubmPatterns();
  std::vector<std::vector<int>> sources(patterns.size(), {0, 1});

  core::CostModel tolerant(&flaky.federation, &pool);
  fed::MetricsCollector metrics;
  ASSERT_TRUE(tolerant
                  .CollectStatistics(patterns, sources, {}, &metrics,
                                     CancelToken(), nullptr,
                                     /*tolerate_failures=*/true)
                  .ok());
  for (size_t ti = 0; ti < patterns.size(); ++ti) {
    EXPECT_EQ(tolerant.PatternCount(static_cast<int>(ti), 1), 0u);
    const std::string text = core::CostModel::CountQueryText(patterns[ti], {});
    EXPECT_FALSE(flaky.cache
                     .GetCount(cache::FederationCache::Key(
                         flaky.federation.id(1), text))
                     .has_value());
    EXPECT_TRUE(flaky.cache
                    .GetCount(cache::FederationCache::Key(
                        flaky.federation.id(0), text))
                    .has_value());
  }

  core::CostModel strict(&flaky.federation, &pool);
  fed::MetricsCollector strict_metrics;
  EXPECT_FALSE(strict
                   .CollectStatistics(patterns, sources, {}, &strict_metrics,
                                      CancelToken(), nullptr,
                                      /*tolerate_failures=*/false,
                                      /*use_cache=*/false)
                   .ok());
}

TEST(BatchedProbeTest, WarmRepeatIssuesNoProbes) {
  workload::LubmGenerator lubm(workload::LubmConfig::Small());
  auto federation =
      workload::BuildFederation(lubm.GenerateAll(), net::LatencyModel::None());
  cache::FederationCache cache;
  federation->set_query_cache(&cache);
  core::LusailEngine engine(federation.get());
  for (const auto& [label, text] : workload::LubmGenerator::BenchmarkQueries()) {
    auto cold = engine.Execute(text);
    ASSERT_TRUE(cold.ok()) << label << ": " << cold.status().ToString();
    EXPECT_GT(cold->profile.probe_pairs, 0u) << label;
    auto warm = engine.Execute(text);
    ASSERT_TRUE(warm.ok()) << label << ": " << warm.status().ToString();
    EXPECT_EQ(warm->profile.probe_pairs, 0u) << label;
    EXPECT_EQ(warm->profile.ask_requests, 0u) << label;
    EXPECT_EQ(warm->table.rows.size(), cold->table.rows.size()) << label;
  }
}

/// The rows of `table` as sorted strings (order-free comparison).
std::vector<std::string> RowBag(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string s;
    for (const auto& cell : row) {
      s += cell.has_value() ? cell->ToString() : "UNDEF";
      s += '\t';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(BatchedProbeTest, GroupByAnswersMatchTheOracleOnEveryPath) {
  workload::LubmGenerator lubm(workload::LubmConfig::Small());
  std::vector<EndpointSpec> specs = lubm.GenerateAll();
  std::vector<rdf::TermTriple> all;
  for (const EndpointSpec& spec : specs) {
    all.insert(all.end(), spec.triples.begin(), spec.triples.end());
  }
  std::unique_ptr<store::TripleStore> union_store = StoreOf(all);
  sparql::Evaluator oracle(union_store.get());

  auto federation = workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailEngine lusail(federation.get());
  baselines::FedXEngine fedx(federation.get());
  baselines::SplendidEngine splendid(federation.get());
  splendid.BuildIndex();
  shard::ShardMap map = shard::ShardMap::HashRing(3);
  std::vector<std::shared_ptr<net::Endpoint>> members;
  {
    std::vector<std::vector<rdf::TermTriple>> slices(3);
    for (const rdf::TermTriple& t : all) {
      slices[map.ShardOfSubject(t.subject)].push_back(t);
    }
    for (size_t i = 0; i < slices.size(); ++i) {
      members.push_back(std::make_shared<net::SparqlEndpoint>(
          "u#" + std::to_string(i), StoreOf(slices[i]),
          net::LatencyModel::None()));
    }
  }
  shard::ShardedEndpointOptions options;
  options.own_pool_threads = 2;
  shard::ShardedEndpoint sharded("u", map, members, options);

  const std::string ub = "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
  const std::vector<std::string> queries = {
      "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p",
      "SELECT ?d (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + ub +
          "memberOf> ?d . ?s " + ub + "takesCourse> ?c . } GROUP BY ?d",
      "SELECT ?d (COUNT(?a) AS ?n) WHERE { ?s " + ub +
          "memberOf> ?d . OPTIONAL { ?s " + ub +
          "advisor> ?a . } } GROUP BY ?d ORDER BY DESC(?n) ?d LIMIT 5"};
  for (const std::string& text : queries) {
    Result<sparql::Query> query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    Result<sparql::ResultTable> expected = oracle.Execute(*query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_GT(expected->rows.size(), 0u) << text;
    for (fed::FederatedEngine* engine :
         std::vector<fed::FederatedEngine*>{&lusail, &fedx, &splendid}) {
      auto result = engine->Execute(text);
      ASSERT_TRUE(result.ok())
          << engine->name() << ": " << result.status().ToString();
      EXPECT_EQ(result->table.vars, expected->vars) << engine->name();
      EXPECT_EQ(RowBag(result->table), RowBag(*expected))
          << engine->name() << " on " << text;
    }
    Result<net::QueryResponse> gathered = sharded.Query(text);
    ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
    EXPECT_EQ(RowBag(TableOf(*gathered)), RowBag(*expected))
        << "shard gather on " << text;
  }
}

}  // namespace
}  // namespace lusail
