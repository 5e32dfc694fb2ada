// Cross-engine result-consistency property tests: for every benchmark
// query of every workload, Lusail (in all of its configurations), FedX,
// FedX+HiBISCuS and SPLENDID must return exactly the oracle answer — the
// query evaluated over the union of all endpoint data. This is the
// repository's strongest correctness net (paper Section 3.3, Lemmas 1-2).

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "baselines/hibiscus.h"
#include "baselines/splendid_engine.h"
#include "core/lusail_engine.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"
#include "workload/qfed_generator.h"

namespace lusail {
namespace {

using workload::EndpointSpec;

std::multiset<std::string> RowBag(const sparql::ResultTable& table,
                                  bool as_set = false) {
  std::vector<size_t> order(table.vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::multiset<std::string> rows;
  for (const auto& row : table.rows) {
    std::string line;
    for (size_t i : order) {
      line += table.vars[i] + "=" +
              (row[i].has_value() ? row[i]->ToString() : "UNDEF") + "|";
    }
    rows.insert(line);
  }
  if (as_set) {
    std::multiset<std::string> dedup;
    std::string last;
    for (const std::string& r : rows) {
      if (r != last) dedup.insert(r);
      last = r;
    }
    return dedup;
  }
  return rows;
}

struct WorkloadCase {
  std::string name;
  std::vector<EndpointSpec> specs;
  std::vector<std::pair<std::string, std::string>> queries;
};

std::vector<WorkloadCase> MakeCases() {
  std::vector<WorkloadCase> cases;
  {
    WorkloadCase c;
    c.name = "figure1";
    c.specs = workload::Figure1Federation();
    c.queries = {{"Qa", workload::Figure2QueryQa()}};
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "lubm";
    c.specs =
        workload::LubmGenerator(workload::LubmConfig::Small()).GenerateAll();
    c.queries = workload::LubmGenerator::BenchmarkQueries();
    c.queries.push_back({"Qa", workload::LubmGenerator::QueryQa()});
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "qfed";
    c.specs =
        workload::QFedGenerator(workload::QFedConfig::Small()).GenerateAll();
    c.queries = workload::QFedGenerator::BenchmarkQueries();
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "lrb";
    c.specs =
        workload::LrbGenerator(workload::LrbConfig::Small()).GenerateAll();
    for (const auto& q : workload::LrbGenerator::SimpleQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::ComplexQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::LargeQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::Bio2RdfQueries()) {
      c.queries.push_back(q);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Oracle: evaluate over the union graph with the local engine.
sparql::ResultTable Oracle(const std::vector<EndpointSpec>& specs,
                           const std::string& text) {
  store::TripleStore store;
  for (const EndpointSpec& spec : specs) {
    for (const rdf::TermTriple& t : spec.triples) store.Add(t);
  }
  store.Freeze();
  sparql::Evaluator evaluator(&store);
  auto query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto result = evaluator.Execute(*query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

class ConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ConsistencyTest, AllEnginesMatchOracle) {
  static const std::vector<WorkloadCase> kCases = MakeCases();
  const WorkloadCase& wc = kCases[GetParam()];
  auto federation =
      workload::BuildFederation(wc.specs, net::LatencyModel::None());

  core::LusailEngine lusail(federation.get());
  core::LusailOptions lade_only;
  lade_only.enable_sape = false;
  core::LusailEngine lusail_lade(federation.get(), lade_only);
  baselines::FedXEngine fedx(federation.get());
  baselines::HibiscusIndex hibiscus =
      baselines::HibiscusIndex::Build(*federation);
  baselines::FedXEngine fedx_hibiscus(federation.get());
  fedx_hibiscus.set_source_provider(&hibiscus);
  baselines::SplendidEngine splendid(federation.get());
  splendid.BuildIndex();

  std::vector<fed::FederatedEngine*> engines = {
      &lusail, &lusail_lade, &fedx, &fedx_hibiscus, &splendid};

  for (const auto& [label, query_text] : wc.queries) {
    sparql::ResultTable oracle = Oracle(wc.specs, query_text);
    auto parsed = sparql::ParseQuery(query_text);
    ASSERT_TRUE(parsed.ok());
    // LIMIT queries pick an arbitrary subset; compare row counts only.
    bool limited = parsed->limit.has_value();
    for (fed::FederatedEngine* engine : engines) {
      auto result = engine->Execute(query_text);
      if (!result.ok()) {
        // Baselines are allowed to reject unsupported shapes (the paper's
        // "runtime error" entries); Lusail must execute everything.
        EXPECT_TRUE(result.status().code() == StatusCode::kUnsupported &&
                    engine->name() != "Lusail" &&
                    engine->name() != "Lusail-LADE")
            << wc.name << "/" << label << " on " << engine->name() << ": "
            << result.status().ToString();
        continue;
      }
      if (limited) {
        EXPECT_EQ(result->table.NumRows(), oracle.NumRows())
            << wc.name << "/" << label << " on " << engine->name();
      } else {
        EXPECT_EQ(RowBag(result->table), RowBag(oracle))
            << wc.name << "/" << label << " on " << engine->name();
      }
    }
  }
}

std::string WorkloadCaseName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* kNames[] = {"figure1", "lubm", "qfed", "lrb"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ConsistencyTest,
                         ::testing::Range<size_t>(0, 4), WorkloadCaseName);

/// The delay-threshold options must not change results, only performance.
class ThresholdConsistencyTest
    : public ::testing::TestWithParam<core::DelayThreshold> {};

TEST_P(ThresholdConsistencyTest, ThresholdDoesNotChangeResults) {
  auto specs =
      workload::QFedGenerator(workload::QFedConfig::Small()).GenerateAll();
  auto federation =
      workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailOptions options;
  options.delay_threshold = GetParam();
  core::LusailEngine engine(federation.get(), options);
  for (const auto& [label, query] :
       workload::QFedGenerator::BenchmarkQueries()) {
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    sparql::ResultTable oracle = Oracle(specs, query);
    EXPECT_EQ(RowBag(result->table), RowBag(oracle)) << label;
  }
}

std::string ThresholdName(
    const ::testing::TestParamInfo<core::DelayThreshold>& info) {
  switch (info.param) {
    case core::DelayThreshold::kMu:
      return "Mu";
    case core::DelayThreshold::kMuSigma:
      return "MuSigma";
    case core::DelayThreshold::kMu2Sigma:
      return "Mu2Sigma";
    case core::DelayThreshold::kOutliersOnly:
      return "OutliersOnly";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllThresholds, ThresholdConsistencyTest,
                         ::testing::Values(
                             core::DelayThreshold::kMu,
                             core::DelayThreshold::kMuSigma,
                             core::DelayThreshold::kMu2Sigma,
                             core::DelayThreshold::kOutliersOnly),
                         ThresholdName);

}  // namespace
}  // namespace lusail
