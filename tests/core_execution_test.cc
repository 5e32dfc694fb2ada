// Unit tests for the SAPE execution machinery: the cost model (Chauvenet
// outlier rejection, delay thresholds, cardinality estimation), the DP
// join-order optimizer, and the parallel hash join.

#include <cmath>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/hash_join.h"
#include "core/join_optimizer.h"
#include "sparql/parser.h"
#include "workload/federation_builder.h"
#include "workload/qfed_generator.h"

namespace lusail::core {
namespace {

// ---------------------------------------------------------------------
// Chauvenet + delay decisions
// ---------------------------------------------------------------------

TEST(ChauvenetTest, NoOutliersInUniformData) {
  std::vector<double> xs = {10, 11, 9, 10, 12, 10, 11};
  auto flags = ChauvenetOutliers(xs);
  for (bool f : flags) EXPECT_FALSE(f);
}

TEST(ChauvenetTest, ExtremeValueIsRejected) {
  std::vector<double> xs = {10, 11, 9, 10, 12, 1000000};
  auto flags = ChauvenetOutliers(xs);
  EXPECT_TRUE(flags.back());
  for (size_t i = 0; i + 1 < xs.size(); ++i) EXPECT_FALSE(flags[i]);
}

TEST(ChauvenetTest, TinySamplesAreNeverRejected) {
  EXPECT_FALSE(ChauvenetOutliers({1, 1000000})[1]);
  EXPECT_TRUE(ChauvenetOutliers({}).empty());
}

TEST(DelayDecisionTest, SingleSubqueryNeverDelayed) {
  auto delayed = DecideDelayed({1e9}, {100}, DelayThreshold::kMu);
  EXPECT_FALSE(delayed[0]);
}

TEST(DelayDecisionTest, LargeCardinalityIsDelayed) {
  std::vector<double> cards = {10, 10, 10, 100000};
  std::vector<double> eps = {2, 2, 2, 2};
  auto delayed = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  EXPECT_FALSE(delayed[0]);
  EXPECT_FALSE(delayed[1]);
  EXPECT_FALSE(delayed[2]);
  EXPECT_TRUE(delayed[3]);
}

TEST(DelayDecisionTest, ManyEndpointsAloneTriggersDelay) {
  std::vector<double> cards = {10, 10, 10, 10};
  std::vector<double> eps = {2, 2, 2, 200};
  auto delayed = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  EXPECT_TRUE(delayed[3]);
}

TEST(DelayDecisionTest, ThresholdsAreMonotonic) {
  // Looser thresholds (higher k) must delay a subset of what tighter
  // thresholds delay.
  std::vector<double> cards = {5, 8, 20, 60, 300};
  std::vector<double> eps = {1, 1, 1, 1, 1};
  auto mu = DecideDelayed(cards, eps, DelayThreshold::kMu);
  auto mu_sigma = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  auto mu_2sigma = DecideDelayed(cards, eps, DelayThreshold::kMu2Sigma);
  for (size_t i = 0; i < cards.size(); ++i) {
    if (mu_2sigma[i]) {
      EXPECT_TRUE(mu_sigma[i]) << i;
    }
    if (mu_sigma[i]) {
      EXPECT_TRUE(mu[i]) << i;
    }
  }
}

TEST(DelayDecisionTest, AtLeastOneNonDelayedSurvives) {
  // Identical large values: whatever the threshold does, at least one
  // subquery must run in the concurrent phase.
  std::vector<double> cards = {1000, 1000, 1000};
  std::vector<double> eps = {50, 50, 50};
  for (DelayThreshold t :
       {DelayThreshold::kMu, DelayThreshold::kMuSigma,
        DelayThreshold::kMu2Sigma, DelayThreshold::kOutliersOnly}) {
    auto delayed = DecideDelayed(cards, eps, t);
    EXPECT_NE(std::count(delayed.begin(), delayed.end(), false), 0);
  }
}

// ---------------------------------------------------------------------
// Cost model statistics (against a live mini-federation)
// ---------------------------------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::QFedGenerator gen(workload::QFedConfig::Small());
    specs_ = gen.GenerateAll();
    federation_ =
        workload::BuildFederation(specs_, net::LatencyModel::None());
  }

  std::vector<workload::EndpointSpec> specs_;
  std::unique_ptr<fed::Federation> federation_;
  ThreadPool pool_{4};
};

TEST_F(CostModelTest, CountsAreExact) {
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "SELECT * WHERE { ?d db:name ?n . }");
  ASSERT_TRUE(q.ok());
  CostModel model(federation_.get(), &pool_);
  fed::MetricsCollector metrics;
  // drugbank is endpoint 0.
  ASSERT_TRUE(model
                  .CollectStatistics(q->where.triples, {{0}}, {}, &metrics,
                                     CancelToken())
                  .ok());
  workload::QFedConfig cfg = workload::QFedConfig::Small();
  EXPECT_EQ(model.PatternCount(0, 0),
            static_cast<uint64_t>(cfg.num_drugs));
  EXPECT_EQ(model.PatternTotal(0), static_cast<uint64_t>(cfg.num_drugs));
}

TEST_F(CostModelTest, FilterPushdownTightensCounts) {
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "SELECT * WHERE { ?d db:name ?n . FILTER (CONTAINS(?n, \"amide\")) }");
  ASSERT_TRUE(q.ok());
  CostModel with_filter(federation_.get(), &pool_);
  CostModel without(federation_.get(), &pool_);
  fed::MetricsCollector metrics;
  ASSERT_TRUE(with_filter
                  .CollectStatistics(q->where.triples, {{0}},
                                     q->where.filters, &metrics, CancelToken())
                  .ok());
  ASSERT_TRUE(without
                  .CollectStatistics(q->where.triples, {{0}}, {}, &metrics,
                                     CancelToken())
                  .ok());
  EXPECT_LT(with_filter.PatternCount(0, 0), without.PatternCount(0, 0));
  EXPECT_GT(with_filter.PatternCount(0, 0), 0u);
}

TEST_F(CostModelTest, SubqueryCardinalityUsesMinOverJoin) {
  // Two patterns on ?d: counts 150 (name) and 150 (type) at drugbank,
  // joined min per endpoint, summed over endpoints.
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "SELECT * WHERE { ?d db:name ?n . ?d db:interactsWith ?x . }");
  ASSERT_TRUE(q.ok());
  CostModel model(federation_.get(), &pool_);
  fed::MetricsCollector metrics;
  ASSERT_TRUE(model
                  .CollectStatistics(q->where.triples, {{0}, {0}}, {},
                                     &metrics, CancelToken())
                  .ok());
  Subquery sq;
  sq.triple_indices = {0, 1};
  sq.sources = {0};
  sq.projection = {"d"};
  double card = model.SubqueryCardinality(sq, q->where.triples);
  EXPECT_DOUBLE_EQ(card,
                   std::min(static_cast<double>(model.PatternCount(0, 0)),
                            static_cast<double>(model.PatternCount(1, 0))));
}

TEST_F(CostModelTest, CountQueryTextShape) {
  auto q = sparql::ParseQuery("SELECT * WHERE { ?s <http://p> ?o . }");
  std::string text = CostModel::CountQueryText(q->where.triples[0], {});
  EXPECT_NE(text.find("COUNT(*)"), std::string::npos);
  EXPECT_TRUE(sparql::ParseQuery(text).ok());
}

// ---------------------------------------------------------------------
// Join optimizer
// ---------------------------------------------------------------------

TEST(JoinOptimizerTest, SingleAndEmpty) {
  EXPECT_TRUE(JoinOptimizer::OptimalOrder({}, {}, 4).empty());
  EXPECT_EQ(JoinOptimizer::OptimalOrder({10}, {{"x"}}, 4),
            (std::vector<int>{0}));
}

TEST(JoinOptimizerTest, OrderCoversAllRelationsOnce) {
  std::vector<double> sizes = {100, 10, 1000, 50};
  std::vector<std::set<std::string>> vars = {
      {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}};
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 4u);
}

TEST(JoinOptimizerTest, PrefersConnectedExpansions) {
  // Relations 0-1 share a var; 2 is disjoint. The cartesian join with 2
  // must come last.
  std::vector<double> sizes = {10, 20, 5};
  std::vector<std::set<std::string>> vars = {{"x"}, {"x"}, {"zzz"}};
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  EXPECT_EQ(order.back(), 2);
}

TEST(JoinOptimizerTest, GreedyFallbackBeyondDpLimit) {
  const size_t n = JoinOptimizer::kDpLimit + 3;
  std::vector<double> sizes(n);
  std::vector<std::set<std::string>> vars(n);
  for (size_t i = 0; i < n; ++i) {
    sizes[i] = static_cast<double>(100 * (i + 1));
    vars[i] = {"v" + std::to_string(i), "v" + std::to_string(i + 1)};
  }
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  ASSERT_EQ(order.size(), n);
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), n);
  EXPECT_EQ(order[0], 0) << "greedy starts from the smallest relation";
}

// ---------------------------------------------------------------------
// Parallel hash join
// ---------------------------------------------------------------------

core::IdTable BigTable(core::TermDictionary* dict, const std::string& var,
                       const std::string& other, int n, int offset) {
  core::IdTable t;
  t.vars = {var, other};
  for (int i = 0; i < n; ++i) {
    t.AppendRow({dict->Intern(rdf::Term::Integer(i + offset)),
                 dict->Intern(rdf::Term::Iri("http://r/" + other + "/" +
                                             std::to_string(i)))});
  }
  return t;
}

TEST(ParallelHashJoinTest, MatchesSequentialJoin) {
  core::TermDictionary dict;
  ThreadPool pool(4);
  core::IdTable left = BigTable(&dict, "k", "l", 3000, 0);
  core::IdTable right = BigTable(&dict, "k", "r", 3000, 1500);
  core::IdTable parallel = ParallelHashJoin(left, right, &pool, 8);
  core::IdTable sequential = core::JoinIds(left, right, /*left_outer=*/false);
  EXPECT_EQ(parallel.NumRows(), sequential.NumRows());
  EXPECT_EQ(parallel.NumRows(), 1500u);  // Overlap of the key ranges.
  // Same row multiset regardless of partitioning.
  auto key_of = [](const core::IdTable& t) {
    std::multiset<std::vector<rdf::TermId>> keys;
    int k = t.VarIndex("k"), l = t.VarIndex("l"), r = t.VarIndex("r");
    for (size_t row = 0; row < t.NumRows(); ++row) {
      keys.insert({t.At(row, static_cast<size_t>(k)),
                   t.At(row, static_cast<size_t>(l)),
                   t.At(row, static_cast<size_t>(r))});
    }
    return keys;
  };
  EXPECT_EQ(key_of(parallel), key_of(sequential));
}

TEST(ParallelHashJoinTest, SmallInputsFallBack) {
  core::TermDictionary dict;
  ThreadPool pool(2);
  core::IdTable left = BigTable(&dict, "k", "l", 10, 0);
  core::IdTable right = BigTable(&dict, "k", "r", 10, 5);
  core::IdTable joined = ParallelHashJoin(left, right, &pool, 8);
  EXPECT_EQ(joined.NumRows(), 5u);
}

TEST(ParallelHashJoinTest, StableColumnOrder) {
  core::TermDictionary dict;
  ThreadPool pool(4);
  core::IdTable left = BigTable(&dict, "k", "l", 3000, 0);
  core::IdTable right = BigTable(&dict, "k", "r", 3000, 0);
  core::IdTable joined = ParallelHashJoin(left, right, &pool, 8);
  ASSERT_EQ(joined.vars.size(), 3u);
  EXPECT_EQ(joined.vars[0], "k");
  EXPECT_EQ(joined.vars[1], "l");
  EXPECT_EQ(joined.vars[2], "r");
}

}  // namespace
}  // namespace lusail::core
