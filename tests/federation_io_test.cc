// Tests for federation export/import via N-Triples files, federated
// solution modifiers (ORDER BY, LIMIT, COUNT) checked on every engine
// against the union-store oracle, and failure injection (endpoints that
// error out mid-query).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "baselines/splendid_engine.h"
#include "core/lusail_engine.h"
#include "net/endpoint.h"
#include "net/fault_injection.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

class FederationIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lusail_io_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(FederationIoTest, ExportImportRoundTrip) {
  auto specs = workload::Figure1Federation();
  ASSERT_TRUE(workload::ExportFederation(specs, dir_.string()).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ / "EP1.nt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "EP2.nt"));

  auto loaded = workload::LoadFederationFromDirectory(
      dir_.string(), net::LatencyModel::None());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->size(), 2u);

  // The reloaded federation answers Q_a identically.
  core::LusailEngine engine(loaded->get());
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 3u);
}

TEST_F(FederationIoTest, MissingDirectoryIsNotFound) {
  auto loaded = workload::LoadFederationFromDirectory(
      (dir_ / "nope").string(), net::LatencyModel::None());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(FederationIoTest, CorruptFileIsReported) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "bad.nt") << "this is not ntriples\n";
  auto loaded = workload::LoadFederationFromDirectory(
      dir_.string(), net::LatencyModel::None());
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------
// Federated ORDER BY
// ---------------------------------------------------------------------

constexpr char kUbPrefix[] =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// The small LUBM federation, plus one store holding every endpoint's
/// triples: sparql::Evaluator's answer there is the answer every engine
/// must give.
class FederatedOrderByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto specs =
        workload::LubmGenerator(workload::LubmConfig::Small()).GenerateAll();
    for (const workload::EndpointSpec& spec : specs) {
      for (const rdf::TermTriple& t : spec.triples) union_store_.Add(t);
    }
    union_store_.Freeze();
    federation_ =
        workload::BuildFederation(std::move(specs), net::LatencyModel::None());
  }

  sparql::ResultTable Oracle(const std::string& text) {
    auto query = sparql::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return {};
    auto answer = sparql::Evaluator(&union_store_).Execute(*query);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? *answer : sparql::ResultTable{};
  }

  /// Runs `text` on Lusail, LADE-only Lusail, FedX and SPLENDID and
  /// returns each engine's name with its answer.
  std::vector<std::pair<std::string, sparql::ResultTable>> RunEngines(
      const std::string& text) {
    core::LusailEngine lusail(federation_.get());
    core::LusailOptions lade_only;
    lade_only.enable_sape = false;
    core::LusailEngine lade(federation_.get(), lade_only);
    baselines::FedXEngine fedx(federation_.get());
    baselines::SplendidEngine splendid(federation_.get());
    splendid.BuildIndex();
    std::vector<std::pair<std::string, sparql::ResultTable>> answers;
    for (fed::FederatedEngine* engine :
         std::initializer_list<fed::FederatedEngine*>{&lusail, &lade, &fedx,
                                                      &splendid}) {
      auto result = engine->Execute(text);
      EXPECT_TRUE(result.ok())
          << engine->name() << ": " << result.status().ToString();
      if (result.ok()) answers.emplace_back(engine->name(), result->table);
    }
    return answers;
  }

  /// Column `var` of `table` in row order, cells rendered as N-Triples.
  static std::vector<std::string> ColumnOf(const sparql::ResultTable& table,
                                           const std::string& var) {
    std::vector<std::string> cells;
    auto it = std::find(table.vars.begin(), table.vars.end(), var);
    if (it == table.vars.end()) return cells;
    const size_t col = static_cast<size_t>(it - table.vars.begin());
    for (const auto& row : table.rows) {
      cells.push_back(row[col].has_value() ? row[col]->ToString() : "UNDEF");
    }
    return cells;
  }

  store::TripleStore union_store_;
  std::unique_ptr<fed::Federation> federation_;
};

TEST_F(FederatedOrderByTest, EnginesSortAcrossEndpoints) {
  std::string query =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?u ?n WHERE { ?u ub:name ?n . ?u a ub:University . } "
      "ORDER BY DESC(?n)";
  core::LusailEngine lusail(federation_.get());
  baselines::FedXEngine fedx(federation_.get());
  for (fed::FederatedEngine* engine :
       std::initializer_list<fed::FederatedEngine*>{&lusail, &fedx}) {
    auto result = engine->Execute(query);
    ASSERT_TRUE(result.ok()) << engine->name();
    ASSERT_EQ(result->table.NumRows(), 2u) << engine->name();
    EXPECT_EQ(result->table.rows[0][1]->lexical(), "University1");
    EXPECT_EQ(result->table.rows[1][1]->lexical(), "University0");
  }
}

TEST_F(FederatedOrderByTest, SortKeyOutsideProjectionStillOrders) {
  // ?N is not selected: the engines must sort on it before projecting.
  const std::string pattern =
      "WHERE { ?X a ub:GraduateStudent . ?X ub:name ?N . }";
  const std::string text = std::string(kUbPrefix) + "SELECT ?X " + pattern +
                           " ORDER BY DESC(?N) LIMIT 5";
  // The answer has no ?N column, so rows compare through each student's
  // name, looked up in the union store.
  std::map<std::string, std::string> name_of;
  sparql::ResultTable names =
      Oracle(std::string(kUbPrefix) + "SELECT ?X ?N " + pattern);
  for (const auto& row : names.rows) {
    name_of[row[0]->ToString()] = row[1]->ToString();
  }
  auto keys = [&name_of](const sparql::ResultTable& table) {
    std::vector<std::string> out;
    for (const std::string& x : ColumnOf(table, "X")) {
      auto it = name_of.find(x);
      out.push_back(it == name_of.end() ? "?" : it->second);
    }
    return out;
  };
  sparql::ResultTable want = Oracle(text);
  ASSERT_EQ(want.NumRows(), 5u);
  for (const auto& [engine, got] : RunEngines(text)) {
    EXPECT_EQ(got.vars, want.vars) << engine;
    EXPECT_EQ(keys(got), keys(want)) << engine;
  }
}

TEST_F(FederatedOrderByTest, LimitCutsTheSortedAnswer) {
  // The top 5 names live in every department, so an engine that stops
  // fetching at LIMIT rows before sorting returns the wrong ones.
  const std::string text =
      std::string(kUbPrefix) +
      "SELECT ?X ?N WHERE { ?X a ub:GraduateStudent . ?X ub:name ?N . } "
      "ORDER BY DESC(?N) LIMIT 5";
  sparql::ResultTable want = Oracle(text);
  ASSERT_EQ(want.NumRows(), 5u);
  for (const auto& [engine, got] : RunEngines(text)) {
    EXPECT_EQ(ColumnOf(got, "N"), ColumnOf(want, "N")) << engine;
  }
}

TEST_F(FederatedOrderByTest, CountDistinctCountsValues) {
  const std::string text =
      std::string(kUbPrefix) +
      "SELECT (COUNT(DISTINCT ?Y) AS ?n) WHERE { ?X ub:advisor ?Y . }";
  sparql::ResultTable want = Oracle(text);
  ASSERT_EQ(want.NumRows(), 1u);
  for (const auto& [engine, got] : RunEngines(text)) {
    EXPECT_EQ(ColumnOf(got, "n"), ColumnOf(want, "n")) << engine;
  }
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

/// An endpoint that fails every request after the first `healthy` ones.
class FlakyEndpoint : public net::Endpoint {
 public:
  FlakyEndpoint(std::shared_ptr<net::Endpoint> inner, int healthy)
      : inner_(std::move(inner)), remaining_(healthy) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    if (remaining_-- <= 0) {
      return Status::Internal("injected endpoint failure at " + id());
    }
    return inner_->QueryCancellable(text, cancel);
  }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  std::atomic<int> remaining_;
};

TEST(FailureInjectionTest, EnginesSurfaceEndpointErrors) {
  auto specs = workload::Figure1Federation();
  auto healthy =
      workload::BuildFederation(specs, net::LatencyModel::None());
  // Rebuild a federation where EP2 dies after 3 requests.
  fed::Federation flaky;
  flaky.Add(std::shared_ptr<net::Endpoint>(
      healthy->endpoint(0), [](net::Endpoint*) {}));  // Aliasing, not owned.
  auto ep2 = std::shared_ptr<net::Endpoint>(healthy->endpoint(1),
                                            [](net::Endpoint*) {});
  flaky.Add(std::make_shared<FlakyEndpoint>(ep2, 3));

  core::LusailEngine lusail(&flaky);
  auto result = lusail.Execute(workload::Figure2QueryQa());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------
// Deadline propagation through the engine
// ---------------------------------------------------------------------

TEST(DeadlinePropagationTest, ExpiredDeadlineSurfacesTimeoutFromAnalysis) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  Deadline expired = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto result = engine.Execute(workload::Figure2QueryQa(), expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlinePropagationTest, SlowEndpointsTimeOutMidQuery) {
  // Every request sleeps longer than the whole deadline (clamped to the
  // remaining budget): a later engine phase must observe the expiry and
  // surface kTimeout instead of hanging through all phases.
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  auto base =
      workload::BuildFederation(gen.GenerateAll(), net::LatencyModel::None());
  net::FaultProfile profile;
  profile.slow_rate = 1.0;
  profile.slow_latency_ms = 100.0;
  fed::Federation slow;
  std::vector<std::shared_ptr<net::FaultInjectingEndpoint>> injectors;
  for (size_t i = 0; i < base->size(); ++i) {
    auto inner = std::shared_ptr<net::Endpoint>(base->endpoint(i),
                                                [](net::Endpoint*) {});
    injectors.push_back(
        std::make_shared<net::FaultInjectingEndpoint>(inner, profile));
    slow.Add(injectors.back());
  }
  core::LusailEngine engine(&slow);
  Stopwatch timer;
  auto result =
      engine.Execute(workload::LubmGenerator::Q2(), Deadline::AfterMillis(40));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  // Far less than the ~100 ms-per-request schedule would take unclamped.
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

TEST(FailureInjectionTest, HealthyEndpointsUnaffectedByOtherFederations) {
  // The same endpoints can serve two federations; failures in one wrapper
  // never leak into direct use.
  auto specs = workload::Figure1Federation();
  auto federation =
      workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  for (int i = 0; i < 3; ++i) {
    auto result = engine.Execute(workload::Figure2QueryQa());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.NumRows(), 3u);
  }
}

}  // namespace
}  // namespace lusail
