// Reproduces Figure 12: profiling Lusail's three phases (source
// selection, query analysis / LADE, query execution / SAPE).
//   (a) LargeRDFBench S10 / C4 / B1 on the local cluster: analysis must
//       stay a small fraction of total time.
//   (b,c) LUBM Q3 / Q4 while scaling the number of university endpoints
//       (2..64 by default; set LUSAIL_BENCH_MAX_ENDPOINTS=256 for the
//       paper's full sweep), with cold and warm ASK/check caches.
// The phase timings are the srcSelMs / analysisMs / execMs counters.
// probePairs counts the logical (pattern, endpoint) ASK and COUNT probes
// the paper's per-pair probing sends; requests and askReq count the
// physical requests, with one batched probe request per endpoint and
// phase. serialWaves counts the sets of requests the query waited on one
// after another (LADE's checks and COUNT probes are one set).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"

namespace lusail::bench {
namespace {

int MaxEndpoints() {
  if (const char* env = std::getenv("LUSAIL_BENCH_MAX_ENDPOINTS")) {
    return std::atoi(env);
  }
  return 64;
}

void RunLusailProfiled(benchmark::State& state, core::LusailEngine* engine,
                       const std::string& query, bool clear_caches) {
  fed::ExecutionProfile last;
  for (auto _ : state) {
    if (clear_caches) engine->ClearCaches();
    Deadline deadline = Deadline::AfterMillis(BenchTimeoutMillis());
    auto result = engine->Execute(query, deadline);
    if (result.ok()) last = result->profile;
  }
  state.counters["srcSelMs"] = last.source_selection_ms;
  state.counters["analysisMs"] = last.analysis_ms;
  state.counters["execMs"] = last.execution_ms;
  state.counters["requests"] = static_cast<double>(last.requests);
  state.counters["askReq"] = static_cast<double>(last.ask_requests);
  state.counters["probePairs"] = static_cast<double>(last.probe_pairs);
  state.counters["serialWaves"] = static_cast<double>(last.serial_waves);
}

}  // namespace
}  // namespace lusail::bench

int main(int argc, char** argv) {
  using namespace lusail;
  std::printf(
      "Figure 12 reproduction: Lusail phase profiling.\n"
      "(a) LRB S10/C4/B1 phases; (b,c) LUBM Q3/Q4 endpoint sweep with\n"
      "cold vs warm ASK+check caches.\n\n");

  // ---- (a) Phase breakdown on LRB S10 / C4 / B1. ----
  static workload::LrbGenerator lrb{workload::LrbConfig()};
  static auto lrb_engines = bench::EngineSet::Create(
      lrb.GenerateAll(), bench::LocalClusterLatency());
  auto find_query = [](const std::string& label) {
    for (const auto& set :
         {workload::LrbGenerator::SimpleQueries(),
          workload::LrbGenerator::ComplexQueries(),
          workload::LrbGenerator::LargeQueries()}) {
      for (const auto& [l, q] : set) {
        if (l == label) return q;
      }
    }
    return std::string();
  };
  for (const char* label : {"S10", "C4", "B1"}) {
    std::string query = find_query(label);
    benchmark::RegisterBenchmark(
        ("Fig12a/" + std::string(label) + "/Lusail").c_str(),
        [query](benchmark::State& state) {
          bench::RunLusailProfiled(state, lrb_engines.lusail.get(), query,
                                   /*clear_caches=*/false);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }

  // ---- (b, c) LUBM endpoint sweep. ----
  static std::vector<std::unique_ptr<bench::EngineSet>> keep_alive;
  for (int endpoints = 2; endpoints <= bench::MaxEndpoints();
       endpoints *= 2) {
    workload::LubmConfig config = workload::LubmConfig::Sweep();
    config.num_universities = endpoints;
    workload::LubmGenerator generator(config);
    auto engines = std::make_unique<bench::EngineSet>(
        bench::EngineSet::Create(generator.GenerateAll(),
                                 bench::LocalClusterLatency()));
    core::LusailEngine* lusail = engines->lusail.get();
    for (const auto& [label, query] :
         {std::pair<std::string, std::string>{"Q3",
                                              workload::LubmGenerator::Q3()},
          {"Q4", workload::LubmGenerator::Q4()}}) {
      std::string base = "Fig12bc/" + label + "/" +
                         std::to_string(endpoints) + "endpoints";
      benchmark::RegisterBenchmark(
          (base + "/coldCache").c_str(),
          [lusail, query](benchmark::State& state) {
            bench::RunLusailProfiled(state, lusail, query, true);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
      benchmark::RegisterBenchmark(
          (base + "/warmCache").c_str(),
          [lusail, query](benchmark::State& state) {
            // The cold run above (and this warm-up) populate the caches.
            Deadline deadline =
                Deadline::AfterMillis(bench::BenchTimeoutMillis());
            (void)lusail->Execute(query, deadline);
            bench::RunLusailProfiled(state, lusail, query, false);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
    keep_alive.push_back(std::move(engines));
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
