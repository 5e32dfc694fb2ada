#ifndef LUSAIL_BENCH_BENCH_UTIL_H_
#define LUSAIL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "baselines/fedx_engine.h"
#include "baselines/hibiscus.h"
#include "baselines/splendid_engine.h"
#include "core/lusail_engine.h"
#include "federation/federation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workload/federation_builder.h"

namespace lusail::bench {

/// Per-query deadline for every benchmark run (the paper aborts queries
/// after one hour; scaled down here). Override with
/// LUSAIL_BENCH_TIMEOUT_MS.
inline double BenchTimeoutMillis() {
  if (const char* env = std::getenv("LUSAIL_BENCH_TIMEOUT_MS")) {
    return std::strtod(env, nullptr);
  }
  return 10000.0;
}

/// Latency sleep scaling so geo-distributed runs stay laptop-friendly
/// while preserving every ranking. Override with
/// LUSAIL_BENCH_SLEEP_SCALE.
inline double BenchSleepScale(double default_scale) {
  if (const char* env = std::getenv("LUSAIL_BENCH_SLEEP_SCALE")) {
    return std::strtod(env, nullptr);
  }
  return default_scale;
}

inline net::LatencyModel LocalClusterLatency() {
  net::LatencyModel model = net::LatencyModel::LocalCluster();
  model.sleep_scale = BenchSleepScale(1.0);
  return model;
}

inline net::LatencyModel GeoLatency() {
  net::LatencyModel model = net::LatencyModel::GeoDistributed();
  model.sleep_scale = BenchSleepScale(0.25);
  return model;
}

/// The full engine lineup of the paper's evaluation, bound to one
/// federation.
struct EngineSet {
  std::unique_ptr<fed::Federation> federation;
  /// Per-endpoint request stats, exported into the default metrics
  /// registry so BENCH_*.json dumps carry a full /metrics-style snapshot.
  std::unique_ptr<obs::EndpointStatsRegistry> stats;
  obs::ScopedCollector stats_collector;
  std::unique_ptr<core::LusailEngine> lusail;
  std::unique_ptr<core::LusailEngine> lusail_lade_only;
  std::unique_ptr<baselines::FedXEngine> fedx;
  std::unique_ptr<baselines::HibiscusIndex> hibiscus_index;
  std::unique_ptr<baselines::FedXEngine> fedx_hibiscus;
  std::unique_ptr<baselines::SplendidEngine> splendid;

  static EngineSet Create(std::vector<workload::EndpointSpec> specs,
                          const net::LatencyModel& latency) {
    // LUSAIL_BENCH_TRACE=1 records a span trace per query; each bench then
    // dumps a Chrome-loadable <name>.trace.json next to its BENCH_*.json.
    const char* trace_env = std::getenv("LUSAIL_BENCH_TRACE");
    bool trace = trace_env != nullptr && std::string(trace_env) == "1";
    EngineSet set;
    set.federation = workload::BuildFederation(std::move(specs), latency);
    set.stats = std::make_unique<obs::EndpointStatsRegistry>();
    set.federation->set_stats_registry(set.stats.get());
    set.stats_collector = obs::ScopedCollector(
        obs::MetricsRegistry::Default(),
        [registry = set.stats.get()](obs::MetricsSnapshot* snapshot) {
          registry->ExportMetrics(snapshot);
        });
    core::LusailOptions lusail_opts;
    lusail_opts.trace = trace;
    set.lusail = std::make_unique<core::LusailEngine>(set.federation.get(),
                                                      lusail_opts);
    core::LusailOptions lade = lusail_opts;
    lade.enable_sape = false;
    set.lusail_lade_only =
        std::make_unique<core::LusailEngine>(set.federation.get(), lade);
    baselines::FedXOptions fedx_opts;
    fedx_opts.trace = trace;
    set.fedx = std::make_unique<baselines::FedXEngine>(set.federation.get(),
                                                       fedx_opts);
    set.hibiscus_index = std::make_unique<baselines::HibiscusIndex>(
        baselines::HibiscusIndex::Build(*set.federation));
    set.fedx_hibiscus = std::make_unique<baselines::FedXEngine>(
        set.federation.get(), fedx_opts);
    set.fedx_hibiscus->set_source_provider(set.hibiscus_index.get());
    baselines::SplendidOptions splendid_opts;
    splendid_opts.trace = trace;
    set.splendid = std::make_unique<baselines::SplendidEngine>(
        set.federation.get(), splendid_opts);
    set.splendid->BuildIndex();
    return set;
  }

  /// The comparison lineup of Figures 8-11: Lusail, FedX, FedX+HiBISCuS,
  /// SPLENDID.
  std::vector<fed::FederatedEngine*> ComparisonEngines() const {
    return {lusail.get(), fedx.get(), fedx_hibiscus.get(), splendid.get()};
  }
};

/// Directory for the per-query BENCH_*.json metric dumps. Defaults to the
/// working directory; set LUSAIL_BENCH_METRICS_DIR="" to disable dumps.
inline const char* BenchMetricsDir() {
  if (const char* env = std::getenv("LUSAIL_BENCH_METRICS_DIR")) return env;
  return ".";
}

/// Writes the last iteration's ExecutionProfile as BENCH_<label>.json (and,
/// when the engine recorded a trace, <label>.trace.json for
/// chrome://tracing / Perfetto). '/' in the benchmark name becomes '_'.
inline void DumpBenchMetrics(const std::string& label,
                             const fed::ExecutionProfile& profile, double rows,
                             double timeouts, double errors) {
  std::string dir = BenchMetricsDir();
  if (label.empty() || dir.empty()) return;
  std::string safe = label;
  for (char& c : safe) {
    if (c == '/' || c == ' ') c = '_';
  }
  obs::JsonValue json = fed::ProfileToJson(profile);
  json.Set("label", obs::JsonValue(label));
  json.Set("rows", obs::JsonValue(rows));
  json.Set("timeouts", obs::JsonValue(timeouts));
  json.Set("errors", obs::JsonValue(errors));
  // Snapshot of every collector registered with the default registry
  // (empty when the bench registered none), so a dump carries the same
  // counters /metrics would expose at this instant.
  json.Set("metrics", obs::MetricsRegistry::Default()->Collect().ToJson());
  std::ofstream out(dir + "/BENCH_" + safe + ".json");
  if (out) out << json.Pretty() << "\n";
  if (profile.trace != nullptr) {
    std::ofstream trace_out(dir + "/" + safe + ".trace.json");
    if (trace_out) trace_out << profile.trace->ToChromeJsonString() << "\n";
  }
}

/// Runs one (engine, query) pair per benchmark iteration, reporting the
/// paper's measured quantities as counters:
///   requests, askReq, probePairs (the logical (pattern, endpoint)
///   probes those requests carried), bytesSent, bytesRecv, rows, netMs
///   and the phase timings. Timeouts and unsupported shapes surface as the
///   "timeout" / "error" counters (the paper's TO / RE markers), not as
///   benchmark failures. When `label` is non-empty the last iteration's
///   profile is dumped to BENCH_<label>.json (see DumpBenchMetrics).
inline void RunFederatedQuery(benchmark::State& state,
                              fed::FederatedEngine* engine,
                              const std::string& query,
                              const std::string& label = "") {
  fed::ExecutionProfile last;
  double timeouts = 0, errors = 0, rows = 0;
  // Paper methodology (Section 5.1): each query runs three times and the
  // average of the last two is reported; source-selection caches stay
  // warm. The untimed warm-up below is run 1; the two timed iterations
  // are runs 2-3.
  {
    Deadline deadline = Deadline::AfterMillis(BenchTimeoutMillis());
    (void)engine->Execute(query, deadline);
  }
  for (auto _ : state) {
    Deadline deadline = Deadline::AfterMillis(BenchTimeoutMillis());
    auto result = engine->Execute(query, deadline);
    if (result.ok()) {
      last = result->profile;
      rows = static_cast<double>(result->table.NumRows());
    } else if (result.status().code() == StatusCode::kTimeout) {
      timeouts += 1;
    } else {
      errors += 1;
    }
  }
  state.counters["requests"] = static_cast<double>(last.requests);
  state.counters["askReq"] = static_cast<double>(last.ask_requests);
  state.counters["probePairs"] = static_cast<double>(last.probe_pairs);
  state.counters["bytesSent"] = static_cast<double>(last.bytes_sent);
  state.counters["bytesRecv"] = static_cast<double>(last.bytes_received);
  state.counters["rows"] = rows;
  state.counters["netMs"] = last.network_ms;
  state.counters["firstRowMs"] = last.first_row_ms;
  state.counters["srcSelMs"] = last.source_selection_ms;
  state.counters["analysisMs"] = last.analysis_ms;
  state.counters["execMs"] = last.execution_ms;
  state.counters["timeout"] = timeouts;
  state.counters["error"] = errors;
  DumpBenchMetrics(label, last, rows, timeouts, errors);
}

/// Registers one benchmark per engine for the query under
/// "<figure>/<query>/<engine>". Single iteration: each run is a complete
/// federated query execution (caches stay warm within an engine, as in
/// the paper's repeated-runs methodology).
inline void RegisterQueryBenchmarks(const std::string& figure,
                                    const std::string& query_label,
                                    const std::string& query,
                                    const std::vector<fed::FederatedEngine*>&
                                        engines) {
  for (fed::FederatedEngine* engine : engines) {
    std::string name = figure + "/" + query_label + "/" + engine->name();
    benchmark::RegisterBenchmark(
        name.c_str(),
        [engine, query, name](benchmark::State& state) {
          RunFederatedQuery(state, engine, query, name);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
  }
}

}  // namespace lusail::bench

#endif  // LUSAIL_BENCH_BENCH_UTIL_H_
