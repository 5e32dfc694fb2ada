#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "core/lusail_engine.h"
#include "net/sparql_endpoint.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "probe.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "trace_layers.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"

namespace perfbench {

namespace {

using lusail::Result;
using lusail::Status;
using lusail::Stopwatch;
using lusail::workload::EndpointSpec;
namespace cache = lusail::cache;
namespace core = lusail::core;
namespace fed = lusail::fed;
namespace net = lusail::net;
namespace rpc = lusail::rpc;
namespace workload = lusail::workload;

// Thread budgets. The host gives the benchmark 4 vCPUs of a shared
// machine; a workload that needs every one of them at once measures its
// neighbours as much as the engine. So the CPU-bound workloads run the
// engine on one thread, and service-http runs one query at a time while
// the other clients wait in the service's queue. lrb-geo-cold's threads
// mostly sleep in the simulated network, so it keeps four.
constexpr size_t kLubmCpuThreads = 1;
constexpr size_t kLrbThreads = 4;
constexpr size_t kServiceThreads = 1;
constexpr size_t kServiceConcurrency = 1;
constexpr size_t kServiceClients = 4;
constexpr size_t kServerWorkers = 2;

// ---------------------------------------------------------------------
// Small statistics helpers.

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The host is shared, and a neighbour's burst only ever slows the
/// benchmark down. Timings are therefore read at the fast end of their
/// samples, the speed the program reaches whenever the host lets it,
/// rather than at the median, which moves with the neighbours' load:
/// single client, the fastest execution of each query type (quantile 0);
/// service, the better quartile of the slices (see SlicedMetrics).
constexpr double kFastQuantile = 0.0;
constexpr double kFastSliceQuantile = 0.25;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Whether to time another setup: at least 3, then more until 1 s has
/// gone to setups (at most 15), so a short setup's median rests on enough
/// samples that one hiccup cannot move it. The cap on time keeps the
/// longer setups at three, so repeated teardowns do not inflate the
/// process's peak RSS.
bool WantAnotherSetup(const std::vector<double>& setups_s) {
  double spent = std::accumulate(setups_s.begin(), setups_s.end(), 0.0);
  return setups_s.size() < 3 || (setups_s.size() < 15 && spent < 1.0);
}

// ---------------------------------------------------------------------
// Queries and the oracle.

struct QueryCase {
  std::string label;
  std::string text;
  Expectation expect;
};

/// Evaluates every query once on the union of the datasets, before any
/// setup. The union store is gone before the first deployment is built.
Result<std::vector<QueryCase>> PrepareCases(
    const std::vector<EndpointSpec>& specs,
    const std::vector<std::pair<std::string, std::string>>& queries) {
  std::vector<std::string> texts;
  for (const auto& query : queries) texts.push_back(query.second);
  LUSAIL_ASSIGN_OR_RETURN(std::vector<Expectation> expectations,
                          ExpectAll(specs, texts));
  std::vector<QueryCase> cases;
  for (size_t i = 0; i < queries.size(); ++i) {
    cases.push_back(QueryCase{queries[i].first, queries[i].second,
                              std::move(expectations[i])});
  }
  std::fprintf(stderr, "oracle: %zu queries, peak RSS after %.1f MB\n",
               cases.size(), PeakRssMb());
  return cases;
}

std::string Q4Top10() {
  return workload::LubmGenerator::Q4() + "\nORDER BY DESC(?A) LIMIT 10";
}

std::string Q2Count() {
  std::string text = workload::LubmGenerator::Q2();
  const std::string head = "SELECT ?X ?Y ?Z WHERE";
  text.replace(text.find(head), head.size(), "SELECT (COUNT(?X) AS ?n) WHERE");
  return text;
}

/// LubmConfig::Bench() on 8 universities with every per-department count
/// multiplied by `factor`.
workload::LubmConfig ScaledLubm(int factor, uint64_t seed) {
  workload::LubmConfig config = workload::LubmConfig::Bench();
  config.num_universities = 8;
  config.professors_per_department *= factor;
  config.grad_students_per_department *= factor;
  config.undergrad_students_per_department *= factor;
  config.courses_per_department *= factor;
  config.seed = seed;
  return config;
}

size_t TripleCount(const std::vector<EndpointSpec>& specs) {
  size_t n = 0;
  for (const EndpointSpec& spec : specs) n += spec.triples.size();
  return n;
}

// ---------------------------------------------------------------------
// Layer surfaces and their counters.

/// A point-in-time copy of every public counter the benchmark reads.
struct LayerState {
  RequestTotals federation{};  ///< Calls the federation made to endpoints.
  RequestTotals backend{};     ///< Calls HTTP servers made to their stores.
  double encode_ms = 0.0, decode_ms = 0.0;
  double encoded_cells = 0.0, decoded_cells = 0.0;
  uint64_t connections_opened = 0, connections_reused = 0;
  cache::TierStats verdicts, counts;

  /// Adds what the counters moved from `before` to `after`.
  void Accumulate(const LayerState& after, const LayerState& before) {
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      KindTotals f = after.federation[k];
      f.Subtract(before.federation[k]);
      federation[k].Add(f);
      KindTotals b = after.backend[k];
      b.Subtract(before.backend[k]);
      backend[k].Add(b);
    }
    encode_ms += after.encode_ms - before.encode_ms;
    decode_ms += after.decode_ms - before.decode_ms;
    encoded_cells += after.encoded_cells - before.encoded_cells;
    decoded_cells += after.decoded_cells - before.decoded_cells;
    connections_opened +=
        after.connections_opened - before.connections_opened;
    connections_reused +=
        after.connections_reused - before.connections_reused;
    verdicts.hits += after.verdicts.hits - before.verdicts.hits;
    verdicts.misses += after.verdicts.misses - before.verdicts.misses;
    counts.hits += after.counts.hits - before.counts.hits;
    counts.misses += after.counts.misses - before.counts.misses;
  }
};

/// Non-owning pointers to the public surfaces of one deployment.
struct Surfaces {
  const RequestCounters* federation = nullptr;
  const RequestCounters* backend = nullptr;  ///< service-http only.
  const core::LusailEngine* engine = nullptr;
  std::vector<const rpc::HttpSparqlEndpoint*> clients;
  const cache::FederationCache* cache = nullptr;

  LayerState Capture() const {
    LayerState s;
    s.federation = federation->Snapshot();
    if (backend != nullptr) s.backend = backend->Snapshot();
    lusail::obs::MetricsSnapshot snapshot;
    engine->ExportMetrics(&snapshot);
    for (const auto& family : snapshot.families()) {
      if (family.samples.empty()) continue;
      double v = family.samples[0].value;
      const std::string prefix = "lusail_engine_dictionary_";
      if (family.name == prefix + "encode_seconds_total") s.encode_ms = v * 1e3;
      if (family.name == prefix + "decode_seconds_total") s.decode_ms = v * 1e3;
      if (family.name == prefix + "encode_cells_total") s.encoded_cells = v;
      if (family.name == prefix + "decode_cells_total") s.decoded_cells = v;
    }
    for (const rpc::HttpSparqlEndpoint* client : clients) {
      rpc::HttpClientStats stats = client->stats();
      s.connections_opened += stats.connections_opened;
      s.connections_reused += stats.connections_reused;
    }
    if (cache != nullptr) {
      s.verdicts = cache->VerdictStats();
      s.counts = cache->CountStats();
    }
    return s;
  }
};

// ---------------------------------------------------------------------
// One measured window.

/// One executed query, filed after its clock stopped.
struct Sample {
  size_t type = 0;
  double done_ms = 0.0;    ///< Completion time since the window started.
  double latency_ms = 0.0;
  /// Single client: process CPU spent inside the query. Service: process
  /// CPU time at completion (slices difference it).
  double cpu_ms = 0.0;
  double requests = 0.0;
  double bytes = 0.0;      ///< Sent plus received.
  double rows = 0.0;       ///< Answer rows.
};

/// The samples and counter deltas of one or more spans of measurement;
/// the loops below append to it.
struct Window {
  explicit Window(const std::vector<QueryCase>* cases) : cases(cases) {}

  const std::vector<QueryCase>* cases;
  uint64_t attempted = 0;
  uint64_t failed = 0;    ///< Errors, rejections and wrong answers.
  double wall_ms = 0.0;   ///< Window length, including answer checks.
  double start_cpu_ms = 0.0;
  std::vector<Sample> samples;  ///< Correct answers only.
  fed::ExecutionProfile sum;    ///< Counters and phase times, summed.
  TraceLayers layers;
  LayerState delta;
  double queue_wait_p50 = 0.0, queue_wait_p99 = 0.0;

  uint64_t completed() const { return attempted - failed; }

  double Total(double Sample::*field) const {
    double total = 0.0;
    for (const Sample& s : samples) total += s.*field;
    return total;
  }

  /// Checks one answer and files it. Called after the query's clock has
  /// stopped. Not thread-safe; the service loop serializes calls.
  void Record(Sample sample, const Result<fed::FederatedResult>& result,
              bool matches, const std::string& why) {
    ++attempted;
    const QueryCase& qc = (*cases)[sample.type];
    if (!result.ok()) {
      ++failed;
      std::fprintf(stderr, "query %s failed: %s\n", qc.label.c_str(),
                   result.status().ToString().c_str());
      return;
    }
    if (!matches) {
      ++failed;
      std::fprintf(stderr, "query %s: wrong answer: %s\n", qc.label.c_str(),
                   why.c_str());
      return;
    }
    const fed::ExecutionProfile& p = result->profile;
    sample.requests = static_cast<double>(p.requests);
    sample.bytes = static_cast<double>(p.bytes_sent + p.bytes_received);
    sample.rows = static_cast<double>(result->table.NumRows());
    samples.push_back(sample);
    sum.ask_requests += p.ask_requests;
    sum.bytes_received += p.bytes_received;
    sum.rows_received += p.rows_received;
    sum.network_ms += p.network_ms;
    sum.source_selection_ms += p.source_selection_ms;
    sum.analysis_ms += p.analysis_ms;
    sum.execution_ms += p.execution_ms;
    sum.peak_intermediate_rows += p.peak_intermediate_rows;
    sum.retries += p.retries;
    if (p.trace != nullptr) layers.Add(*p.trace);
  }

  /// `field` of every sample of query type `type`.
  std::vector<double> Series(size_t type, double Sample::*field) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.type == type) out.push_back(s.*field);
    }
    return out;
  }

  /// Prints one line per query type to stderr. With `exact`, also
  /// reports request or byte counts that varied between executions of
  /// one query: single-client workloads repeat each query with identical
  /// state, so such drift is nondeterminism, not noise.
  void ReportPerType(bool exact) const {
    for (size_t t = 0; t < cases->size(); ++t) {
      const std::string& label = (*cases)[t].label;
      std::vector<double> latency = Series(t, &Sample::latency_ms);
      std::fprintf(stderr,
                   "  %-12s n=%-5zu median %9.3f ms  fastest %9.3f ms  requests "
                   "%8.1f  bytes %11.0f  rows %8.0f\n",
                   label.c_str(), latency.size(), Median(latency),
                   Quantile(latency, kFastQuantile),
                   Median(Series(t, &Sample::requests)),
                   Median(Series(t, &Sample::bytes)),
                   Median(Series(t, &Sample::rows)));
      if (!exact) continue;
      for (double Sample::*field : {&Sample::requests, &Sample::bytes}) {
        std::vector<double> series = Series(t, field);
        if (series.empty()) continue;
        auto [lo, hi] = std::minmax_element(series.begin(), series.end());
        if (*lo != *hi) {
          std::fprintf(stderr,
                       "nondeterminism: %s %s varied between executions "
                       "(%.0f..%.0f)\n",
                       label.c_str(),
                       field == &Sample::requests ? "requests" : "bytes", *lo,
                       *hi);
        }
      }
    }
  }
};

bool CheckAnswer(const QueryCase& qc, const Result<fed::FederatedResult>& r,
                 std::string* why) {
  return r.ok() && MatchesExpectation(qc.expect, r->table, why);
}

/// One client running whole passes over the queries, each pass in a
/// seeded random order, until `seconds` have passed, appending to `w`.
/// `cold` clears the engine's caches before each query (outside the
/// clock).
void SingleClientLoop(core::LusailEngine* engine,
                      const std::vector<QueryCase>& cases, double seconds,
                      uint64_t seed, bool cold, const Surfaces& surfaces,
                      Window* w) {
  LayerState before = surfaces.Capture();
  std::mt19937_64 rng(seed);
  std::vector<size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  Stopwatch wall;
  while (wall.ElapsedSeconds() < seconds) {
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t t : order) {
      if (cold) engine->ClearCaches();
      double cpu0 = ProcessCpuMs();
      Stopwatch watch;
      Result<fed::FederatedResult> result = engine->Execute(cases[t].text);
      Sample sample;
      sample.latency_ms = watch.ElapsedMillis();
      sample.cpu_ms = ProcessCpuMs() - cpu0;
      sample.type = t;
      sample.done_ms = w->wall_ms + wall.ElapsedMillis();
      std::string why;
      bool ok = CheckAnswer(cases[t], result, &why);
      w->Record(sample, result, ok, why);
    }
  }
  w->wall_ms += wall.ElapsedMillis();
  w->delta.Accumulate(surfaces.Capture(), before);
}

/// `kServiceClients` closed-loop clients submitting to the service, each
/// in its own seeded random order, until `seconds` have passed, appending
/// to `w`. Latency runs from Submit to the resolved future, so it
/// includes queue wait.
void ServiceLoop(cache::QueryService* service,
                 const std::vector<QueryCase>& cases, double seconds,
                 uint64_t seed, const Surfaces& surfaces, Window* w) {
  LayerState before = surfaces.Capture();
  if (w->samples.empty()) w->start_cpu_ms = ProcessCpuMs();
  std::mutex mu;
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kServiceClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 7919 + c);
      std::vector<size_t> order(cases.size());
      std::iota(order.begin(), order.end(), 0);
      while (wall.ElapsedSeconds() < seconds) {
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t t : order) {
          if (wall.ElapsedSeconds() >= seconds) break;
          Stopwatch watch;
          auto submitted = service->Submit(cases[t].text);
          Result<fed::FederatedResult> result =
              submitted.ok() ? (*submitted).get()
                             : Result<fed::FederatedResult>(submitted.status());
          Sample sample;
          sample.latency_ms = watch.ElapsedMillis();
          sample.type = t;
          std::string why;
          bool ok = CheckAnswer(cases[t], result, &why);
          std::lock_guard<std::mutex> lock(mu);
          sample.done_ms = w->wall_ms + wall.ElapsedMillis();
          sample.cpu_ms = ProcessCpuMs();
          w->Record(sample, result, ok, why);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  w->wall_ms += wall.ElapsedMillis();
  w->delta.Accumulate(surfaces.Capture(), before);
  lusail::cache::QueryServiceStats stats = service->Stats();
  w->queue_wait_p50 = stats.wait.P50();
  w->queue_wait_p99 = stats.wait.P99();
}

// ---------------------------------------------------------------------
// Metrics.

// `single_client` below: one client running whole passes over the
// queries, so throughput is executions over time spent in queries.
// Otherwise (service-http) throughput is completions over wall time, and
// the service, wire and cache layers exist.

/// The time throughput is measured over (see above).
double MeasuredMs(const Window& w, bool single_client) {
  return single_client ? w.Total(&Sample::latency_ms) : w.wall_ms;
}

/// The timing and count metrics, in the order they are reported.
constexpr size_t kNumTimed = 8;
constexpr std::pair<const char*, const char*> kTimed[kNumTimed] = {
    {"throughput_qps", "1/s"},     {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},      {"latency_ms.p99", "ms"},
    {"latency_ms.geomean", "ms"},  {"requests_per_query", "count"},
    {"bytes_per_query", "bytes"},  {"cpu_ms_per_query", "ms"}};

/// Single client: every query type runs once per pass with identical
/// state, so each type's latency is read at kFastQuantile of its
/// executions (its fastest), and the timings are those of one pass at
/// those speeds. CPU time, which a descheduled thread does not accrue, is
/// the per-type median; so are the counts, which repeat exactly.
std::vector<double> PerTypeMetrics(const Window& w) {
  std::vector<double> latency, cpu;
  double requests = 0.0, bytes = 0.0;
  for (size_t t = 0; t < w.cases->size(); ++t) {
    std::vector<double> lat = w.Series(t, &Sample::latency_ms);
    if (lat.empty()) continue;
    latency.push_back(Quantile(lat, kFastQuantile));
    cpu.push_back(Median(w.Series(t, &Sample::cpu_ms)));
    requests += Median(w.Series(t, &Sample::requests));
    bytes += Median(w.Series(t, &Sample::bytes));
  }
  const double types = static_cast<double>(latency.size());
  double log_sum = 0.0;
  for (double v : latency) log_sum += std::log(std::max(v, 1e-6));
  const double pass_ms = std::accumulate(latency.begin(), latency.end(), 0.0);
  return {Ratio(types, pass_ms / 1000.0),
          Quantile(latency, 0.50),
          Quantile(latency, 0.90),
          Quantile(latency, 0.99),
          types > 0 ? std::exp(log_sum / types) : 0.0,
          Ratio(requests, types),
          Ratio(bytes, types),
          Ratio(std::accumulate(cpu.begin(), cpu.end(), 0.0), types)};
}

/// Service: the window is cut into kSlices equal spans of wall time and
/// each metric is computed per span, then read at kFastSliceQuantile from
/// the better side, so a neighbour's burst moves the slow spans, not the
/// value. Counts are medians over spans.
constexpr size_t kSlices = 25;

std::vector<double> SlicedMetrics(const Window& w) {
  std::vector<std::vector<const Sample*>> slices(kSlices);
  for (const Sample& s : w.samples) {
    size_t k = static_cast<size_t>(s.done_ms / w.wall_ms * kSlices);
    slices[std::min(k, kSlices - 1)].push_back(&s);
  }
  const double slice_ms = w.wall_ms / kSlices;
  std::vector<std::vector<double>> values(kNumTimed);
  double previous_cpu_ms = w.start_cpu_ms;
  for (const auto& slice : slices) {
    if (slice.empty()) continue;
    std::vector<double> all;
    std::vector<std::vector<double>> by_type(w.cases->size());
    double requests = 0.0, bytes = 0.0, last_cpu_ms = previous_cpu_ms;
    for (const Sample* s : slice) {
      all.push_back(s->latency_ms);
      by_type[s->type].push_back(s->latency_ms);
      requests += s->requests;
      bytes += s->bytes;
      last_cpu_ms = std::max(last_cpu_ms, s->cpu_ms);
    }
    double log_sum = 0.0;
    size_t types = 0;
    for (const auto& lat : by_type) {
      if (lat.empty()) continue;
      log_sum += std::log(std::max(Median(lat), 1e-6));
      ++types;
    }
    const double n = static_cast<double>(slice.size());
    std::vector<double> v = {Ratio(n, slice_ms / 1000.0),
                             Quantile(all, 0.50),
                             Quantile(all, 0.90),
                             Quantile(all, 0.99),
                             std::exp(log_sum / static_cast<double>(types)),
                             Ratio(requests, n),
                             Ratio(bytes, n),
                             Ratio(last_cpu_ms - previous_cpu_ms, n)};
    for (size_t i = 0; i < v.size(); ++i) values[i].push_back(v[i]);
    previous_cpu_ms = last_cpu_ms;
  }
  // Throughput is better high, the timings better low; counts take the
  // median.
  std::vector<double> out;
  for (size_t i = 0; i < kNumTimed; ++i) {
    double q = i == 0 ? 1.0 - kFastSliceQuantile
               : (i == 5 || i == 6) ? 0.5
                                    : kFastSliceQuantile;
    out.push_back(Quantile(values[i], q));
    std::fprintf(stderr, "  slices %-20s", kTimed[i].first);
    for (double x : values[i]) std::fprintf(stderr, " %9.3f", x);
    std::fprintf(stderr, "\n");
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const Window& w, bool single_client,
                                    double setup_s) {
  std::vector<double> values =
      single_client ? PerTypeMetrics(w) : SlicedMetrics(w);
  std::vector<Metric> out;
  for (size_t i = 0; i < kNumTimed; ++i) {
    out.push_back({kTimed[i].first, values[i], kTimed[i].second});
  }
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out.push_back({"setup_s", setup_s, "s"});
  return out;
}

std::vector<Metric> PerLayerMetrics(const Window& w, const Window& untraced,
                                    bool single_client, size_t engine_threads) {
  const double n = static_cast<double>(w.completed());
  auto per_query = [n](double v) { return Ratio(v, n); };
  const LayerState& d = w.delta;
  const KindTotals fed_all = AllKinds(d.federation);
  const KindTotals backend_all = AllKinds(d.backend);
  auto kind = [&](RequestKind k) -> const KindTotals& {
    return d.federation[static_cast<size_t>(k)];
  };
  const KindTotals& ask = kind(RequestKind::kAsk);
  const KindTotals& bound = kind(RequestKind::kBound);

  std::vector<Metric> m = {
      {"service.queue_wait_ms.p50", w.queue_wait_p50, "ms"},
      {"service.queue_wait_ms.p99", w.queue_wait_p99, "ms"},
      {"federation.source_selection_ms", per_query(w.sum.source_selection_ms),
       "ms/query"},
      {"federation.ask_requests", per_query(w.sum.ask_requests), "count/query"},
      {"lade.analysis_ms", per_query(w.sum.analysis_ms), "ms/query"},
      {"lade.gjv_ms", per_query(w.layers.gjv_ms), "ms/query"},
      {"lade.count_probe_ms", per_query(w.layers.count_probe_ms), "ms/query"},
      {"lade.decompose_ms", per_query(w.layers.decompose_ms), "ms/query"},
      {"lade.check_requests", per_query(kind(RequestKind::kCheck).requests),
       "count/query"},
      {"lade.count_requests", per_query(kind(RequestKind::kCount).requests),
       "count/query"},
      {"sape.execution_ms", per_query(w.sum.execution_ms), "ms/query"},
      {"sape.self_ms", per_query(w.layers.sape_self_ms), "ms/query"},
      {"core.finish_ms", per_query(w.layers.finish_ms), "ms/query"},
      {"sape.peak_intermediate_rows", per_query(w.sum.peak_intermediate_rows),
       "rows/query"},
      {"sape.subquery_requests",
       per_query(kind(RequestKind::kSubquery).requests), "count/query"},
      {"sape.bound_requests", per_query(bound.requests), "count/query"},
      {"sape.bound_nonempty_ratio", Ratio(bound.nonempty, bound.requests),
       "ratio"},
      {"idspace.encode_ms", per_query(d.encode_ms), "ms/query"},
      {"idspace.decode_ms", per_query(d.decode_ms), "ms/query"},
      {"idspace.encoded_cells", per_query(d.encoded_cells), "count/query"},
      {"idspace.decoded_cells", per_query(d.decoded_cells), "count/query"},
      {"net.request_wait_ms", per_query(fed_all.wait_ms), "ms/query"},
  };
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    m.push_back({std::string("net.request_wait_ms.") +
                     RequestKindName(static_cast<RequestKind>(k)),
                 per_query(d.federation[k].wait_ms), "ms/query"});
  }
  m.push_back({"net.simulated_ms", per_query(w.sum.network_ms), "ms/query"});
  m.push_back({"net.rows_received", per_query(w.sum.rows_received),
               "rows/query"});
  m.push_back({"net.bytes_received", per_query(w.sum.bytes_received),
               "bytes/query"});
  m.push_back({"net.rows_used_ratio",
               Ratio(w.Total(&Sample::rows), w.sum.rows_received), "ratio"});
  m.push_back({"net.ask_true_ratio", Ratio(ask.nonempty, ask.requests),
               "ratio"});
  m.push_back({"net.retries", per_query(w.sum.retries), "count/query"});
  // Server-side evaluation time as the endpoints report it. Over HTTP the
  // backend decorator sees the same evaluations from inside the server.
  m.push_back({"endpoint.server_ms", per_query(fed_all.server_ms), "ms/query"});
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    m.push_back({std::string("endpoint.server_ms.") +
                     RequestKindName(static_cast<RequestKind>(k)),
                 per_query(d.federation[k].server_ms), "ms/query"});
  }
  const double measured_ms = MeasuredMs(w, single_client);
  m.push_back({"endpoint.busy_share",
               Ratio(fed_all.server_ms,
                     measured_ms * static_cast<double>(engine_threads)),
               "ratio"});
  double client_ms = single_client ? 0.0 : fed_all.wait_ms;
  double handler_ms = single_client ? 0.0 : backend_all.wait_ms;
  m.push_back({"rpc.client_call_ms", per_query(client_ms), "ms/query"});
  m.push_back({"rpc.handler_ms", per_query(handler_ms), "ms/query"});
  m.push_back({"rpc.wire_ms", per_query(client_ms - handler_ms), "ms/query"});
  m.push_back({"rpc.connections_opened", per_query(d.connections_opened),
               "count/query"});
  m.push_back({"rpc.connection_reuse_ratio",
               Ratio(d.connections_reused,
                     d.connections_opened + d.connections_reused),
               "ratio"});
  m.push_back({"cache.verdict_hit_ratio",
               Ratio(d.verdicts.hits, d.verdicts.hits + d.verdicts.misses),
               "ratio"});
  m.push_back({"cache.count_hit_ratio",
               Ratio(d.counts.hits, d.counts.hits + d.counts.misses), "ratio"});
  m.push_back({"trace.attributed_share",
               Ratio(w.layers.attributed_ms, w.layers.query_ms), "ratio"});
  double traced_qps = Ratio(n, measured_ms);
  double untraced_qps = Ratio(static_cast<double>(untraced.completed()),
                              MeasuredMs(untraced, single_client));
  m.push_back({"trace.overhead_pct",
               traced_qps > 0.0 ? (untraced_qps / traced_qps - 1.0) * 100.0
                                : 0.0,
               "%"});
  return m;
}

/// Untraced and traced chunks of the per-layer run, in the order
/// U T T U U T T U: a drift in host speed that is linear over the run
/// then weighs equally on both modes and cancels out of
/// trace.overhead_pct.
constexpr size_t kTraceChunks = 8;

bool ChunkTraced(size_t chunk) { return chunk % 4 == 1 || chunk % 4 == 2; }

/// Runs the measured part of a workload: one untraced window for the
/// end-to-end metrics, or alternating untraced and traced chunks for the
/// per-layer ones. `run` appends one span of measurement to a window;
/// `set_trace` toggles engine tracing. Any failed or wrong answer makes
/// the result incorrect, so the run exits non-zero.
BenchResult Measure(const BenchArgs& args, const std::vector<QueryCase>& cases,
                    bool single_client, size_t engine_threads, double setup_s,
                    const std::function<void(double, Window*)>& run,
                    const std::function<void(bool)>& set_trace) {
  BenchResult out;
  if (!args.trace) {
    Window w(&cases);
    run(args.seconds, &w);
    w.ReportPerType(single_client);
    out.attempted = w.attempted;
    out.failed = w.failed;
    out.correct = w.failed == 0;
    out.metrics = EndToEndMetrics(w, single_client, setup_s);
    return out;
  }
  Window untraced(&cases), traced(&cases);
  for (size_t chunk = 0; chunk < kTraceChunks; ++chunk) {
    set_trace(ChunkTraced(chunk));
    run(args.seconds / kTraceChunks,
        ChunkTraced(chunk) ? &traced : &untraced);
  }
  set_trace(false);
  traced.ReportPerType(single_client);
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  out.correct = out.failed == 0;
  out.metrics = PerLayerMetrics(traced, untraced, single_client, engine_threads);
  return out;
}

core::LusailOptions EngineOptions(size_t threads) {
  core::LusailOptions options;
  options.num_threads = threads;
  return options;
}

/// Deploys each dataset as an in-process SPARQL endpoint, wrapped in a
/// TimingEndpoint that files into `counters`.
std::unique_ptr<fed::Federation> DeployInProcess(
    const std::vector<EndpointSpec>& specs, const net::LatencyModel& latency,
    RequestCounters* counters) {
  auto federation = std::make_unique<fed::Federation>();
  for (const EndpointSpec& spec : specs) {
    auto store = std::make_unique<lusail::store::TripleStore>();
    for (const auto& triple : spec.triples) store->Add(triple);
    store->Freeze();
    federation->Add(std::make_shared<TimingEndpoint>(
        std::make_shared<net::SparqlEndpoint>(spec.id, std::move(store),
                                              latency),
        counters));
  }
  return federation;
}

void LogSetup(const char* workload, const std::vector<EndpointSpec>& specs,
              const std::vector<double>& setups) {
  std::fprintf(stderr, "%s: %zu endpoints, %zu triples, setup", workload,
               specs.size(), TripleCount(specs));
  for (double s : setups) std::fprintf(stderr, " %.3fs", s);
  std::fprintf(stderr, "\n");
}

// ---------------------------------------------------------------------
// Workloads.

/// The single-client workloads: each dataset an in-process endpoint under
/// `latency`, and an engine on `threads` threads. `cold` clears the
/// engine's caches before every query; otherwise each setup ends with one
/// warm-up pass over the queries.
Result<BenchResult> RunInProcess(
    const BenchArgs& args, const std::vector<EndpointSpec>& specs,
    const std::vector<std::pair<std::string, std::string>>& queries,
    const net::LatencyModel& latency, size_t threads, bool cold) {
  LUSAIL_ASSIGN_OR_RETURN(std::vector<QueryCase> cases,
                          PrepareCases(specs, queries));
  RequestCounters counters;
  std::unique_ptr<fed::Federation> federation;
  std::unique_ptr<core::LusailEngine> engine;
  std::vector<double> setups;
  while (WantAnotherSetup(setups)) {
    engine.reset();
    federation.reset();
    Stopwatch watch;
    federation = DeployInProcess(specs, latency, &counters);
    engine = std::make_unique<core::LusailEngine>(federation.get(),
                                                  EngineOptions(threads));
    for (size_t i = 0; !cold && i < cases.size(); ++i) {
      LUSAIL_RETURN_NOT_OK(engine->Execute(cases[i].text).status());
    }
    setups.push_back(watch.ElapsedSeconds());
  }
  LogSetup(args.workload.c_str(), specs, setups);
  Surfaces surfaces;
  surfaces.federation = &counters;
  surfaces.engine = engine.get();
  return Measure(
      args, cases, /*single_client=*/true, threads, Median(setups),
      [&](double seconds, Window* w) {
        SingleClientLoop(engine.get(), cases, seconds, args.seed, cold,
                         surfaces, w);
      },
      [&](bool on) { engine->mutable_options()->trace = on; });
}

/// Single client, warm caches, network charged but never slept: endpoint
/// evaluation and federator CPU set the time.
Result<BenchResult> RunLubmCpu(const BenchArgs& args) {
  using workload::LubmGenerator;
  return RunInProcess(
      args, LubmGenerator(ScaledLubm(16, args.seed)).GenerateAll(),
      {{"Q1", LubmGenerator::Q1()},
       {"Q2", LubmGenerator::Q2()},
       {"Q3", LubmGenerator::Q3(0)},
       {"Q4", LubmGenerator::Q4()},
       {"Qa", LubmGenerator::QueryQa()},
       {"Q4-top10", Q4Top10()},
       {"Q2-count", Q2Count()}},
      net::LatencyModel{0.2, 125000.0, 0.0}, kLubmCpuThreads, /*cold=*/false);
}

/// Single client, every query cold, geo-distributed latency model:
/// simulated waits, source selection and LADE probes set the time.
Result<BenchResult> RunLrbGeoCold(const BenchArgs& args) {
  using workload::LrbGenerator;
  workload::LrbConfig config;
  config.seed = args.seed;
  std::vector<std::pair<std::string, std::string>> queries;
  for (const auto& group : {LrbGenerator::SimpleQueries(),
                            LrbGenerator::ComplexQueries(),
                            LrbGenerator::LargeQueries()}) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  net::LatencyModel latency = net::LatencyModel::GeoDistributed();
  latency.sleep_scale = 0.25;
  return RunInProcess(args, LrbGenerator(config).GenerateAll(), queries,
                      latency, kLrbThreads, /*cold=*/true);
}

/// The service-http deployment: one loopback HTTP server per dataset, a
/// federation of HTTP clients, a shared FederationCache and a
/// QueryService. Members are destroyed in reverse order: the service
/// drains before the servers stop.
struct HttpDeployment {
  std::vector<std::unique_ptr<rpc::HttpServer>> servers;
  std::vector<std::shared_ptr<rpc::HttpSparqlEndpoint>> clients;
  fed::Federation federation;
  cache::FederationCache federation_cache;
  std::unique_ptr<cache::QueryService> service;

  Status Start(const std::vector<EndpointSpec>& specs,
               RequestCounters* federation_counters,
               RequestCounters* backend_counters) {
    for (const EndpointSpec& spec : specs) {
      auto store = std::make_unique<lusail::store::TripleStore>();
      for (const auto& triple : spec.triples) store->Add(triple);
      store->Freeze();
      auto backend = std::make_shared<TimingEndpoint>(
          std::make_shared<net::SparqlEndpoint>(spec.id, std::move(store),
                                                net::LatencyModel::None()),
          backend_counters);
      rpc::HttpServerOptions options;
      options.num_threads = kServerWorkers;
      servers.push_back(
          std::make_unique<rpc::HttpServer>(std::move(backend), options));
      LUSAIL_RETURN_NOT_OK(servers.back()->Start());
      clients.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
          spec.id, "127.0.0.1", servers.back()->port()));
      federation.Add(
          std::make_shared<TimingEndpoint>(clients.back(),
                                           federation_counters));
    }
    federation.set_query_cache(&federation_cache);
    cache::QueryServiceOptions options;
    options.max_concurrent = kServiceConcurrency;
    options.engine = EngineOptions(kServiceThreads);
    service = std::make_unique<cache::QueryService>(&federation, options);
    for (auto& client : clients) {
      client->set_parse_dictionary(service->engine()->dictionary());
    }
    return Status::OK();
  }
};

/// Four clients through QueryService over loopback HTTP with a warm
/// FederationCache: the wire layer, the service queue and many small joins.
Result<BenchResult> RunServiceHttp(const BenchArgs& args) {
  // x4, not x2: at x2, seeds 5 and 11 of 1..30 make the engine plan one
  // Q3(u) as an 87-request bound join instead of 8 requests, which moves
  // every metric of those seeds. No seed in 1..30 does this at x4.
  std::vector<EndpointSpec> specs =
      workload::LubmGenerator(ScaledLubm(4, args.seed)).GenerateAll();
  using workload::LubmGenerator;
  std::vector<std::pair<std::string, std::string>> queries;
  for (int u = 0; u < 8; ++u) {
    queries.push_back({"Q3u" + std::to_string(u), LubmGenerator::Q3(u)});
  }
  queries.push_back({"Qa", LubmGenerator::QueryQa()});
  queries.push_back({"Q2", LubmGenerator::Q2()});
  queries.push_back({"Q4-top10", Q4Top10()});
  queries.push_back({"Q2-count", Q2Count()});
  queries.push_back({"Q1-limit100", LubmGenerator::Q1() + "\nLIMIT 100"});
  LUSAIL_ASSIGN_OR_RETURN(std::vector<QueryCase> cases,
                          PrepareCases(specs, queries));
  RequestCounters federation_counters, backend_counters;
  std::unique_ptr<HttpDeployment> deployment;
  std::vector<double> setups;
  while (WantAnotherSetup(setups)) {
    deployment.reset();
    Stopwatch watch;
    deployment = std::make_unique<HttpDeployment>();
    LUSAIL_RETURN_NOT_OK(deployment->Start(specs, &federation_counters,
                                           &backend_counters));
    for (const QueryCase& qc : cases) {
      LUSAIL_ASSIGN_OR_RETURN(auto future,
                              deployment->service->Submit(qc.text));
      LUSAIL_RETURN_NOT_OK(future.get().status());
    }
    setups.push_back(watch.ElapsedSeconds());
  }
  LogSetup("service-http", specs, setups);
  Surfaces surfaces;
  surfaces.federation = &federation_counters;
  surfaces.backend = &backend_counters;
  surfaces.engine = deployment->service->engine();
  for (const auto& client : deployment->clients) {
    surfaces.clients.push_back(client.get());
  }
  surfaces.cache = &deployment->federation_cache;
  cache::QueryService* service = deployment->service.get();
  return Measure(
      args, cases, /*single_client=*/false, kServiceThreads, Median(setups),
      [&](double seconds, Window* w) {
        ServiceLoop(service, cases, seconds, args.seed, surfaces, w);
      },
      [&](bool on) { service->engine()->mutable_options()->trace = on; });
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lubm-cpu", "lrb-geo-cold",
                                                 "service-http"};
  return names;
}

Result<BenchResult> RunWorkload(const BenchArgs& args) {
  if (args.workload == "lubm-cpu") return RunLubmCpu(args);
  if (args.workload == "lrb-geo-cold") return RunLrbGeoCold(args);
  if (args.workload == "service-http") return RunServiceHttp(args);
  return Status::InvalidArgument("unknown workload " + args.workload);
}

}  // namespace perfbench
