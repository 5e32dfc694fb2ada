// Cross-query cache + QueryService smoke benchmark (and CI gate).
//
// Runs the LUBM Q1-Q4 workload twice against one federation with a
// shared cache::FederationCache attached: a cold pass (fresh engine,
// empty cache) and a warm pass (fresh engine, warm cache). The warm pass
// must issue strictly fewer endpoint requests — the CI step fails this
// binary otherwise — and the full workload targets a >= 5x reduction.
// It then runs the same workload 8-ways concurrent through QueryService
// and checks the results are row-identical to sequential execution.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "core/lusail_engine.h"
#include "net/sparql_endpoint.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace {

using namespace lusail;

uint64_t TotalRequests(const fed::Federation& federation) {
  uint64_t total = 0;
  for (size_t i = 0; i < federation.size(); ++i) {
    auto* ep = dynamic_cast<net::SparqlEndpoint*>(federation.endpoint(i));
    if (ep != nullptr) total += ep->stats().requests;
  }
  return total;
}

void ResetRequests(const fed::Federation& federation) {
  for (size_t i = 0; i < federation.size(); ++i) {
    auto* ep = dynamic_cast<net::SparqlEndpoint*>(federation.endpoint(i));
    if (ep != nullptr) ep->ResetStats();
  }
}

/// Order-free row fingerprint for result comparison.
std::multiset<std::string> RowSet(const sparql::ResultTable& table) {
  // Sort columns by variable name so layouts compare equal.
  std::vector<size_t> cols(table.vars.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::sort(cols.begin(), cols.end(), [&table](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::multiset<std::string> out;
  for (const auto& row : table.rows) {
    std::string key;
    for (size_t c : cols) {
      key += table.vars[c] + "=";
      key += row[c].has_value() ? row[c]->ToString() : "UNBOUND";
      key += ";";
    }
    out.insert(std::move(key));
  }
  return out;
}

core::LusailOptions CachingOptions() {
  core::LusailOptions options;
  options.result_cache = true;
  return options;
}

}  // namespace

int main() {
  workload::LubmConfig config = workload::LubmConfig::Small();
  workload::LubmGenerator generator(config);
  std::unique_ptr<fed::Federation> federation = workload::BuildFederation(
      generator.GenerateAll(), net::LatencyModel::None());
  cache::FederationCache shared_cache;
  federation->set_query_cache(&shared_cache);

  const std::vector<std::pair<std::string, std::string>> queries =
      workload::LubmGenerator::BenchmarkQueries();

  // ---- Cold pass: empty shared cache, fresh engine. ----
  ResetRequests(*federation);
  std::map<std::string, std::multiset<std::string>> cold_rows;
  {
    core::LusailEngine engine(federation.get(), CachingOptions());
    for (const auto& [label, query] : queries) {
      auto result = engine.Execute(query, Deadline());
      if (!result.ok()) {
        std::printf("FAIL: cold %s: %s\n", label.c_str(),
                    result.status().ToString().c_str());
        return 1;
      }
      cold_rows[label] = RowSet(result->table);
    }
  }
  const uint64_t cold_requests = TotalRequests(*federation);

  // ---- Warm pass: fresh engine (empty per-engine caches), warm shared
  // cache — every saved request is the shared cache's doing. ----
  ResetRequests(*federation);
  {
    core::LusailEngine engine(federation.get(), CachingOptions());
    for (const auto& [label, query] : queries) {
      auto result = engine.Execute(query, Deadline());
      if (!result.ok()) {
        std::printf("FAIL: warm %s: %s\n", label.c_str(),
                    result.status().ToString().c_str());
        return 1;
      }
      if (RowSet(result->table) != cold_rows[label]) {
        std::printf("FAIL: warm %s rows differ from cold run\n",
                    label.c_str());
        return 1;
      }
    }
  }
  const uint64_t warm_requests = TotalRequests(*federation);

  double reduction = warm_requests == 0
                         ? static_cast<double>(cold_requests)
                         : static_cast<double>(cold_requests) /
                               static_cast<double>(warm_requests);
  std::printf("cold requests: %llu\nwarm requests: %llu\nreduction: %.1fx\n",
              static_cast<unsigned long long>(cold_requests),
              static_cast<unsigned long long>(warm_requests), reduction);
  obs::MetricsSnapshot cache_metrics;
  shared_cache.ExportMetrics(&cache_metrics);
  std::printf("cache stats: %s\n", cache_metrics.ToJson().Pretty().c_str());
  if (warm_requests >= cold_requests) {
    std::printf("FAIL: warm run must issue strictly fewer endpoint "
                "requests than cold\n");
    return 1;
  }

  // ---- QueryService: 8 concurrent queries (Q1-Q4 twice) must match the
  // sequential results exactly. ----
  cache::QueryServiceOptions service_options;
  service_options.max_concurrent = 8;
  service_options.engine = CachingOptions();
  cache::QueryService service(federation.get(), service_options);
  std::vector<std::pair<std::string,
                        std::future<Result<fed::FederatedResult>>>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [label, query] : queries) {
      auto submitted = service.Submit(query);
      if (!submitted.ok()) {
        std::printf("FAIL: submit %s: %s\n", label.c_str(),
                    submitted.status().ToString().c_str());
        return 1;
      }
      futures.emplace_back(label, std::move(submitted).value());
    }
  }
  for (auto& [label, future] : futures) {
    Result<fed::FederatedResult> result = future.get();
    if (!result.ok()) {
      std::printf("FAIL: concurrent %s: %s\n", label.c_str(),
                  result.status().ToString().c_str());
      return 1;
    }
    if (RowSet(result->table) != cold_rows[label]) {
      std::printf("FAIL: concurrent %s rows differ from sequential\n",
                  label.c_str());
      return 1;
    }
  }
  service.Drain();
  obs::MetricsSnapshot service_metrics;
  service.ExportMetrics(&service_metrics);
  std::printf("query service: %s\n",
              service_metrics.ToJson().Serialize().c_str());
  std::printf("OK: 8 concurrent queries matched sequential results\n");
  return 0;
}
