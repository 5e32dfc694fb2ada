// lusail_endpointd — serve one N-Triples partition as a SPARQL 1.1
// Protocol endpoint over HTTP.
//
// Usage:
//   lusail_endpointd --data <file.nt> [options]
//
// Options:
//   --data <file.nt>      the partition to serve (required)
//   --id <name>           endpoint id (default: the file stem)
//   --port <n>            TCP port (default 0 = pick an ephemeral port)
//   --bind <address>      bind address (default 127.0.0.1)
//   --threads <n>         worker threads (default 4)
//   --max-rows <n>        truncate results beyond n rows (default 0 = off;
//                         truncated responses carry X-Lusail-Truncated)
//   --latency none|local|geo   extra simulated latency (default none —
//                         a real server already has real latency)
//   --num-shards <n>      serve one shard of a sharded logical endpoint:
//                         keep only the triples whose subject the
//                         consistent-hash ring over n shards assigns to
//                         this process (requires --shard-index)
//   --shard-index <k>     which of the n shards this process serves
//                         (0-based). The ring is keyed by shard index
//                         only, so every process that agrees on n derives
//                         the same assignment as the federator's
//                         --shards routing — no shared state needed.
//   --cache-file <path>   crash-safe ASK-verdict cache: warm-load the
//                         snapshot at startup, memoize ASK verdicts
//                         while serving, and save the snapshot back on
//                         graceful shutdown. A restarted endpoint then
//                         answers repeated source-selection probes from
//                         the snapshot instead of re-evaluating them.
//   --slow-ms <n>         flight-recorder slow-query threshold: queries
//                         slower than n ms are logged as one-line JSON
//                         events to stderr (default 0 = off)
//   --log-json            log every completed query as one JSON line to
//                         stderr (the flight recorder's structured log)
//
// Telemetry (see DESIGN.md "Telemetry plane"):
//   GET /metrics        Prometheus text exposition (server, verdict
//                       cache, and ASK-cache counters)
//   GET /debug/queries  the last completed queries, newest first (?n=K)
//   GET /health         liveness + degraded state as JSON; 503 when the
//                       verdict-cache snapshot failed to load
//
// On startup it prints one machine-readable line to stdout:
//   READY <id> <port>
// so scripts (and the loopback tests) can scrape the ephemeral port.
// SIGINT/SIGTERM trigger a graceful drain. Query it with (one command
// line):
//   curl -s -X POST http://127.0.0.1:<port>/sparql
//        -H 'Content-Type: application/sparql-query'
//        --data 'SELECT * WHERE { ?s ?p ?o } LIMIT 3'

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fstream>
#include <sstream>

#include "cache/cached_endpoint.h"
#include "cache/federation_cache.h"
#include "net/sparql_endpoint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rdf/ntriples.h"
#include "rpc/http_server.h"
#include "shard/shard_map.h"
#include "store/triple_store.h"

namespace {

using namespace lusail;

int Usage() {
  std::fprintf(stderr,
               "usage: lusail_endpointd --data <file.nt> [--id <name>]\n"
               "                        [--port <n>] [--bind <address>]\n"
               "                        [--threads <n>] [--max-rows <n>]\n"
               "                        [--stream-batch-rows <n>]\n"
               "                        [--latency none|local|geo]\n"
               "                        [--num-shards <n> --shard-index <k>]\n"
               "                        [--cache-file <path>]\n"
               "                        [--slow-ms <n>] [--log-json]\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string data_file;
  std::string id;
  std::string cache_file;
  rpc::HttpServerOptions server_options;
  std::string latency = "none";
  size_t num_shards = 0;
  long shard_index = -1;
  obs::FlightRecorderOptions recorder_options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--data") {
      if (!next(&data_file)) return Usage();
    } else if (arg == "--id") {
      if (!next(&id)) return Usage();
    } else if (arg == "--port") {
      if (!next(&value)) return Usage();
      server_options.port = static_cast<uint16_t>(std::strtoul(
          value.c_str(), nullptr, 10));
    } else if (arg == "--bind") {
      if (!next(&server_options.bind_address)) return Usage();
    } else if (arg == "--threads") {
      if (!next(&value)) return Usage();
      server_options.num_threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--max-rows") {
      if (!next(&value)) return Usage();
      server_options.max_result_rows =
          std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--stream-batch-rows") {
      if (!next(&value)) return Usage();
      server_options.stream_batch_rows =
          std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--latency") {
      if (!next(&latency)) return Usage();
    } else if (arg == "--num-shards") {
      if (!next(&value)) return Usage();
      num_shards = std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--shard-index") {
      if (!next(&value)) return Usage();
      shard_index = static_cast<long>(std::strtol(value.c_str(), nullptr, 10));
    } else if (arg == "--cache-file") {
      if (!next(&cache_file)) return Usage();
    } else if (arg == "--slow-ms") {
      if (!next(&value)) return Usage();
      recorder_options.slow_threshold_ms = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--log-json") {
      recorder_options.log_json = true;
    } else {
      if (arg != "--help" && arg != "-h") {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      }
      return Usage();
    }
  }
  if (data_file.empty()) return Usage();
  bool sharded = num_shards > 1 || shard_index >= 0;
  if (sharded && (num_shards < 1 || shard_index < 0 ||
                  static_cast<size_t>(shard_index) >= num_shards)) {
    std::fprintf(stderr,
                 "--num-shards/--shard-index must both be given with "
                 "0 <= index < shards\n");
    return Usage();
  }
  if (id.empty()) {
    id = std::filesystem::path(data_file).stem().string();
    if (sharded) id += "-shard" + std::to_string(shard_index);
  }

  auto store = std::make_unique<store::TripleStore>();
  if (sharded) {
    // Keep only this shard's slice: the same ring the federator's
    // --shards routing uses, so subject-routed subqueries always land on
    // the process that holds the data.
    std::ifstream in(data_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", data_file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    shard::ShardMap map = shard::ShardMap::HashRing(num_shards);
    size_t total = 0, kept = 0;
    std::string line;
    std::istringstream lines(text);
    while (std::getline(lines, line)) {
      rdf::TermTriple triple;
      bool has_triple = false;
      Status status = rdf::ParseNTriplesLine(line, &triple, &has_triple);
      if (!status.ok()) {
        std::fprintf(stderr, "cannot load %s: %s\n", data_file.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      if (!has_triple) continue;
      ++total;
      if (map.ShardOfSubject(triple.subject) ==
          static_cast<size_t>(shard_index)) {
        store->Add(triple);
        ++kept;
      }
    }
    std::fprintf(stderr, "# %s: shard %ld/%zu kept %zu of %zu triples\n",
                 id.c_str(), shard_index, num_shards, kept, total);
  } else {
    Status loaded = store->LoadNTriplesFile(data_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", data_file.c_str(),
                   loaded.ToString().c_str());
      return 1;
    }
  }
  store->Freeze();
  size_t triples = store->size();

  net::LatencyModel model = net::LatencyModel::None();
  if (latency == "local") model = net::LatencyModel::LocalCluster();
  if (latency == "geo") model = net::LatencyModel::GeoDistributed();
  std::shared_ptr<net::Endpoint> endpoint =
      std::make_shared<net::SparqlEndpoint>(id, std::move(store), model);

  // Crash-safe ASK-verdict cache: warm-load the snapshot, then serve
  // through a memoizing wrapper so repeated source-selection probes skip
  // store evaluation entirely.
  cache::FederationCache verdict_cache;
  std::shared_ptr<cache::CachedAskEndpoint> cached;
  std::string cache_load_error;
  if (!cache_file.empty()) {
    auto restored = verdict_cache.LoadFromDisk(cache_file);
    if (restored.ok()) {
      std::fprintf(stderr, "# %s: warm-loaded %llu cached verdicts from %s\n",
                   id.c_str(),
                   static_cast<unsigned long long>(*restored),
                   cache_file.c_str());
    } else if (restored.status().code() != StatusCode::kNotFound) {
      // Corrupt or incompatible snapshots are discarded, never fatal: the
      // endpoint just starts cold and overwrites the file on shutdown —
      // but /health reports the degraded start until then.
      cache_load_error = restored.status().ToString();
      std::fprintf(stderr, "# %s: ignoring snapshot %s: %s\n", id.c_str(),
                   cache_file.c_str(), cache_load_error.c_str());
    }
    cached = std::make_shared<cache::CachedAskEndpoint>(endpoint,
                                                        &verdict_cache);
    endpoint = cached;
  }

  // Telemetry plane: registry-backed /metrics, a flight recorder behind
  // /debug/queries (and the JSON query log), and a /health probe that
  // reports a failed cache warm-load as degraded.
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(recorder_options);
  obs::ScopedCollector cache_metrics(
      &metrics, [&](obs::MetricsSnapshot* snapshot) {
        if (cache_file.empty()) return;
        verdict_cache.ExportMetrics(snapshot);
      });
  server_options.server_name = id;
  server_options.metrics = &metrics;
  server_options.flight_recorder = &recorder;
  server_options.health_probe = [&](obs::JsonValue* body) {
    body->Set("triples", triples);
    if (!cache_load_error.empty()) {
      body->Set("degraded", std::string("cache snapshot load failed: ") +
                                cache_load_error);
      return false;
    }
    return true;
  };

  rpc::HttpServer server(endpoint, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);

  std::fprintf(stderr, "# %s: %zu triples at %s\n", id.c_str(), triples,
               server.url().c_str());
  std::printf("READY %s %u\n", id.c_str(), server.port());
  std::fflush(stdout);

  // Serve until a signal arrives; the accept/worker threads do the work.
  // Sleeping in short slices keeps shutdown latency low without signal
  // plumbing (nanosleep returns early with EINTR on signal anyway).
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  std::fprintf(stderr, "# draining...\n");
  server.Stop();
  rpc::HttpServerStats stats = server.stats();
  std::fprintf(stderr,
               "# served %llu requests, %llu bytes out "
               "(%llu timed out, %llu cancelled)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.bytes_out),
               static_cast<unsigned long long>(stats.timed_out_queries),
               static_cast<unsigned long long>(stats.cancelled_queries));
  if (cached != nullptr) {
    std::fprintf(stderr, "# ask cache: %llu hits, %llu misses\n",
                 static_cast<unsigned long long>(cached->hits()),
                 static_cast<unsigned long long>(cached->misses()));
    Status saved = verdict_cache.SaveToDisk(cache_file);
    if (saved.ok()) {
      std::fprintf(stderr, "# ask cache: snapshot saved to %s\n",
                   cache_file.c_str());
    } else {
      std::fprintf(stderr, "# ask cache: snapshot save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  return 0;
}
