// lusail_cli — run federated SPARQL queries from the command line.
//
// Usage:
//   lusail_cli [options] [query-file]
//
// Options:
//   --workload lubm|qfed|lrb|figure1   built-in federation (default lubm)
//   --dir <path>          load a federation from a directory of .nt files
//                         (one endpoint per file) instead of a workload
//   --export <path>       write the selected workload's endpoints as .nt
//                         files to <path> and exit
//   --engine lusail|lade|fedx|splendid   engine to run (default lusail)
//   --latency none|local|geo            network model (default local)
//   --explain             print the plan (sources, GJVs, decomposition,
//                         SAPE schedule) instead of executing (Lusail only)
//   --explain-json        like --explain, as JSON
//   --trace <file>        record a span trace of the execution and write
//                         it as Chrome trace-event JSON to <file>
//                         (load in chrome://tracing or Perfetto)
//   --cache-stats         attach a shared cross-query cache (with
//                         subquery-result memoization) and print its
//                         lusail_cache_* samples (hits, misses,
//                         evictions, occupancy per tier) as metrics
//                         snapshot JSON after the query
//   --deadline-ms <ms>    per-query deadline (default 60000). The budget
//                         covers the whole federated run; with --remote the
//                         remaining budget is forwarded to every endpoint
//                         as an X-Lusail-Deadline-Ms header, so remote
//                         servers stop evaluating when the client's budget
//                         expires. --timeout is accepted as an alias.
//   --remote <specs>      federate over live HTTP SPARQL endpoints
//                         instead of in-process stores. <specs> is a
//                         comma-separated list of host:port=id entries
//                         (e.g. 127.0.0.1:9001=univ0,127.0.0.1:9002=univ1),
//                         each typically a lusail_endpointd process.
//                         Replicas of one logical endpoint are separated
//                         by '|': host:port|host:port=id builds a
//                         ReplicaGroup with health-checked failover and
//                         hedged requests (replicas get ids id#0, id#1,
//                         ...)
//   --shards <spec>       add a *sharded* logical endpoint: N endpointd
//                         processes each holding the slice of one dataset
//                         the subject hash ring assigns them. <spec> is
//                         host:port,host:port,...=logical-id where each
//                         comma-separated member is addr[|addr...][^token]
//                         ('|' makes that shard a ReplicaGroup, '^token'
//                         switches to explicit-token routing, e.g. LUBM
//                         per-university files). Repeatable. Queries
//                         scatter-gather across the shards with
//                         subject-constant routing and cached-verdict
//                         pruning; see DESIGN.md "Sharded data plane".
//   --partial-results     when a shard member fails mid-query, drop its
//                         contribution and return a lower-bound answer
//                         (the profile reports partial) instead of
//                         failing the whole query
//   --shard-split <file>  loader mode: split the N-Triples file into
//                         --shard-count chunks by the same subject hash
//                         ring the routing uses, write them next to
//                         --shard-out (default: alongside the input) as
//                         <stem>.shard<k>.nt, and exit
//   --shard-count <n>     number of chunks for --shard-split (default 4)
//   --shard-out <dir>     output directory for --shard-split
//   --retry <n>           enable the standard retry policy with n
//                         attempts per request (0 = off, the default)
//   --cache-file <path>   persist the shared cross-query cache across
//                         runs: warm-load the snapshot before the query
//                         and save it back afterwards (implies attaching
//                         the shared cache), so a repeated query needs
//                         zero cold ASK probes. The engine's term
//                         dictionary snapshots alongside it (<path>.dict),
//                         so a warm restart keeps interned TermIds and
//                         content hashes stable across runs.
//   --format tsv|srj      result output format (default tsv; srj is
//                         SPARQL 1.1 JSON Results, the wire format)
//   --stream              stream rows to stdout as endpoints produce them
//                         instead of buffering the whole answer. Only
//                         queries the engine would run in whole-query mode
//                         stream exactly (one co-located subquery, no
//                         ORDER BY/DISTINCT/aggregate, nothing joined at
//                         the federator); anything else falls back to the
//                         buffered path with a note. LIMIT is pushed to
//                         the endpoints (as offset+limit), OFFSET is
//                         applied locally while printing. Against --remote
//                         endpoints the rows arrive over chunked HTTP and
//                         the first row prints before the endpoints finish
//                         evaluating; the profile line reports the
//                         first-row latency next to the total.
//   --metrics-port <n>    serve a federator-side stats listener on port n
//                         (0 = ephemeral) for the lifetime of the run:
//                         GET /metrics is the Prometheus exposition of
//                         every endpoint's telemetry (HTTP client, replica,
//                         shard), the federation's breakers,
//                         the cache and the engine dictionary; GET /stats
//                         is the same snapshot as JSON; GET /debug/queries
//                         is the flight recorder. The listener has no
//                         /sparql backend.
//   --slow-ms <n>         log queries slower than n ms as one-line JSON
//   --log-json            log every completed query as one JSON line
//
// With --remote and --trace, the written Chrome trace merges the
// federator's spans with every contacted endpointd's server-side span
// subtree (shipped back in X-Lusail-Trace), so one file shows the whole
// distributed execution with correct parenting.
//
// The query is read from the given file, or from stdin when no file is
// given. Results are printed as TSV (or SRJ), followed by the execution
// profile.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "baselines/fedx_engine.h"
#include "baselines/splendid_engine.h"
#include "cache/federation_cache.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/id_table.h"
#include "core/lusail_engine.h"
#include "net/replica.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "rpc/results_json.h"
#include "shard/shard_map.h"
#include "shard/sharded_endpoint.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "workload/federation_builder.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"
#include "workload/qfed_generator.h"

namespace {

using namespace lusail;

struct CliOptions {
  std::string workload = "lubm";
  std::string directory;
  std::string export_dir;
  std::string engine = "lusail";
  std::string latency = "local";
  std::string query_file;
  std::string trace_file;
  std::string remote;
  std::vector<std::string> shards;
  std::string shard_split_file;
  std::string shard_out_dir;
  size_t shard_count = 4;
  bool partial_results = false;
  std::string cache_file;
  std::string format = "tsv";
  bool stream = false;
  double timeout_ms = 60000;
  int retry_attempts = 0;
  int metrics_port = -1;  ///< -1 = no stats listener; 0 = ephemeral.
  double slow_ms = 0.0;
  bool log_json = false;
  bool explain = false;
  bool explain_json = false;
  bool cache_stats = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: lusail_cli [--workload lubm|qfed|lrb|figure1]\n"
               "                  [--dir <nt-directory>] [--export <dir>]\n"
               "                  [--engine lusail|lade|fedx|splendid]\n"
               "                  [--latency none|local|geo] [--explain]\n"
               "                  [--explain-json] [--trace <file>]\n"
               "                  [--cache-stats] [--deadline-ms <ms>]\n"
               "                  [--remote host:port[|host:port...]=id,...]\n"
               "                  [--shards host:port,host:port,...=id]\n"
               "                  [--partial-results]\n"
               "                  [--shard-split <file.nt> [--shard-count <n>]\n"
               "                   [--shard-out <dir>]]\n"
               "                  [--retry <n>] [--cache-file <path>]\n"
               "                  [--format tsv|srj] [--stream]\n"
               "                  [--metrics-port <n>]\n"
               "                  [--slow-ms <n>] [--log-json]\n"
               "                  [query-file]\n");
  return 2;
}

/// Parses one "host:port" half of a --remote entry.
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& text, const std::string& entry) {
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("bad --remote entry (want host:port=id): " +
                                   entry);
  }
  std::string host = text.substr(0, colon);
  unsigned long port = std::strtoul(text.c_str() + colon + 1, nullptr, 10);
  if (host.empty() || port == 0 || port > 65535) {
    return Status::InvalidArgument("bad --remote entry: " + entry);
  }
  return std::make_pair(std::move(host), static_cast<uint16_t>(port));
}

/// Parses "host:port=id,host:port|host:port=id,..." into a federation of
/// live HTTP endpoints; a '|'-separated address list becomes a
/// ReplicaGroup (failover + hedging) whose replicas are named id#0,
/// id#1, ...
Result<std::unique_ptr<fed::Federation>> BuildRemoteFederation(
    const std::string& specs) {
  auto federation = std::make_unique<fed::Federation>();
  std::istringstream stream(specs);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    if (entry.empty()) continue;
    size_t eq = entry.rfind('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad --remote entry (want host:port=id): " +
                                     entry);
    }
    std::string addresses = entry.substr(0, eq);
    std::string id = entry.substr(eq + 1);
    if (id.empty()) {
      return Status::InvalidArgument("bad --remote entry: " + entry);
    }
    std::vector<std::string> hosts = Split(addresses, '|');
    if (hosts.size() == 1) {
      auto parsed = ParseHostPort(hosts[0], entry);
      if (!parsed.ok()) return parsed.status();
      federation->Add(std::make_shared<rpc::HttpSparqlEndpoint>(
          id, parsed->first, parsed->second));
      continue;
    }
    std::vector<std::shared_ptr<net::Endpoint>> replicas;
    for (size_t r = 0; r < hosts.size(); ++r) {
      auto parsed = ParseHostPort(hosts[r], entry);
      if (!parsed.ok()) return parsed.status();
      replicas.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
          id + "#" + std::to_string(r), parsed->first, parsed->second));
    }
    federation->Add(std::make_shared<net::ReplicaGroup>(id,
                                                        std::move(replicas)));
  }
  if (federation->size() == 0) {
    return Status::InvalidArgument("--remote lists no endpoints");
  }
  return federation;
}

/// Builds one sharded logical endpoint from a --shards spec: every member
/// becomes an HTTP client endpoint (or a ReplicaGroup of them when the
/// member lists several '|'-joined addresses) behind a scatter-gather
/// ShardedEndpoint facade.
Result<std::shared_ptr<shard::ShardedEndpoint>> BuildShardedEndpoint(
    const std::string& spec_text, cache::FederationCache* cache,
    bool partial_results) {
  auto spec = shard::ParseShardsArg(spec_text);
  if (!spec.ok()) return spec.status();
  std::vector<std::shared_ptr<net::Endpoint>> members;
  for (const shard::ShardMemberSpec& member : spec->members) {
    if (member.addresses.size() == 1) {
      auto parsed = ParseHostPort(member.addresses[0], spec_text);
      if (!parsed.ok()) return parsed.status();
      members.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
          member.id, parsed->first, parsed->second));
      continue;
    }
    std::vector<std::shared_ptr<net::Endpoint>> replicas;
    for (size_t r = 0; r < member.addresses.size(); ++r) {
      auto parsed = ParseHostPort(member.addresses[r], spec_text);
      if (!parsed.ok()) return parsed.status();
      replicas.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
          member.id + "@" + std::to_string(r), parsed->first, parsed->second));
    }
    members.push_back(
        std::make_shared<net::ReplicaGroup>(member.id, std::move(replicas)));
  }
  shard::ShardedEndpointOptions shard_options;
  shard_options.partial_results = partial_results;
  shard_options.cache = cache;
  return std::make_shared<shard::ShardedEndpoint>(
      spec->logical_id, spec->Map(), std::move(members), shard_options);
}

/// Loader mode: split an N-Triples file into shard_count chunks by the
/// same subject ring the routing uses, writing <stem>.shard<k>.nt.
int RunShardSplit(const CliOptions& options) {
  std::ifstream in(options.shard_split_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n",
                 options.shard_split_file.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  shard::ShardMap map = shard::ShardMap::HashRing(options.shard_count);
  auto chunks = shard::SplitNTriples(buffer.str(), map);
  if (!chunks.ok()) {
    std::fprintf(stderr, "split failed: %s\n",
                 chunks.status().ToString().c_str());
    return 1;
  }
  std::filesystem::path input(options.shard_split_file);
  std::filesystem::path dir = options.shard_out_dir.empty()
                                  ? input.parent_path()
                                  : std::filesystem::path(options.shard_out_dir);
  std::string stem = input.stem().string();
  for (size_t k = 0; k < chunks->size(); ++k) {
    std::filesystem::path out_path =
        dir / (stem + ".shard" + std::to_string(k) + ".nt");
    std::ofstream out(out_path);
    out << (*chunks)[k];
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.string().c_str());
      return 1;
    }
    size_t lines = static_cast<size_t>(
        std::count((*chunks)[k].begin(), (*chunks)[k].end(), '\n'));
    std::fprintf(stderr, "# wrote %s (%zu triples)\n",
                 out_path.string().c_str(), lines);
  }
  return 0;
}

std::vector<workload::EndpointSpec> MakeWorkload(const std::string& name) {
  if (name == "qfed") {
    return workload::QFedGenerator{workload::QFedConfig()}.GenerateAll();
  }
  if (name == "lrb") {
    return workload::LrbGenerator{workload::LrbConfig()}.GenerateAll();
  }
  if (name == "figure1") {
    return workload::Figure1Federation();
  }
  return workload::LubmGenerator(workload::LubmConfig::Bench()).GenerateAll();
}

net::LatencyModel MakeLatency(const std::string& name) {
  if (name == "none") return net::LatencyModel::None();
  if (name == "geo") return net::LatencyModel::GeoDistributed();
  return net::LatencyModel::LocalCluster();
}

void PrintProfile(const fed::ExecutionProfile& profile) {
  std::fprintf(stderr,
               "# requests=%llu (ask=%llu)  sent=%llu B  received=%llu B\n"
               "# phases: source-selection %.1f ms, analysis %.1f ms, "
               "execution %.1f ms, total %.1f ms\n"
               "# simulated network time: %.1f ms; pushed optionals: %llu\n",
               static_cast<unsigned long long>(profile.requests),
               static_cast<unsigned long long>(profile.ask_requests),
               static_cast<unsigned long long>(profile.bytes_sent),
               static_cast<unsigned long long>(profile.bytes_received),
               profile.source_selection_ms, profile.analysis_ms,
               profile.execution_ms, profile.total_ms, profile.network_ms,
               static_cast<unsigned long long>(profile.pushed_optionals));
  if (profile.first_row_ms > 0.0) {
    std::fprintf(stderr, "# first endpoint row after %.1f ms\n",
                 profile.first_row_ms);
  }
  if (profile.hedged_requests > 0) {
    std::fprintf(stderr, "# hedged requests: %llu\n",
                 static_cast<unsigned long long>(profile.hedged_requests));
  }
}

/// Why a query cannot stream end-to-end, or "" when it can. Streaming
/// unions per-endpoint answers of the whole query text, which is exact
/// only when the engine itself would run in whole-query mode: one
/// co-located subquery, nothing joined, deduped, sorted, or aggregated at
/// the federator afterwards.
std::string StreamIneligibleReason(const sparql::Query& query,
                                   const obs::ExplainReport& report) {
  if (query.form != sparql::QueryForm::kSelect) return "not a SELECT";
  if (query.distinct) return "DISTINCT dedups across endpoints";
  if (query.aggregate.has_value()) return "aggregate needs every row";
  if (!query.order_by.empty()) return "ORDER BY needs a global sort";
  if (!query.where.unions.empty()) {
    return "top-level UNION joins at the federator";
  }
  if (!query.where.values.empty()) return "VALUES joins at the federator";
  if (report.subqueries.size() != 1) {
    return std::to_string(report.subqueries.size()) +
           " subqueries join at the federator";
  }
  if (report.unpushed_optionals > 0) {
    return "OPTIONAL left-joins at the federator";
  }
  return "";
}

/// End-to-end streaming execution: ships the whole query (OFFSET
/// stripped, LIMIT capped to offset+limit) to every endpoint in turn via
/// QueryStreaming and prints rows as batches arrive. OFFSET is skipped
/// while printing; once the global LIMIT is satisfied the remaining
/// endpoints are never contacted. Exact only for stream-eligible queries
/// (see StreamIneligibleReason).
int RunStream(const CliOptions& options, fed::Federation* federation,
              const sparql::Query& parsed) {
  sparql::Query shipped = parsed;
  const uint64_t offset = shipped.offset.value_or(0);
  const std::optional<uint64_t> limit = shipped.limit;
  shipped.offset.reset();
  if (limit.has_value()) shipped.limit = offset + *limit;
  std::string text = sparql::QueryToString(shipped);
  const uint64_t want = limit.has_value() ? offset + *limit : 0;
  const bool srj = options.format == "srj";

  Stopwatch wall;
  double first_row_ms = 0.0;
  uint64_t printed = 0;
  uint64_t skipped = 0;
  uint64_t received = 0;
  std::vector<std::string> header;
  bool head_printed = false;
  bool srj_first = true;

  auto emit = [&](sparql::ResultTable&& batch) {
    if (!head_printed) {
      header = batch.vars;
      if (srj) {
        std::fputs(rpc::SrjStreamPrefix(header).c_str(), stdout);
      } else {
        std::string line;
        for (size_t i = 0; i < header.size(); ++i) {
          if (i > 0) line += '\t';
          line += '?';
          line += header[i];
        }
        line += '\n';
        std::fputs(line.c_str(), stdout);
      }
      head_printed = true;
    }
    // Map this batch's columns onto the header order (endpoints answer
    // the same text, but stay defensive about column order).
    std::vector<int> col(header.size(), -1);
    for (size_t i = 0; i < header.size(); ++i) {
      for (size_t j = 0; j < batch.vars.size(); ++j) {
        if (batch.vars[j] == header[i]) {
          col[i] = static_cast<int>(j);
          break;
        }
      }
    }
    sparql::ResultTable out;
    out.vars = header;
    for (auto& row : batch.rows) {
      if (skipped < offset) {
        ++skipped;
        continue;
      }
      if (limit.has_value() && printed >= *limit) break;
      std::vector<std::optional<rdf::Term>> mapped(header.size());
      for (size_t i = 0; i < header.size(); ++i) {
        if (col[i] >= 0 && static_cast<size_t>(col[i]) < row.size()) {
          mapped[i] = std::move(row[static_cast<size_t>(col[i])]);
        }
      }
      out.rows.push_back(std::move(mapped));
      ++printed;
    }
    if (!out.rows.empty()) {
      if (first_row_ms == 0.0) first_row_ms = wall.ElapsedMillis();
      if (srj) {
        std::fputs(rpc::SrjStreamBindings(out, &srj_first).c_str(), stdout);
      } else {
        std::string tsv = out.ToTsv();
        // Drop ToTsv's header line; it was printed once already.
        size_t nl = tsv.find('\n');
        std::fputs(tsv.c_str() + (nl == std::string::npos ? 0 : nl + 1),
                   stdout);
      }
    }
    std::fflush(stdout);
  };

  CancelToken cancel{Deadline::AfterMillis(options.timeout_ms)};
  net::StreamOptions stream_options;
  for (size_t i = 0; i < federation->size(); ++i) {
    if (limit.has_value() && skipped + printed >= want) break;
    if (limit.has_value()) {
      stream_options.max_rows = want - (skipped + printed);
    }
    auto summary = federation->endpoint(i)->QueryStreaming(
        text, cancel, stream_options,
        [&](net::StreamBatch&& batch) -> Status {
          sparql::ResultTable table =
              core::DecodeIdTable(*batch.ids, *batch.ids_dict);
          received += table.NumRows();
          emit(std::move(table));
          return Status::OK();
        });
    if (!summary.ok()) {
      std::fprintf(stderr, "stream from %s failed: %s\n",
                   federation->id(i).c_str(),
                   summary.status().ToString().c_str());
      return 1;
    }
  }
  if (srj) {
    if (!head_printed) {
      std::fputs(rpc::SrjStreamPrefix({}).c_str(), stdout);
    }
    std::fputs(rpc::SrjStreamSuffix().c_str(), stdout);
    std::fputs("\n", stdout);
  }
  std::fprintf(stderr,
               "# %llu rows streamed (%llu received, %llu skipped by "
               "OFFSET)\n"
               "# first row after %.1f ms, total %.1f ms\n",
               static_cast<unsigned long long>(printed),
               static_cast<unsigned long long>(received),
               static_cast<unsigned long long>(skipped), first_row_ms,
               wall.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--workload") {
      if (!next(&options.workload)) return Usage();
    } else if (arg == "--dir") {
      if (!next(&options.directory)) return Usage();
    } else if (arg == "--export") {
      if (!next(&options.export_dir)) return Usage();
    } else if (arg == "--engine") {
      if (!next(&options.engine)) return Usage();
    } else if (arg == "--latency") {
      if (!next(&options.latency)) return Usage();
    } else if (arg == "--deadline-ms" || arg == "--timeout") {
      std::string v;
      if (!next(&v)) return Usage();
      options.timeout_ms = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--explain-json") {
      options.explain = true;
      options.explain_json = true;
    } else if (arg == "--trace") {
      if (!next(&options.trace_file)) return Usage();
    } else if (arg == "--remote") {
      if (!next(&options.remote)) return Usage();
    } else if (arg == "--shards") {
      std::string spec;
      if (!next(&spec)) return Usage();
      options.shards.push_back(std::move(spec));
    } else if (arg == "--partial-results") {
      options.partial_results = true;
    } else if (arg == "--shard-split") {
      if (!next(&options.shard_split_file)) return Usage();
    } else if (arg == "--shard-out") {
      if (!next(&options.shard_out_dir)) return Usage();
    } else if (arg == "--shard-count") {
      std::string v;
      if (!next(&v)) return Usage();
      options.shard_count = std::strtoul(v.c_str(), nullptr, 10);
      if (options.shard_count == 0) {
        std::fprintf(stderr, "--shard-count must be >= 1\n");
        return Usage();
      }
    } else if (arg == "--format") {
      if (!next(&options.format)) return Usage();
      if (options.format != "tsv" && options.format != "srj") {
        std::fprintf(stderr, "unknown format: %s\n", options.format.c_str());
        return Usage();
      }
    } else if (arg == "--stream") {
      options.stream = true;
    } else if (arg == "--retry") {
      std::string v;
      if (!next(&v)) return Usage();
      options.retry_attempts = static_cast<int>(std::strtol(v.c_str(),
                                                            nullptr, 10));
    } else if (arg == "--cache-stats") {
      options.cache_stats = true;
    } else if (arg == "--cache-file") {
      if (!next(&options.cache_file)) return Usage();
    } else if (arg == "--metrics-port") {
      std::string v;
      if (!next(&v)) return Usage();
      options.metrics_port = static_cast<int>(std::strtol(v.c_str(),
                                                          nullptr, 10));
    } else if (arg == "--slow-ms") {
      std::string v;
      if (!next(&v)) return Usage();
      options.slow_ms = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--log-json") {
      options.log_json = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage();
    } else {
      options.query_file = arg;
    }
  }

  if (!options.shard_split_file.empty()) return RunShardSplit(options);

  if (!options.export_dir.empty()) {
    auto specs = MakeWorkload(options.workload);
    Status status = workload::ExportFederation(specs, options.export_dir);
    if (!status.ok()) {
      std::fprintf(stderr, "export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu endpoints to %s\n", specs.size(),
                 options.export_dir.c_str());
    return 0;
  }

  // Shared cross-query cache: one process-wide instance every engine on
  // this federation consults for ASK verdicts, COUNT probes, and (for
  // Lusail with result_cache) subquery result tables. Declared before the
  // federation so sharded endpoints can prune through it.
  cache::FederationCache shared_cache;

  // Build the federation.
  std::unique_ptr<fed::Federation> federation;
  if (!options.remote.empty()) {
    auto built = BuildRemoteFederation(options.remote);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    federation = std::move(built).value();
  } else if (!options.shards.empty() && options.directory.empty()) {
    // --shards with no --remote/--dir: the sharded endpoints added below
    // are the whole federation.
    federation = std::make_unique<fed::Federation>();
  } else if (!options.directory.empty()) {
    auto loaded = workload::LoadFederationFromDirectory(
        options.directory, MakeLatency(options.latency));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    federation = std::move(loaded).value();
  } else {
    federation = workload::BuildFederation(MakeWorkload(options.workload),
                                           MakeLatency(options.latency));
  }

  // Sharded logical endpoints join whatever federation was built above.
  std::vector<shard::ShardedEndpoint*> sharded_endpoints;
  for (const std::string& spec_text : options.shards) {
    auto sharded = BuildShardedEndpoint(spec_text, &shared_cache,
                                        options.partial_results);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    sharded_endpoints.push_back(sharded->get());
    federation->Add(*sharded);
  }
  if (federation->size() == 0) {
    std::fprintf(stderr, "federation has no endpoints\n");
    return 1;
  }
  std::fprintf(stderr, "# federation: %zu endpoints\n", federation->size());

  if (options.cache_stats || !options.cache_file.empty()) {
    federation->set_query_cache(&shared_cache);
  }
  if (!options.cache_file.empty()) {
    auto loaded = shared_cache.LoadFromDisk(options.cache_file);
    if (loaded.ok()) {
      std::fprintf(stderr, "# cache: warm-loaded %llu entries from %s\n",
                   static_cast<unsigned long long>(*loaded),
                   options.cache_file.c_str());
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // A missing snapshot is just a cold start; anything else (corrupt,
      // wrong version) is worth a warning but never fatal.
      std::fprintf(stderr, "# cache: ignoring snapshot %s: %s\n",
                   options.cache_file.c_str(),
                   loaded.status().ToString().c_str());
    }
  }

  // Telemetry plane: a flight recorder for structured query logging and
  // (with --metrics-port) a federator-side stats listener exposing the
  // Prometheus exposition of every client-side counter.
  obs::FlightRecorderOptions recorder_options;
  recorder_options.slow_threshold_ms = options.slow_ms;
  recorder_options.log_json = options.log_json;
  obs::FlightRecorder recorder(recorder_options);
  obs::MetricsRegistry metrics;
  core::LusailEngine* metered_engine = nullptr;  // Set once built below.
  obs::ScopedCollector federation_metrics(
      &metrics, [&](obs::MetricsSnapshot* snapshot) {
        federation->ExportMetrics(snapshot);
        if (metered_engine != nullptr) {
          metered_engine->ExportMetrics(snapshot);  // Dictionary gauges.
        }
      });
  std::unique_ptr<rpc::HttpServer> stats_server;
  if (options.metrics_port >= 0) {
    rpc::HttpServerOptions stats_options;
    stats_options.port = static_cast<uint16_t>(options.metrics_port);
    stats_options.num_threads = 1;
    stats_options.server_name = "federator";
    stats_options.metrics = &metrics;
    stats_options.flight_recorder = &recorder;
    stats_server = std::make_unique<rpc::HttpServer>(nullptr, stats_options);
    Status started = stats_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start stats listener: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "# metrics: %s/metrics\n",
                 stats_server->url().c_str());
  }

  // Read the query.
  std::string query_text;
  if (options.query_file.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    query_text = buffer.str();
  } else {
    std::ifstream in(options.query_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", options.query_file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    query_text = buffer.str();
  }
  if (query_text.empty()) {
    std::fprintf(stderr, "empty query\n");
    return 1;
  }

  // Build the engine.
  bool trace = !options.trace_file.empty();
  core::LusailOptions lusail_options;
  lusail_options.trace = trace;
  lusail_options.result_cache = options.cache_stats;
  if (options.retry_attempts > 0) {
    lusail_options.retry_policy =
        net::RetryPolicy::Standard(options.retry_attempts);
  }
  if (options.engine == "lade") lusail_options.enable_sape = false;
  core::LusailEngine lusail(federation.get(), lusail_options);
  metered_engine = &lusail;
  // Warm-load the engine dictionary snapshot: interned TermIds and
  // content hashes stay stable across restarts, keeping id-derived state
  // (persisted cache fingerprints, logged ids) meaningful.
  std::string dict_file =
      options.cache_file.empty() ? "" : options.cache_file + ".dict";
  if (!dict_file.empty()) {
    auto restored = lusail.dictionary()->LoadFromDisk(dict_file);
    if (restored.ok()) {
      std::fprintf(stderr, "# dictionary: warm-loaded %llu terms from %s\n",
                   static_cast<unsigned long long>(*restored),
                   dict_file.c_str());
    } else if (restored.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "# dictionary: ignoring snapshot %s: %s\n",
                   dict_file.c_str(),
                   restored.status().ToString().c_str());
    }
  }
  if (options.engine == "lusail" || options.engine == "lade") {
    // ID-space fast path for remote federations: HTTP responses parse
    // straight into the engine dictionary (SRJ -> IdTable) and reach the
    // executor with nothing to re-encode. Every decorator (replica
    // groups, shards, resilience and fault layers) hands the dictionary
    // on to the clients it wraps; in-process endpoints ignore it. Other
    // engines keep each client's own dictionary, whose ids the
    // federation translates into the engine's.
    for (size_t i = 0; i < federation->size(); ++i) {
      federation->endpoint(i)->set_parse_dictionary(lusail.dictionary());
    }
  }
  baselines::FedXOptions fedx_options;
  fedx_options.trace = trace;
  baselines::FedXEngine fedx(federation.get(), fedx_options);
  baselines::SplendidOptions splendid_options;
  splendid_options.trace = trace;
  baselines::SplendidEngine splendid(federation.get(), splendid_options);
  fed::FederatedEngine* engine = &lusail;
  if (options.engine == "fedx") {
    engine = &fedx;
  } else if (options.engine == "splendid") {
    splendid.BuildIndex();
    engine = &splendid;
  } else if (options.engine != "lusail" && options.engine != "lade") {
    std::fprintf(stderr, "unknown engine: %s\n", options.engine.c_str());
    return Usage();
  }

  if (options.explain) {
    auto report = obs::Explain(lusail, query_text);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    if (options.explain_json) {
      std::printf("%s\n", report->ToJson().Pretty().c_str());
    } else {
      std::fputs(report->ToText().c_str(), stdout);
    }
    // Streaming eligibility rides along: the same whole-query-mode test
    // --stream applies at execution time.
    if (auto parsed = sparql::ParseQuery(query_text); parsed.ok()) {
      std::string reason = StreamIneligibleReason(*parsed, *report);
      if (reason.empty()) {
        std::fprintf(stderr,
                     "# streaming: eligible (--stream delivers rows "
                     "incrementally)\n");
      } else {
        std::fprintf(stderr, "# streaming: not eligible (%s)\n",
                     reason.c_str());
      }
    }
    // Planning interns every constant the decomposer and probes touched;
    // the counts preview the id space the query would execute in.
    core::DictionaryStats dict_stats = lusail.dictionary()->GetStats();
    std::fprintf(stderr,
                 "# dictionary: %llu terms interned (%llu bytes) during "
                 "planning\n",
                 static_cast<unsigned long long>(dict_stats.terms),
                 static_cast<unsigned long long>(dict_stats.bytes));
    return 0;
  }

  if (options.stream) {
    auto parsed = sparql::ParseQuery(query_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    std::string reason;
    auto report = obs::Explain(lusail, query_text);
    if (!report.ok()) {
      reason = "plan unavailable: " + report.status().ToString();
    } else {
      reason = StreamIneligibleReason(*parsed, *report);
    }
    if (reason.empty()) {
      return RunStream(options, federation.get(), *parsed);
    }
    std::fprintf(stderr, "# stream: not eligible (%s); buffered fallback\n",
                 reason.c_str());
  }

  Stopwatch query_timer;
  auto result =
      engine->Execute(query_text, Deadline::AfterMillis(options.timeout_ms));
  {
    obs::FlightRecord record;
    record.query_hash = obs::QueryHashHex(query_text);
    record.total_ms = query_timer.ElapsedMillis();
    if (result.ok()) {
      const fed::ExecutionProfile& profile = result->profile;
      record.rows = result->table.NumRows();
      record.requests = profile.requests;
      record.hedged = profile.hedged_requests > 0;
      record.partial = profile.partial;
      record.total_ms = profile.total_ms;
      record.source_selection_ms = profile.source_selection_ms;
      record.analysis_ms = profile.analysis_ms;
      record.execution_ms = profile.execution_ms;
      record.network_ms = profile.network_ms;
      if (profile.trace != nullptr) record.trace_id = profile.trace->trace_id;
    } else {
      record.status = StatusCodeToString(result.status().code());
    }
    recorder.Record(std::move(record));
  }
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (options.format == "srj") {
    std::printf("%s\n", rpc::ResultTableToSrj(result->table).c_str());
  } else {
    std::fputs(result->table.ToTsv().c_str(), stdout);
  }
  std::fprintf(stderr, "# %zu rows (engine: %s)\n", result->table.NumRows(),
               engine->name().c_str());
  PrintProfile(result->profile);
  // One Prometheus-style line per shard counter, so scripts (and CI) can
  // assert on routing behavior without scraping a metrics port.
  for (const shard::ShardedEndpoint* sharded : sharded_endpoints) {
    obs::MetricsSnapshot snapshot;
    sharded->ExportMetrics(&snapshot);
    std::istringstream exposition(snapshot.RenderPrometheus());
    for (std::string line; std::getline(exposition, line);) {
      if (line.rfind("lusail_shard_", 0) == 0) {
        std::fprintf(stderr, "# %s\n", line.c_str());
      }
    }
  }
  if (engine == &lusail) {
    core::DictionaryStats dict_stats = lusail.dictionary()->GetStats();
    std::fprintf(
        stderr,
        "# dictionary: %llu terms (%llu bytes); encoded %llu cells "
        "(%.1f ms), decoded %llu cells (%.1f ms)\n",
        static_cast<unsigned long long>(dict_stats.terms),
        static_cast<unsigned long long>(dict_stats.bytes),
        static_cast<unsigned long long>(dict_stats.encode_terms),
        dict_stats.encode_seconds * 1e3,
        static_cast<unsigned long long>(dict_stats.decode_terms),
        dict_stats.decode_seconds * 1e3);
  }
  if (trace) {
    if (result->profile.trace == nullptr) {
      std::fprintf(stderr, "# no trace recorded (engine %s does not trace)\n",
                   engine->name().c_str());
    } else {
      std::ofstream out(options.trace_file);
      out << result->profile.trace->ToChromeJsonString() << "\n";
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n",
                     options.trace_file.c_str());
        return 1;
      }
      std::fprintf(stderr, "# trace written to %s (%zu spans)\n",
                   options.trace_file.c_str(),
                   result->profile.trace->spans.size());
    }
  }
  if (options.cache_stats) {
    obs::MetricsSnapshot snapshot;
    shared_cache.ExportMetrics(&snapshot);
    std::fprintf(stderr, "# cache stats:\n%s\n",
                 snapshot.ToJson().Pretty().c_str());
  }
  if (!options.cache_file.empty()) {
    Status saved = shared_cache.SaveToDisk(options.cache_file);
    if (saved.ok()) {
      std::fprintf(stderr, "# cache: snapshot saved to %s\n",
                   options.cache_file.c_str());
    } else {
      std::fprintf(stderr, "# cache: snapshot save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  if (!dict_file.empty()) {
    Status saved = lusail.dictionary()->SaveToDisk(dict_file);
    if (saved.ok()) {
      std::fprintf(stderr, "# dictionary: snapshot saved to %s\n",
                   dict_file.c_str());
    } else {
      std::fprintf(stderr, "# dictionary: snapshot save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  return 0;
}
