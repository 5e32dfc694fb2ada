// Supporting micro-benchmarks for the substrates (not a paper figure):
// triple-store lookups, dictionary interning, SPARQL parsing, endpoint
// evaluation and round-trips, the parallel hash join, and cancellation
// latency.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gjv_detector.h"
#include "core/hash_join.h"
#include "core/id_table.h"
#include "federation/federation.h"
#include "net/sparql_endpoint.h"
#include "rpc/results_json.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

std::unique_ptr<store::TripleStore> BuildStore(int universities) {
  workload::LubmConfig config = workload::LubmConfig::Bench();
  config.num_universities = universities;
  workload::LubmGenerator generator(config);
  auto store = std::make_unique<store::TripleStore>();
  for (int u = 0; u < universities; ++u) {
    for (const rdf::TermTriple& t : generator.GenerateUniversity(u)) {
      store->Add(t);
    }
  }
  store->Freeze();
  return store;
}

void BM_StoreMatchByPredicate(benchmark::State& state) {
  static auto store = BuildStore(2);
  rdf::TermId advisor = store->dict().Lookup(rdf::Term::Iri(
      "http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor"));
  for (auto _ : state) {
    auto span = store->Match(std::nullopt, advisor, std::nullopt);
    benchmark::DoNotOptimize(span.size());
  }
  state.counters["matches"] = static_cast<double>(
      store->Count(std::nullopt, advisor, std::nullopt));
}
BENCHMARK(BM_StoreMatchByPredicate);

void BM_StoreMatchBySubject(benchmark::State& state) {
  static auto store = BuildStore(2);
  auto all = store->Match(std::nullopt, std::nullopt, std::nullopt);
  Rng rng(5);
  for (auto _ : state) {
    rdf::TermId s = all[rng.NextBelow(all.size())].s;
    auto span = store->Match(s, std::nullopt, std::nullopt);
    benchmark::DoNotOptimize(span.size());
  }
}
BENCHMARK(BM_StoreMatchBySubject);

void BM_StoreFreeze(benchmark::State& state) {
  workload::LubmGenerator generator(workload::LubmConfig::Bench());
  auto triples = generator.GenerateUniversity(0);
  for (auto _ : state) {
    store::TripleStore store;
    for (const rdf::TermTriple& t : triples) store.Add(t);
    store.Freeze();
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["triples"] = static_cast<double>(triples.size());
}
BENCHMARK(BM_StoreFreeze)->Unit(benchmark::kMillisecond);

/// Interning into the store's rdf::Dictionary (one unsynchronized flat
/// index, what TripleStore::Add pays per term), not the federator's
/// boundary encode: BM_EncodeResultTable measures that.
void BM_DictionaryIntern(benchmark::State& state) {
  std::vector<rdf::Term> terms;
  for (int i = 0; i < 10000; ++i) {
    terms.push_back(
        rdf::Term::Iri("http://example.org/resource/" + std::to_string(i)));
  }
  for (auto _ : state) {
    rdf::Dictionary dict;
    for (const rdf::Term& t : terms) {
      benchmark::DoNotOptimize(dict.Intern(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DictionaryIntern)->Unit(benchmark::kMillisecond);

/// The federator's boundary encode, core::EncodeResultTable into a
/// core::TermDictionary: 64k cells (16k rows of 4 columns) drawn with
/// repetition from the IRIs of a two-university store, as an endpoint
/// response carries them. Arg 0 is warm (the dictionary already holds
/// every term, so each cell is a hit, as on a warm engine); arg 1 is cold
/// (a fresh dictionary per iteration). cells/s counts encoded cells.
void BM_EncodeResultTable(benchmark::State& state) {
  static auto store = BuildStore(2);
  constexpr size_t kRows = 16384;
  constexpr size_t kCols = 4;
  std::vector<const rdf::Term*> iris;
  for (rdf::TermId id = 0; id < store->dict().size(); ++id) {
    const rdf::Term& term = store->dict().term(id);
    if (term.is_iri()) iris.push_back(&term);
  }
  sparql::ResultTable table;
  table.vars = {"a", "b", "c", "d"};
  Rng rng(9);
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<std::optional<rdf::Term>> row;
    for (size_t c = 0; c < kCols; ++c) {
      row.push_back(*iris[rng.NextBelow(iris.size())]);
    }
    table.rows.push_back(std::move(row));
  }
  const bool cold = state.range(0) == 1;
  auto dict = std::make_unique<core::TermDictionary>();
  if (!cold) core::EncodeResultTable(table, dict.get());
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      dict = std::make_unique<core::TermDictionary>();
      state.ResumeTiming();
    }
    core::IdTable ids = core::EncodeResultTable(table, dict.get());
    benchmark::DoNotOptimize(ids.Column(0).data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows * kCols),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncodeResultTable)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ParseQuery(benchmark::State& state) {
  std::string query = workload::LubmGenerator::QueryQa();
  for (auto _ : state) {
    auto parsed = sparql::ParseQuery(query);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_ParseQuery);

void BM_EndpointRoundTrip(benchmark::State& state) {
  static net::SparqlEndpoint endpoint("bench", BuildStore(1),
                                      net::LatencyModel::None());
  std::string query =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x WHERE { ?x ub:advisor ?y . }";
  for (auto _ : state) {
    auto response = endpoint.Query(query);
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_EndpointRoundTrip)->Unit(benchmark::kMicrosecond);

/// The endpoint evaluator on a two-university store, producing the
/// store-id answer a SparqlEndpoint ships (Evaluator::ExecuteIds). Arg 0
/// runs Q1's six patterns as one local subquery; rows/s counts its answer
/// rows. Arg 1 runs the GJV check on Q1's ?X between memberOf (outer) and
/// undergraduateDegreeFrom (inner): every graduate student has a local
/// degree triple, so the NOT EXISTS probes every outer row and the answer
/// is empty; rows/s counts the probed outer rows.
void BM_EvaluateLocalJoin(benchmark::State& state) {
  static auto store = BuildStore(2);
  const sparql::Evaluator evaluator(store.get());
  const std::vector<sparql::TriplePattern> q1 =
      sparql::ParseQuery(workload::LubmGenerator::Q1())->where.triples;
  std::string text = workload::LubmGenerator::Q1();
  size_t rows_per_run = 0;
  if (state.range(0) == 1) {
    text = core::GjvDetector::CheckQueryText("X", q1[3], q1[5], {q1[0]});
    auto outer = sparql::ParseQuery("SELECT ?X WHERE { " + q1[0].ToString() +
                                    " . " + q1[3].ToString() + " . }");
    rows_per_run = evaluator.ExecuteIds(*outer)->num_rows;
  }
  auto query = sparql::ParseQuery(text);
  size_t answer_rows = 0;
  for (auto _ : state) {
    auto answer = evaluator.ExecuteIds(*query);
    answer_rows = answer->num_rows;
    benchmark::DoNotOptimize(answer_rows);
  }
  if (state.range(0) == 0) rows_per_run = answer_rows;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows_per_run));
  state.counters["answer_rows"] = static_cast<double>(answer_rows);
}
BENCHMARK(BM_EvaluateLocalJoin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One in-process request end to end on the federator's side: a
/// SparqlEndpoint evaluating Q1 on a two-university store, then
/// Federation::ToIds translating its store-id answer into the engine's
/// dictionary. Arg 0 keeps one engine dictionary across iterations (a
/// warm engine: every id is already translated); arg 1 starts each
/// iteration with a fresh one. cells/s counts answer cells.
void BM_EndpointIdResponse(benchmark::State& state) {
  static net::SparqlEndpoint endpoint("bench", BuildStore(2),
                                      net::LatencyModel::None());
  const std::string query = workload::LubmGenerator::Q1();
  const bool cold = state.range(0) == 1;
  auto dict = std::make_unique<core::TermDictionary>();
  size_t cells = 0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      dict = std::make_unique<core::TermDictionary>();
      state.ResumeTiming();
    }
    Result<core::IdTable> ids =
        fed::Federation::ToIds(endpoint.Query(query), dict.get());
    cells = ids->NumRows() * ids->NumVars();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cells),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndpointIdResponse)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ParallelHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::TermDictionary dict;
  ThreadPool pool(8);
  core::IdTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::TermId key = dict.Intern(rdf::Term::Integer(i));
    left.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 2))});
    right.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 3))});
  }
  for (auto _ : state) {
    core::IdTable joined =
        core::ParallelHashJoin(left, right, &pool, 8);
    benchmark::DoNotOptimize(joined.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelHashJoin)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// ID-space vs. string-space join. BM_StringHashJoin is the pre-ID-engine
// execution model: wire-format rows of rdf::Term, keys hashed and
// compared as strings. BM_IdHashJoin is the engine's current path: the
// same data dictionary-encoded once, joined on fixed-width 64-bit ids
// over columnar storage. CI runs the pair at 65536 rows and gates on the
// id join being no slower (.github/workflows/ci.yml).
// ---------------------------------------------------------------------

void BM_StringHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sparql::ResultTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::Term key = rdf::Term::Iri("http://example.org/k/" +
                                   std::to_string(i));
    left.rows.push_back({key, rdf::Term::Integer(i * 2)});
    right.rows.push_back({key, rdf::Term::Integer(i * 3)});
  }
  for (auto _ : state) {
    std::unordered_multimap<std::string, size_t> index;
    index.reserve(right.rows.size());
    for (size_t r = 0; r < right.rows.size(); ++r) {
      index.emplace(right.rows[r][0]->ToString(), r);
    }
    sparql::ResultTable out;
    out.vars = {"k", "a", "b"};
    for (const auto& lrow : left.rows) {
      auto [begin, end] = index.equal_range(lrow[0]->ToString());
      for (auto it = begin; it != end; ++it) {
        out.rows.push_back(
            {lrow[0], lrow[1], right.rows[it->second][1]});
      }
    }
    benchmark::DoNotOptimize(out.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StringHashJoin)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_IdHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::TermDictionary dict;
  core::IdTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::TermId key = dict.Intern(rdf::Term::Iri(
        "http://example.org/k/" + std::to_string(i)));
    left.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 2))});
    right.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 3))});
  }
  for (auto _ : state) {
    core::IdTable out = core::JoinIds(left, right, /*left_outer=*/false);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IdHashJoin)->Arg(65536)->Unit(benchmark::kMillisecond);

/// Serial vs. parallel cartesian product around the dispatch threshold.
/// The arg is the output size in cells (left rows × right rows, square
/// sides); comparing BM_CartesianSerial/N with BM_CartesianParallel/N
/// locates the crossover that ParallelHashJoin's 2048-cell threshold
/// encodes (see the comment at the constant in core/hash_join.cc).
core::IdTable CartesianSide(core::TermDictionary* dict, const char* var,
                            int rows, int salt) {
  core::IdTable side;
  side.vars = {var};
  for (int i = 0; i < rows; ++i) {
    side.AppendRow({dict->Intern(rdf::Term::Integer(i + salt))});
  }
  return side;
}

void BM_CartesianSerial(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  core::TermDictionary dict;
  core::IdTable left = CartesianSide(&dict, "a", side, 0);
  core::IdTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    core::IdTable out = core::JoinIds(left, right, /*left_outer=*/false);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CartesianSerial)
    ->Arg(16)->Arg(32)->Arg(45)->Arg(64)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_CartesianParallel(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  core::TermDictionary dict;
  ThreadPool pool(8);
  core::IdTable left = CartesianSide(&dict, "a", side, 0);
  core::IdTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    core::IdTable out = core::ParallelCartesian(left, right, &pool, 8);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CartesianParallel)
    ->Arg(16)->Arg(32)->Arg(45)->Arg(64)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

/// Cancellation latency: wall time from firing a CancelToken to a large
/// in-flight ParallelCartesian unwinding. This prices the cooperative
/// check granularity (one token probe per ~1024 cells plus the drain of
/// already-queued partition tasks), not join throughput — manual timing
/// starts at Cancel(), so join launch is excluded.
void BM_CancellationLatency(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  core::TermDictionary dict;
  ThreadPool pool(8);
  core::IdTable left = CartesianSide(&dict, "a", side, 0);
  core::IdTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    CancelToken token = CancelToken::Cancellable();
    std::atomic<bool> started{false};
    std::thread join_thread([&] {
      started.store(true, std::memory_order_release);
      core::IdTable out =
          core::ParallelCartesian(left, right, &pool, 8, &token);
      benchmark::DoNotOptimize(out.NumRows());
    });
    while (!started.load(std::memory_order_acquire)) {
    }
    auto fired = std::chrono::steady_clock::now();
    token.Cancel();
    join_thread.join();
    std::chrono::duration<double> latency =
        std::chrono::steady_clock::now() - fired;
    state.SetIterationTime(latency.count());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CancellationLatency)
    ->Arg(512)->Arg(2048)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/// A ~207 KB SRJ answer: 850 rows of (?s ?p ?o) from a two-university
/// endpoint, in store ids plus the store's term source, as the server
/// holds it before writing the wire body. IRIs and literals mix as in
/// any LUBM answer.
const net::QueryResponse& SrjAnswer() {
  static net::SparqlEndpoint endpoint("bench", BuildStore(2),
                                      net::LatencyModel::None());
  static const net::QueryResponse answer =
      *endpoint.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 850");
  return answer;
}

const std::string& SrjBody() {
  static const std::string body =
      rpc::IdTableToSrj(*SrjAnswer().ids, *SrjAnswer().ids_dict);
  return body;
}

/// The server's SRJ writer: ids plus term source to compact SRJ, as an
/// HttpServer writes a buffered answer. bytes/s counts SRJ bytes out.
void BM_SrjWrite(benchmark::State& state) {
  const net::QueryResponse& answer = SrjAnswer();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string body = rpc::IdTableToSrj(*answer.ids, *answer.ids_dict);
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SrjWrite)->Unit(benchmark::kMicrosecond);

/// The client's buffered SRJ reader, ParseSrjToIds, into a warm
/// dictionary (every term already interned, as on a warm engine).
/// bytes/s counts SRJ bytes in.
void BM_SrjParse(benchmark::State& state) {
  const std::string& body = SrjBody();
  core::TermDictionary dict;
  if (!rpc::ParseSrjToIds(body, &dict).ok()) {
    state.SkipWithError("SRJ body did not parse");
    return;
  }
  for (auto _ : state) {
    Result<core::IdTable> ids = rpc::ParseSrjToIds(body, &dict);
    benchmark::DoNotOptimize(ids.ok());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * body.size()));
}
BENCHMARK(BM_SrjParse)->Unit(benchmark::kMicrosecond);

/// The client's streamed SRJ reader, SrjChunkDecoder, over the same body
/// cut into 16 KB wire chunks, taking the decoded rows after each one,
/// into a warm dictionary. bytes/s counts SRJ bytes in.
void BM_SrjChunkDecode(benchmark::State& state) {
  constexpr size_t kChunk = 16384;
  const std::string& body = SrjBody();
  auto dict = std::make_shared<core::TermDictionary>();
  if (!rpc::ParseSrjToIds(body, dict.get()).ok()) {
    state.SkipWithError("SRJ body did not parse");
    return;
  }
  for (auto _ : state) {
    rpc::SrjChunkDecoder decoder(dict);
    size_t rows = 0;
    for (size_t pos = 0; pos < body.size(); pos += kChunk) {
      if (!decoder.Feed(std::string_view(body).substr(pos, kChunk)).ok()) {
        state.SkipWithError("SRJ chunk did not decode");
        return;
      }
      rows += decoder.TakeIds().NumRows();
    }
    benchmark::DoNotOptimize(decoder.Finish().ok());
    benchmark::DoNotOptimize(rows);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * body.size()));
}
BENCHMARK(BM_SrjChunkDecode)->Unit(benchmark::kMicrosecond);

/// The engine's final decode, core::DecodeIdTable, of a 20,000-row
/// (?s ?p ?o) LUBM answer re-keyed into a warm core::TermDictionary, as
/// the engine holds its answer before handing rows to the caller.
/// per_cell is the wall time per decoded cell.
void BM_DecodeIdTable(benchmark::State& state) {
  static net::SparqlEndpoint endpoint("bench", BuildStore(2),
                                      net::LatencyModel::None());
  Result<net::QueryResponse> answer =
      endpoint.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 20000");
  if (!answer.ok()) {
    state.SkipWithError("LUBM answer failed");
    return;
  }
  core::TermDictionary dict;
  const core::IdTable ids =
      core::TranslateIds(*answer->ids, *answer->ids_dict, &dict);
  const size_t cells = ids.NumRows() * ids.NumVars();
  for (auto _ : state) {
    sparql::ResultTable table = core::DecodeIdTable(ids, dict);
    benchmark::DoNotOptimize(table.rows.data());
  }
  state.counters["per_cell"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cells),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DecodeIdTable)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lusail

BENCHMARK_MAIN();
