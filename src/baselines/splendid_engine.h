#ifndef LUSAIL_BASELINES_SPLENDID_ENGINE_H_
#define LUSAIL_BASELINES_SPLENDID_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/id_table.h"
#include "federation/federation.h"
#include "federation/source_selection.h"
#include "sparql/parser.h"

namespace lusail::baselines {

/// SPLENDID configuration.
struct SplendidOptions {
  /// Below this intermediate-result size SPLENDID switches from
  /// fetch-and-hash-join to bind joins.
  size_t bind_join_threshold = 200;
  size_t bind_join_block_size = 100;
  size_t num_threads = 0;

  /// Record a span trace into ExecutionProfile::trace (same format as
  /// Lusail's, so engine traces are comparable side by side).
  bool trace = false;
};

/// SPLENDID-style index-based federated engine (Görlitz & Staab, COLD
/// 2011). A preprocessing pass builds VoID-like statistics (per endpoint:
/// total triples, per-predicate counts, per-class counts). Source
/// selection uses the index for constant predicates and rdf:type classes
/// and falls back to ASK probes otherwise. Execution orders triple
/// patterns by index-estimated cardinality and evaluates them one at a
/// time — fetching a pattern's full extension and hash-joining, or bind-
/// joining when the running intermediate result is small. The full-
/// extension fetches are what make SPLENDID time out on low-selectivity
/// queries in the paper.
class SplendidEngine : public fed::FederatedEngine {
 public:
  explicit SplendidEngine(const fed::Federation* federation,
                          SplendidOptions options = SplendidOptions());

  /// Builds the VoID statistics index (the paper's preprocessing phase —
  /// 25 s on QFed, 3513 s on LargeRDFBench with real dumps; here it reads
  /// the stores directly and reports the measured time).
  void BuildIndex();

  double index_build_millis() const { return index_build_millis_; }

  std::string name() const override { return "SPLENDID"; }

  Result<fed::FederatedResult> Execute(const std::string& sparql_text,
                                       const CancelToken& cancel) override;
  using fed::FederatedEngine::Execute;

 private:
  struct VoidStats {
    uint64_t total_triples = 0;
    std::map<std::string, uint64_t, std::less<>> predicate_counts;
    std::map<std::string, uint64_t, std::less<>> class_counts;
  };

  Result<std::vector<int>> SourcesFor(const sparql::TriplePattern& tp,
                                      fed::MetricsCollector* metrics,
                                      const CancelToken& cancel);

  double EstimateCardinality(const sparql::TriplePattern& tp,
                             const std::vector<int>& sources) const;

  Result<core::IdTable> ExecutePattern(const sparql::GraphPattern& pattern,
                                       core::TermDictionary* dict,
                                       fed::MetricsCollector* metrics,
                                       const CancelToken& cancel,
                                       fed::ExecutionProfile* profile);

  const fed::Federation* federation_;
  SplendidOptions options_;
  ThreadPool pool_;
  fed::AskCache ask_cache_;
  std::vector<VoidStats> index_;
  double index_build_millis_ = 0.0;
};

}  // namespace lusail::baselines

#endif  // LUSAIL_BASELINES_SPLENDID_ENGINE_H_
