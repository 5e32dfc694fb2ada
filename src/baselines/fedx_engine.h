#ifndef LUSAIL_BASELINES_FEDX_ENGINE_H_
#define LUSAIL_BASELINES_FEDX_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/id_table.h"
#include "federation/federation.h"
#include "federation/source_selection.h"
#include "sparql/parser.h"

namespace lusail::baselines {

/// Pluggable source selection for index-based systems (HiBISCuS,
/// SPLENDID). Returning std::nullopt makes the engine fall back to ASK
/// probes for that pattern.
class SourceProvider {
 public:
  virtual ~SourceProvider() = default;
  virtual std::optional<std::vector<int>> Sources(
      const sparql::TriplePattern& tp) const = 0;

  /// Join-aware refinement (HiBISCuS's hypergraph pruning): given the
  /// per-pattern candidate sources, drop sources whose join-position
  /// capabilities cannot match any candidate of a joined pattern. The
  /// default is a no-op.
  virtual void PruneJointSources(
      const std::vector<sparql::TriplePattern>& triples,
      std::vector<std::vector<int>>* sources) const {
    (void)triples;
    (void)sources;
  }

  virtual std::string name() const = 0;
};

/// FedX configuration.
struct FedXOptions {
  /// Bindings per bound-join block (FedX ships 15 bindings per request).
  size_t bound_join_block_size = 15;
  size_t num_threads = 0;
  bool use_cache = true;

  /// Client-side retry policy for endpoint requests (same retry path the
  /// Lusail engine uses, so resilience comparisons are apples-to-apples).
  /// Disabled (fail-stop) by default.
  net::RetryPolicy retry_policy;

  /// Record a span trace into ExecutionProfile::trace (same format as
  /// Lusail's, so engine traces are comparable side by side).
  bool trace = false;
};

/// Reimplementation of the FedX federated engine (Schwarte et al., ISWC
/// 2011) — the paper's primary baseline.
///
/// Source selection uses per-pattern ASK probes with a cache (or an
/// injected index). Triple patterns answerable by exactly one endpoint
/// are fused into *exclusive groups* evaluated as a unit; everything else
/// is evaluated one triple pattern at a time with *bound joins*: the
/// current bindings are shipped in blocks and joined operand by operand,
/// strictly sequentially. This is precisely the schema-only strategy
/// whose request explosion Lusail's instance-aware decomposition avoids.
class FedXEngine : public fed::FederatedEngine {
 public:
  explicit FedXEngine(const fed::Federation* federation,
                      FedXOptions options = FedXOptions());

  /// Installs an index-based source provider; the engine then reports its
  /// name as "FedX+<provider>". Not owned.
  void set_source_provider(const SourceProvider* provider) {
    provider_ = provider;
  }

  std::string name() const override;

  Result<fed::FederatedResult> Execute(const std::string& sparql_text,
                                       const CancelToken& cancel) override;
  using fed::FederatedEngine::Execute;

  void ClearCaches() { ask_cache_.Clear(); }

 private:
  /// An execution operand: an exclusive group or a single triple pattern.
  struct Operand {
    std::vector<sparql::TriplePattern> triples;
    std::vector<int> sources;
    std::vector<sparql::Expr> filters;
    bool exclusive = false;
  };

  Result<std::vector<std::vector<int>>> SelectSources(
      const std::vector<sparql::TriplePattern>& triples,
      fed::MetricsCollector* metrics, const CancelToken& cancel);

  /// Builds exclusive groups + singleton operands and pushes filters.
  static std::vector<Operand> BuildOperands(
      const std::vector<sparql::TriplePattern>& triples,
      const std::vector<std::vector<int>>& sources,
      const std::vector<sparql::Expr>& filters,
      std::vector<sparql::Expr>* residual_filters);

  /// FedX join-order heuristic: fewest free variables first, exclusive
  /// groups preferred on ties.
  static std::vector<size_t> OrderOperands(const std::vector<Operand>& ops);

  /// Evaluates an operand with the current bindings via block bound
  /// joins; joins the fetched rows with `table` (inner or left-outer).
  Result<core::IdTable> BoundJoinStep(
      const Operand& op, core::IdTable table, bool left_outer,
      std::optional<uint64_t> result_cap, core::TermDictionary* dict,
      fed::MetricsCollector* metrics, const CancelToken& cancel);

  /// Evaluates a whole graph pattern (BGP + unions + optionals).
  Result<core::IdTable> ExecutePattern(
      const sparql::GraphPattern& pattern, std::optional<uint64_t> result_cap,
      core::TermDictionary* dict, fed::MetricsCollector* metrics,
      const CancelToken& cancel, fed::ExecutionProfile* profile);

  const fed::Federation* federation_;
  FedXOptions options_;
  ThreadPool pool_;
  fed::AskCache ask_cache_;
  const SourceProvider* provider_ = nullptr;
};

}  // namespace lusail::baselines

#endif  // LUSAIL_BASELINES_FEDX_ENGINE_H_
