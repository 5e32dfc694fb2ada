#ifndef LUSAIL_BASELINES_HIBISCUS_H_
#define LUSAIL_BASELINES_HIBISCUS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/fedx_engine.h"
#include "federation/federation.h"

namespace lusail::baselines {

/// HiBISCuS-style source selection (Saleem & Ngonga Ngomo, ESWC 2014): a
/// preprocessing pass summarizes, per endpoint and per predicate, the URI
/// *authorities* (scheme + host) of subjects and objects. At query time a
/// triple pattern's candidate sources are pruned by predicate membership
/// and by the authority of any constant subject/object — no ASK probes
/// needed for patterns with a constant predicate.
///
/// This is the index add-on the paper stacks on FedX ("FedX+HiBISCuS"):
/// it helps on heterogeneous federations and is useless when all
/// endpoints share one schema (LUBM), exactly as in the paper.
class HibiscusIndex : public SourceProvider {
 public:
  /// Builds the index by inspecting every endpoint's store directly
  /// (standing in for the offline summary build over data dumps). The
  /// build duration models the paper's preprocessing cost; see
  /// build_millis().
  static HibiscusIndex Build(const fed::Federation& federation);

  std::optional<std::vector<int>> Sources(
      const sparql::TriplePattern& tp) const override;

  /// HiBISCuS's join-aware pruning: for every join variable shared by two
  /// patterns with constant predicates, a candidate source of one pattern
  /// survives only if its authorities at the variable's position
  /// intersect the union of the other pattern's authorities across its
  /// candidates. Iterates to a fixpoint.
  void PruneJointSources(
      const std::vector<sparql::TriplePattern>& triples,
      std::vector<std::vector<int>>* sources) const override;

  std::string name() const override { return "HiBISCuS"; }

  double build_millis() const { return build_millis_; }
  size_t SizeBytes() const;

  /// Authority of an IRI: scheme + "://" + host. Literals map to "~lit",
  /// blank nodes to "~bnode".
  static std::string Authority(const rdf::Term& term);

 private:
  struct EndpointSummary {
    /// predicate IRI -> authorities of its subjects / objects.
    std::map<std::string, std::set<std::string>, std::less<>> subject_auths;
    std::map<std::string, std::set<std::string>, std::less<>> object_auths;
  };
  std::vector<EndpointSummary> endpoints_;
  double build_millis_ = 0.0;
};

}  // namespace lusail::baselines

#endif  // LUSAIL_BASELINES_HIBISCUS_H_
