#include "baselines/hibiscus.h"

#include <map>

#include "common/stopwatch.h"
#include "net/sparql_endpoint.h"

namespace lusail::baselines {

std::string HibiscusIndex::Authority(const rdf::Term& term) {
  if (term.is_literal()) return "~lit";
  if (term.is_blank()) return "~bnode";
  const std::string_view iri = term.lexical();
  size_t scheme_end = iri.find("://");
  if (scheme_end == std::string_view::npos) return std::string(iri);
  return std::string(iri.substr(0, iri.find('/', scheme_end + 3)));
}

HibiscusIndex HibiscusIndex::Build(const fed::Federation& federation) {
  Stopwatch timer;
  HibiscusIndex index;
  index.endpoints_.resize(federation.size());
  for (size_t e = 0; e < federation.size(); ++e) {
    auto* endpoint =
        dynamic_cast<const net::SparqlEndpoint*>(federation.endpoint(e));
    if (endpoint == nullptr) continue;  // Unknown endpoint type: no summary.
    const store::TripleStore& store = endpoint->store();
    EndpointSummary& summary = index.endpoints_[e];
    for (const store::EncodedTriple& t :
         store.Match(std::nullopt, std::nullopt, std::nullopt)) {
      const std::string_view pred = store.dict().term(t.p).lexical();
      auto subjects = summary.subject_auths.find(pred);
      if (subjects == summary.subject_auths.end()) {
        subjects = summary.subject_auths.try_emplace(std::string(pred)).first;
      }
      subjects->second.insert(Authority(store.dict().term(t.s)));
      auto objects = summary.object_auths.find(pred);
      if (objects == summary.object_auths.end()) {
        objects = summary.object_auths.try_emplace(std::string(pred)).first;
      }
      objects->second.insert(Authority(store.dict().term(t.o)));
    }
  }
  index.build_millis_ = timer.ElapsedMillis();
  return index;
}

std::optional<std::vector<int>> HibiscusIndex::Sources(
    const sparql::TriplePattern& tp) const {
  // Variable predicates are outside the summary's reach; fall back to ASK.
  if (tp.p.is_variable()) return std::nullopt;
  const std::string_view pred = tp.p.term().lexical();
  std::vector<int> out;
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    const EndpointSummary& summary = endpoints_[e];
    auto subj_it = summary.subject_auths.find(pred);
    if (subj_it == summary.subject_auths.end()) continue;
    if (tp.s.is_term() &&
        subj_it->second.count(Authority(tp.s.term())) == 0) {
      continue;
    }
    if (tp.o.is_term()) {
      auto obj_it = summary.object_auths.find(pred);
      if (obj_it == summary.object_auths.end() ||
          obj_it->second.count(Authority(tp.o.term())) == 0) {
        continue;
      }
    }
    out.push_back(static_cast<int>(e));
  }
  return out;
}

void HibiscusIndex::PruneJointSources(
    const std::vector<sparql::TriplePattern>& triples,
    std::vector<std::vector<int>>* sources) const {
  // Occurrences of each join variable: (pattern index, is_subject).
  std::map<std::string, std::vector<std::pair<size_t, bool>>> joins;
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!triples[i].p.is_term()) continue;  // No summary for var predicates.
    if (triples[i].s.is_variable()) {
      joins[triples[i].s.var().name].emplace_back(i, true);
    }
    if (triples[i].o.is_variable()) {
      joins[triples[i].o.var().name].emplace_back(i, false);
    }
  }

  auto auths_at = [this, &triples](size_t pattern, bool subject,
                                   int endpoint) -> const std::set<std::string>* {
    const EndpointSummary& summary = endpoints_[endpoint];
    const auto& map = subject ? summary.subject_auths : summary.object_auths;
    auto it = map.find(triples[pattern].p.term().lexical());
    return it == map.end() ? nullptr : &it->second;
  };

  // Iterate to a fixpoint (each round only shrinks candidate lists).
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 8) {
    changed = false;
    for (const auto& [var, occurrences] : joins) {
      if (occurrences.size() < 2) continue;
      for (const auto& [i, i_subject] : occurrences) {
        for (const auto& [j, j_subject] : occurrences) {
          if (i == j) continue;
          // Union of pattern j's authorities at the shared variable.
          std::set<std::string> other;
          for (int ep : (*sources)[j]) {
            const std::set<std::string>* a = auths_at(j, j_subject, ep);
            if (a != nullptr) other.insert(a->begin(), a->end());
          }
          std::vector<int> kept;
          for (int ep : (*sources)[i]) {
            const std::set<std::string>* a = auths_at(i, i_subject, ep);
            bool intersects = false;
            if (a != nullptr) {
              for (const std::string& auth : *a) {
                if (other.count(auth)) {
                  intersects = true;
                  break;
                }
              }
            }
            if (intersects) kept.push_back(ep);
          }
          if (kept.size() < (*sources)[i].size()) {
            (*sources)[i] = std::move(kept);
            changed = true;
          }
        }
      }
    }
  }
}

size_t HibiscusIndex::SizeBytes() const {
  size_t bytes = 0;
  for (const EndpointSummary& s : endpoints_) {
    for (const auto& [pred, auths] : s.subject_auths) {
      bytes += pred.size();
      for (const std::string& a : auths) bytes += a.size();
    }
    for (const auto& [pred, auths] : s.object_auths) {
      bytes += pred.size();
      for (const std::string& a : auths) bytes += a.size();
    }
  }
  return bytes;
}

}  // namespace lusail::baselines
