#include "store/triple_store.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

namespace lusail::store {

namespace {

// Lexicographic comparators for the three index permutations.
struct SpoLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  }
};
struct PosLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
  }
};
struct OspLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
  }
};

// Builds the run directory of `index` (sorted by `key` first): the
// entries whose leading key is id lie at [begin[id], begin[id + 1]).
// One counting pass plus a prefix sum over `num_ids` + 1 slots.
std::vector<uint32_t> BuildDirectory(const std::vector<EncodedTriple>& index,
                                     rdf::TermId EncodedTriple::*key,
                                     size_t num_ids) {
  std::vector<uint32_t> begin(num_ids + 1, 0);
  for (const EncodedTriple& t : index) ++begin[t.*key + 1];
  for (size_t id = 0; id < num_ids; ++id) begin[id + 1] += begin[id];
  return begin;
}

// The run of `index` whose leading key is `id`; empty for ids the
// directory does not cover (foreign ids, kInvalidTermId).
std::span<const EncodedTriple> LeadingRun(
    const std::vector<EncodedTriple>& index,
    const std::vector<uint32_t>& begin, rdf::TermId id) {
  if (begin.empty() || id >= begin.size() - 1) return {};
  return {index.data() + begin[id], index.data() + begin[id + 1]};
}

// The sub-run of `run` (sorted by `key` within it) whose `key` equals id.
// Short runs (a subject's or an object's triples, typically) are scanned:
// predictable sequential reads beat a mispredicted binary search there.
template <rdf::TermId EncodedTriple::*key>
inline std::span<const EncodedTriple> Narrow(
    std::span<const EncodedTriple> run, rdf::TermId id) {
  constexpr size_t kScanRun = 16;
  if (run.size() <= kScanRun) {
    size_t lo = 0;
    while (lo < run.size() && run[lo].*key < id) ++lo;
    size_t hi = lo;
    while (hi < run.size() && run[hi].*key == id) ++hi;
    return run.subspan(lo, hi - lo);
  }
  auto [lo, hi] = std::ranges::equal_range(run, id, {}, key);
  return {lo, hi};
}

}  // namespace

void TripleStore::Add(const rdf::TermTriple& triple) {
  assert(!frozen_ && "Add() after Freeze()");
  EncodedTriple et{dict_.Intern(triple.subject), dict_.Intern(triple.predicate),
                   dict_.Intern(triple.object)};
  spo_.push_back(et);
}

Status TripleStore::LoadNTriplesFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open N-Triples file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadNTriples(buffer.str());
}

Status TripleStore::LoadNTriples(std::string_view text) {
  LUSAIL_ASSIGN_OR_RETURN(std::vector<rdf::TermTriple> triples,
                          rdf::ParseNTriples(text));
  for (const rdf::TermTriple& t : triples) Add(t);
  return Status::OK();
}

void TripleStore::Freeze() {
  if (frozen_) return;
  std::sort(spo_.begin(), spo_.end(), SpoLess());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), PosLess());
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), OspLess());
  assert(spo_.size() < std::numeric_limits<uint32_t>::max());
  spo_begin_ = BuildDirectory(spo_, &EncodedTriple::s, dict_.size());
  pos_begin_ = BuildDirectory(pos_, &EncodedTriple::p, dict_.size());
  osp_begin_ = BuildDirectory(osp_, &EncodedTriple::o, dict_.size());

  // Predicate statistics from one pass over each predicate's pos_ run:
  // objects arrive sorted, so distinct objects count on the fly; the
  // run's subjects are collected and sorted to count them.
  predicate_stats_.clear();
  for (size_t i = 0; i < pos_.size();) {
    rdf::TermId p = pos_[i].p;
    PredicateStats stats;
    size_t j = i;
    rdf::TermId last_o = rdf::kInvalidTermId;
    while (j < pos_.size() && pos_[j].p == p) {
      ++stats.triples;
      if (pos_[j].o != last_o) {
        ++stats.distinct_objects;
        last_o = pos_[j].o;
      }
      ++j;
    }
    // Distinct subjects for this predicate: collect and sort.
    std::vector<rdf::TermId> subjects;
    subjects.reserve(stats.triples);
    for (size_t k = i; k < j; ++k) subjects.push_back(pos_[k].s);
    std::sort(subjects.begin(), subjects.end());
    stats.distinct_subjects =
        std::unique(subjects.begin(), subjects.end()) - subjects.begin();
    predicate_stats_.emplace(p, stats);
    i = j;
  }
  frozen_ = true;
}

std::span<const EncodedTriple> TripleStore::Match(
    std::optional<rdf::TermId> s, std::optional<rdf::TermId> p,
    std::optional<rdf::TermId> o) const {
  assert(frozen_ && "Match() before Freeze()");
  if (s.has_value()) {
    if (o.has_value() && !p.has_value()) {
      // (s, ?, o): the object's osp_ run, narrowed to the subject.
      return Narrow<&EncodedTriple::s>(LeadingRun(osp_, osp_begin_, *o), *s);
    }
    std::span<const EncodedTriple> run = LeadingRun(spo_, spo_begin_, *s);
    if (!p.has_value()) return run;
    run = Narrow<&EncodedTriple::p>(run, *p);
    return o.has_value() ? Narrow<&EncodedTriple::o>(run, *o) : run;
  }
  if (p.has_value()) {
    std::span<const EncodedTriple> run = LeadingRun(pos_, pos_begin_, *p);
    return o.has_value() ? Narrow<&EncodedTriple::o>(run, *o) : run;
  }
  if (o.has_value()) return LeadingRun(osp_, osp_begin_, *o);
  return {spo_.data(), spo_.size()};
}

PredicateStats TripleStore::StatsFor(rdf::TermId predicate) const {
  auto it = predicate_stats_.find(predicate);
  return it == predicate_stats_.end() ? PredicateStats{} : it->second;
}

std::vector<rdf::TermId> TripleStore::Predicates() const {
  std::vector<rdf::TermId> out;
  out.reserve(predicate_stats_.size());
  for (const auto& [p, stats] : predicate_stats_) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

size_t TripleStore::MemoryUsageBytes() const {
  return (spo_.capacity() + pos_.capacity() + osp_.capacity()) *
             sizeof(EncodedTriple) +
         (spo_begin_.capacity() + pos_begin_.capacity() +
          osp_begin_.capacity()) *
             sizeof(uint32_t) +
         dict_.MemoryUsageBytes();
}

}  // namespace lusail::store
