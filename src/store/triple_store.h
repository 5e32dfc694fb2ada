#ifndef LUSAIL_STORE_TRIPLE_STORE_H_
#define LUSAIL_STORE_TRIPLE_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace lusail::store {

/// A dictionary-encoded triple.
struct EncodedTriple {
  rdf::TermId s;
  rdf::TermId p;
  rdf::TermId o;

  bool operator==(const EncodedTriple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// Per-predicate statistics computed at Freeze() time. RDF engines keep
/// these for query optimization (Virtuoso, RDF-3X); our endpoint engine
/// uses them for BGP join ordering, and SELECT COUNT probes read them.
struct PredicateStats {
  uint64_t triples = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// In-memory dictionary-encoded triple store with three covering sorted
/// indexes (SPO, POS, OSP). Every bound-position combination of a triple
/// pattern is a prefix of one of the three orders, so every lookup is one
/// contiguous range with no residual filtering. Each index has a run
/// directory indexed by the dense id of its leading term, so the run of a
/// subject, predicate or object is found in O(1); a second or third bound
/// position is a binary search inside that run.
///
/// Usage: Add() triples, then Freeze() once; Match()/Count() afterwards.
/// A store holds fewer than 2^32 distinct triples (the directories keep
/// 32-bit offsets).
class TripleStore {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Interns the triple's terms and buffers it. Requires !frozen().
  void Add(const rdf::TermTriple& triple);

  /// Bulk-loads an N-Triples document.
  Status LoadNTriples(std::string_view text);

  /// Bulk-loads an N-Triples file from disk.
  Status LoadNTriplesFile(const std::string& path);

  /// Sorts the three indexes, deduplicates, builds the run directories
  /// and computes statistics.
  /// Idempotent; Add() after Freeze() is a programming error.
  void Freeze();

  bool frozen() const { return frozen_; }

  /// Number of distinct triples (valid after Freeze()).
  size_t size() const { return spo_.size(); }

  const rdf::Dictionary& dict() const { return dict_; }

  /// Returns all triples matching the pattern; std::nullopt positions are
  /// wildcards. The result is a contiguous range of one index, in that
  /// index's order: OSP for (s, ?, o) and (?, ?, o), POS for (?, p, ?)
  /// and (?, p, o), SPO otherwise. Ids the store never interned match
  /// nothing. Requires frozen().
  std::span<const EncodedTriple> Match(std::optional<rdf::TermId> s,
                                       std::optional<rdf::TermId> p,
                                       std::optional<rdf::TermId> o) const;

  /// Exact cardinality of a pattern (size of the Match range).
  uint64_t Count(std::optional<rdf::TermId> s, std::optional<rdf::TermId> p,
                 std::optional<rdf::TermId> o) const {
    return Match(s, p, o).size();
  }

  /// True if at least one triple matches (the ASK fast path).
  bool Ask(std::optional<rdf::TermId> s, std::optional<rdf::TermId> p,
           std::optional<rdf::TermId> o) const {
    return !Match(s, p, o).empty();
  }

  /// Per-predicate statistics; unknown predicates report zeros.
  PredicateStats StatsFor(rdf::TermId predicate) const;

  /// All distinct predicates in the store.
  std::vector<rdf::TermId> Predicates() const;

  /// Approximate memory footprint: indexes + directories + dictionary.
  size_t MemoryUsageBytes() const;

 private:
  rdf::Dictionary dict_;
  bool frozen_ = false;
  // Three covering permutations. spo_ is also the canonical triple list.
  std::vector<EncodedTriple> spo_;
  std::vector<EncodedTriple> pos_;
  std::vector<EncodedTriple> osp_;
  // Run directories (dict_.size() + 1 offsets each): the spo_ entries with
  // subject id are [spo_begin_[id], spo_begin_[id + 1]); pos_begin_ and
  // osp_begin_ do the same for predicates in pos_ and objects in osp_.
  std::vector<uint32_t> spo_begin_;
  std::vector<uint32_t> pos_begin_;
  std::vector<uint32_t> osp_begin_;
  std::unordered_map<rdf::TermId, PredicateStats> predicate_stats_;
};

}  // namespace lusail::store

#endif  // LUSAIL_STORE_TRIPLE_STORE_H_
