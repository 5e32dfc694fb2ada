#ifndef LUSAIL_RDF_DICTIONARY_H_
#define LUSAIL_RDF_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rdf/term.h"

namespace lusail::rdf {

/// Dense integer id of an interned term. Valid ids start at 0;
/// kInvalidTermId marks "not present".
using TermId = uint64_t;
inline constexpr TermId kInvalidTermId = ~0ULL;

/// Read-only id -> term resolution over one id space: what a consumer
/// needs to decode an id-space payload it did not mint. The engine's
/// core::TermDictionary is one; an endpoint answer in store ids
/// (sparql::AnswerTerms) is another. Implementations are safe for
/// concurrent readers.
class TermSource {
 public:
  virtual ~TermSource() = default;

  /// The term for `id`. Requires an id of this space (not
  /// kInvalidTermId); the reference lives as long as the source.
  virtual const Term& term(TermId id) const = 0;

  /// Batch form of term(): out[i] points at the term for ids[i], or is
  /// null for kInvalidTermId.
  virtual void TermBatch(const TermId* ids, size_t n,
                         const Term** out) const = 0;

  /// Decode accounting: a decoder that timed a whole pass over this
  /// source reports it here. Sources that keep no counters ignore it.
  virtual void AddDecodeBatch(double /*seconds*/, uint64_t /*cells*/) const {}

  /// Caching hook for consumers that translate this source's ids into
  /// their own space (core::TranslateIds): a process-unique tag of an id
  /// space in which every id below stable_ids() names the same term for
  /// as long as the process runs, or 0 when no id is stable.
  virtual uint64_t stable_space() const { return 0; }
  virtual size_t stable_ids() const { return 0; }
};

/// A flat, hash-tagged open-addressing index from terms to ids: a
/// power-of-two array of (hash, id) slots, at most half full. A term's
/// home slot is the top bits of its Term::Hash, probed linearly. The
/// index holds no terms; its owner keeps them and answers whether an id
/// names the term sought. A probe compares the stored hash before it
/// asks, so a warm hit reads one slot and the one term it names.
/// Dictionary and core::TermDictionary's shards both index this way.
/// Not thread-safe; the owner serializes access.
class TermIndex {
 public:
  TermIndex();

  /// The slot holding the id with hash `hash` for which `matches(id)`
  /// holds, or the empty slot where that id would go.
  template <typename Matches>
  size_t Find(uint64_t hash, Matches matches) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash >> shift_;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kInvalidTermId ||
          (slot.hash == hash && matches(slot.id))) {
        return i;
      }
    }
  }

  /// The id in `slot`, or kInvalidTermId when it is empty.
  TermId id(size_t slot) const { return slots_[slot].id; }

  /// Fills the empty `slot` that Find returned for `hash`, then doubles
  /// the array when it is more than half full (which moves slots).
  void Insert(size_t slot, uint64_t hash, TermId id);

  /// Hints the cache to load the home slot of `hash`.
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&slots_[hash >> shift_]);
  }

  /// Bytes of the slot array.
  size_t MemoryUsageBytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    uint64_t hash;
    TermId id;
  };
  static constexpr size_t kMinSlots = 16;

  std::vector<Slot> slots_;
  unsigned shift_;  ///< 64 - log2(slots_.size()).
  size_t size_ = 0;
};

/// Bidirectional Term <-> TermId map. Every triple store (one per endpoint)
/// owns a private Dictionary; the federated query processor owns another
/// one for join keys, re-interning endpoint results as they arrive. Each
/// term is held once, as a handle that shares the caller's term block.
///
/// Not thread-safe for concurrent interning; lookups of already-interned
/// ids are safe once loading is complete.
class Dictionary {
 public:
  Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Interns `term`, returning its id (existing or newly assigned).
  TermId Intern(const Term& term);

  /// Returns the id of `term` if interned, otherwise kInvalidTermId.
  TermId Lookup(const Term& term) const;

  /// Returns the term for `id`. Requires id < size().
  const Term& term(TermId id) const { return terms_[id]; }

  /// Number of interned terms.
  size_t size() const { return terms_.size(); }

  /// Approximate memory usage in bytes: the handles, every term's block
  /// (charged here even when shared with another owner) and the index.
  size_t MemoryUsageBytes() const;

  /// Process-unique tag of this dictionary's id space, never reused.
  /// Ids are only ever appended, so id i names the same term for the
  /// dictionary's whole life (see TermSource::stable_space).
  uint64_t space() const { return space_; }

 private:
  uint64_t space_;
  std::vector<Term> terms_;
  TermIndex index_;
};

}  // namespace lusail::rdf

#endif  // LUSAIL_RDF_DICTIONARY_H_
