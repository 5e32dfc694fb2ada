#include "rdf/dictionary.h"

#include <atomic>
#include <bit>

namespace lusail::rdf {

TermIndex::TermIndex()
    : slots_(kMinSlots, Slot{0, kInvalidTermId}),
      shift_(64 - std::countr_zero(kMinSlots)) {}

void TermIndex::Insert(size_t slot, uint64_t hash, TermId id) {
  slots_[slot] = Slot{hash, id};
  if (2 * ++size_ <= slots_.size()) return;
  // Double the array, re-placing slots by their stored hashes.
  std::vector<Slot> grown(2 * slots_.size(), Slot{0, kInvalidTermId});
  const unsigned shift = shift_ - 1;
  const size_t mask = grown.size() - 1;
  for (const Slot& old : slots_) {
    if (old.id == kInvalidTermId) continue;
    size_t i = old.hash >> shift;
    while (grown[i].id != kInvalidTermId) i = (i + 1) & mask;
    grown[i] = old;
  }
  slots_ = std::move(grown);
  shift_ = shift;
}

Dictionary::Dictionary() {
  static std::atomic<uint64_t> next_space{1};
  space_ = next_space.fetch_add(1, std::memory_order_relaxed);
}

TermId Dictionary::Intern(const Term& term) {
  const uint64_t hash = term.Hash();
  const size_t slot =
      index_.Find(hash, [&](TermId id) { return terms_[id] == term; });
  if (index_.id(slot) != kInvalidTermId) return index_.id(slot);
  const TermId id = terms_.size();
  terms_.push_back(term);
  index_.Insert(slot, hash, id);
  return id;
}

TermId Dictionary::Lookup(const Term& term) const {
  return index_.id(index_.Find(
      term.Hash(), [&](TermId id) { return terms_[id] == term; }));
}

size_t Dictionary::MemoryUsageBytes() const {
  size_t bytes = terms_.capacity() * sizeof(Term) + index_.MemoryUsageBytes();
  for (const Term& t : terms_) bytes += t.BlockBytes();
  return bytes;
}

}  // namespace lusail::rdf
