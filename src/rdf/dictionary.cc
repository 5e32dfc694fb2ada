#include "rdf/dictionary.h"

#include <atomic>

namespace lusail::rdf {

Dictionary::Dictionary() {
  static std::atomic<uint64_t> next_space{1};
  space_ = next_space.fetch_add(1, std::memory_order_relaxed);
}

TermId Dictionary::Intern(const Term& term) {
  auto it = ids_.find(term);
  if (it != ids_.end()) return it->second;
  TermId id = terms_.size();
  terms_.push_back(term);
  ids_.emplace(term, id);
  return id;
}

TermId Dictionary::Lookup(const Term& term) const {
  auto it = ids_.find(term);
  return it == ids_.end() ? kInvalidTermId : it->second;
}

size_t Dictionary::MemoryUsageBytes() const {
  size_t bytes = terms_.capacity() * sizeof(Term);
  for (const Term& t : terms_) {
    bytes += t.lexical().capacity() + t.datatype().capacity() +
             t.lang().capacity();
  }
  // Hash table entries: key copy + id + bucket overhead estimate.
  bytes += ids_.size() * (sizeof(Term) + sizeof(TermId) + 16);
  return bytes;
}

}  // namespace lusail::rdf
