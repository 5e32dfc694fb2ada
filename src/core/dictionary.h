#ifndef LUSAIL_CORE_DICTIONARY_H_
#define LUSAIL_CORE_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace lusail::core {

/// Cumulative counters of one TermDictionary, read at scrape time.
struct DictionaryStats {
  uint64_t terms = 0;          ///< Distinct terms interned.
  uint64_t bytes = 0;          ///< Approximate resident bytes.
  uint64_t encode_terms = 0;   ///< Cells pushed through Encode batches.
  uint64_t decode_terms = 0;   ///< Cells pulled through Decode batches.
  double encode_seconds = 0.0; ///< Wall time spent in encode batches.
  double decode_seconds = 0.0; ///< Wall time spent in decode batches.
};

/// Thread-safe two-way Term <-> TermId dictionary: the per-engine term
/// space ID-space execution runs on. Endpoint responses are encoded into
/// ids once at the federator boundary (or parsed straight to ids by the
/// HTTP transport), every join/dedup/fingerprint downstream works on
/// fixed-width u64s, and only the final projected rows are decoded back
/// to terms (late materialization).
///
/// Sharded 16 ways to keep concurrent interning from SAPE's fetch pool
/// off a single mutex: id = (index_in_shard << 4) | shard. Terms live in
/// per-shard deques, so `term(id)` hands out references that stay valid
/// for the dictionary's lifetime — filter evaluation holds them across
/// expression trees with no per-row copies.
///
/// A term is hashed once (rdf::Term::Hash): the low 4 bits pick the
/// shard and the high bits the home slot in the shard's rdf::TermIndex.
/// The shard's deque holds a handle to the caller's term block, so a
/// term interned from a store answer shares the store's bytes.
/// InternBatch and TermBatch group a column by shard and take each shard
/// lock once.
///
/// The dictionary is owned by the engine and lives across queries (terms
/// are never evicted; LUBM-scale federations intern a few hundred
/// thousand distinct terms). Because ids are only meaningful relative to
/// one dictionary instance, every instance carries a process-unique
/// `epoch` tag. Anything id-derived that can outlive or escape the
/// engine — VALUES-block cache fingerprints for the shared result
/// cache — must NOT be keyed on raw ids or the epoch: the shared cache
/// spans engines, so keys have to be content-based. For that, every
/// interned term also gets a 64-bit `content_hash` computed once from
/// its kind/lexical/datatype/lang; it is equal across dictionaries for
/// equal terms and O(1) to look up by id.
class TermDictionary final : public rdf::TermSource {
 public:
  TermDictionary();
  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;

  /// Interns `term`, returning its id (existing or newly assigned).
  rdf::TermId Intern(const rdf::Term& term);

  /// Interns `n` terms: out[i] gets the id of *terms[i], exactly as
  /// Intern would assign it; a null terms[i] (an unbound cell) yields
  /// kInvalidTermId. Cells are grouped by shard so each shard lock is
  /// taken once per call.
  void InternBatch(const rdf::Term* const* terms, size_t n,
                   rdf::TermId* out);

  /// Interns the term with exactly these fields, as
  /// Intern(rdf::Term::FromFields(kind, lexical, datatype, lang)) would,
  /// but hashes and compares the views in place: a term already interned
  /// costs no allocation, and a block is built only for a new one.
  rdf::TermId InternFields(rdf::TermKind kind, std::string_view lexical,
                           std::string_view datatype, std::string_view lang);

  /// Returns the id of `term` if interned, otherwise kInvalidTermId.
  rdf::TermId Lookup(const rdf::Term& term) const;

  /// Returns the term for `id`. The reference stays valid for the
  /// dictionary's lifetime. Requires an id previously returned by Intern.
  const rdf::Term& term(rdf::TermId id) const override;

  /// Batch form of term(): out[i] points at the term for ids[i], or is
  /// null for kInvalidTermId. Takes each shard lock once per call.
  void TermBatch(const rdf::TermId* ids, size_t n,
                 const rdf::Term** out) const override;

  /// Number of distinct interned terms.
  size_t size() const;

  /// Process-unique instance tag (debugging / --explain output; ids from
  /// dictionaries with different epochs are incomparable).
  uint64_t epoch() const { return epoch_; }

  /// Stable 64-bit content hash of the term behind `id`, computed once
  /// at intern time from kind/lexical/datatype/lang. Equal terms hash
  /// equally in every dictionary instance, so fingerprints built from
  /// content hashes are valid keys for caches shared across engines.
  uint64_t content_hash(rdf::TermId id) const;

  /// Batch timing hooks: encode/decode helpers time a whole table pass
  /// and report it here, so the hot path never reads the clock per cell.
  /// Const because decode runs against a const dictionary (stats are
  /// bookkeeping, not term-space state).
  void AddEncodeBatch(double seconds, uint64_t cells) const;
  void AddDecodeBatch(double seconds, uint64_t cells) const override;

  DictionaryStats GetStats() const;

  /// The translation memo of a stable foreign id space (see
  /// rdf::TermSource::stable_space), created on first use with `size`
  /// slots: slot i holds this dictionary's id for the space's id i, or
  /// kInvalidTermId until TranslateIds first resolves it. Kept for the
  /// dictionary's lifetime (ids are never evicted, so entries never go
  /// stale); slots are read and written concurrently with relaxed
  /// atomics. `*slots` receives the memo's size.
  std::atomic<rdf::TermId>* TranslationMemo(uint64_t space, size_t size,
                                            size_t* slots);

  /// Emits lusail_<subsystem>_dictionary_{terms,bytes} gauges and
  /// encode/decode {seconds,cells}_total counters.
  void ExportMetrics(obs::MetricsSnapshot* snapshot,
                     const std::string& subsystem) const;

  // --- Crash-safe persistence (warm endpointd restarts) ---

  /// Writes a versioned, checksummed binary snapshot of every interned
  /// term to `path` (atomically: tmp file + rename), preserving per-shard
  /// insertion order so a LoadFromDisk into a fresh dictionary reproduces
  /// the identical TermId for every term — id-derived state that survived
  /// the restart (persisted caches, logged ids) stays meaningful.
  Status SaveToDisk(const std::string& path) const;

  /// Restores a SaveToDisk snapshot. The dictionary must be empty (ids
  /// are only reproducible from a clean slate); unknown magic, version
  /// mismatches, truncation, checksum mismatches, and terms that no
  /// longer hash to their recorded shard are rejected without touching
  /// the dictionary. Content hashes are recomputed, so equal terms keep
  /// equal hashes across save/load. Returns the number of terms restored.
  Result<uint64_t> LoadFromDisk(const std::string& path);

 private:
  static constexpr size_t kShards = 16;
  static constexpr uint64_t kShardMask = kShards - 1;

  struct Shard {
    mutable std::mutex mu;
    std::deque<rdf::Term> terms;
    std::deque<uint64_t> hashes;  ///< content_hash, parallel to `terms`.
    rdf::TermIndex index;         ///< Keyed by rdf::Term::Hash.
    size_t bytes = 0;  ///< TermBytes of every term (index not included).
  };

  /// Id of the term whose Hash() is `hash` and for which `matches` holds
  /// in `shard`; when absent, interns `make()` there first. Caller holds
  /// shard->mu.
  template <typename Matches, typename Make>
  static rdf::TermId FindOrInsert(Shard* shard, uint64_t hash,
                                  Matches matches, Make make);
  /// FindOrInsert of `term` itself.
  static rdf::TermId FindOrInsert(Shard* shard, const rdf::Term& term,
                                  uint64_t hash);

  Shard shards_[kShards];
  uint64_t epoch_;

  struct SpaceMemo {
    std::unique_ptr<std::atomic<rdf::TermId>[]> ids;
    size_t size = 0;
  };
  mutable std::mutex memo_mu_;
  std::unordered_map<uint64_t, SpaceMemo> space_memos_;
  mutable std::atomic<uint64_t> encode_cells_{0};
  mutable std::atomic<uint64_t> decode_cells_{0};
  mutable std::atomic<uint64_t> encode_ns_{0};
  mutable std::atomic<uint64_t> decode_ns_{0};
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_DICTIONARY_H_
