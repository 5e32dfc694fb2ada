#ifndef LUSAIL_CACHE_FEDERATION_CACHE_H_
#define LUSAIL_CACHE_FEDERATION_CACHE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/id_table.h"
#include "obs/metrics.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace lusail::cache {

/// Counters of one cache tier. `entries`/`bytes` are the current
/// occupancy; the rest are cumulative since construction (or Clear).
struct TierStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;      ///< Dropped to stay within capacity.
  uint64_t invalidations = 0;  ///< Dropped because Invalidate(endpoint)
                               ///< outdated them (counted lazily, on Get).
  uint64_t expired = 0;        ///< Dropped because they outlived max_age.
  uint64_t entries = 0;
  uint64_t bytes = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A tier-3 entry: a subquery answer as its endpoint returned it, ids plus
/// the source that resolves them. Both are shared with the response, so a
/// put copies nothing and a hit is a refcount bump; a consumer brings the
/// ids into its own dictionary (Federation::ToIds) and never mutates them.
struct CachedAnswer {
  std::shared_ptr<const core::IdTable> ids;
  std::shared_ptr<const rdf::TermSource> terms;
};

/// One cache entry in its persistable form (no LRU links, no absolute
/// timestamps — steady_clock instants cannot survive a restart, so
/// restored entries get a fresh TTL clock).
template <typename V>
struct PersistedEntry {
  std::string key;
  std::string endpoint_id;
  uint64_t generation;
  V value;
};

/// A tier's persistable state: live entries (most recently used first)
/// plus the per-endpoint generation counters, so invalidations issued
/// before a save stay effective after a load.
template <typename V>
struct PersistedTier {
  std::vector<PersistedEntry<V>> entries;
  std::vector<std::pair<std::string, uint64_t>> generations;
};

/// Bounded, thread-safe LRU map with per-endpoint invalidation and
/// optional TTL expiry — the building block of every FederationCache
/// tier. Capacity is enforced both as an entry count and (when
/// `max_bytes` > 0) as a byte budget; the least recently used entries
/// are evicted first.
///
/// Staleness is handled lazily, so both mechanisms stay O(1):
///  - Each entry is stamped with its producing endpoint's *generation*.
///    InvalidateEndpoint bumps the generation (no sweep); a Get that
///    lands on an entry from an older generation drops it and misses.
///    Consequently Stats().entries may briefly count invalidated
///    entries until Gets (or capacity eviction) wash them out.
///  - With `max_age_ms` > 0, a Get that lands on an entry older than
///    the TTL drops it and misses (counted in `expired`).
template <typename V>
class LruTier {
 public:
  LruTier(size_t max_entries, uint64_t max_bytes, double max_age_ms = 0.0)
      : max_entries_(max_entries),
        max_bytes_(max_bytes),
        max_age_ms_(max_age_ms) {}
  LruTier(const LruTier&) = delete;
  LruTier& operator=(const LruTier&) = delete;

  std::optional<V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    if (it->second->generation != GenerationLocked(it->second->endpoint_id)) {
      RemoveLocked(it);
      ++invalidations_;
      ++misses_;
      return std::nullopt;
    }
    if (max_age_ms_ > 0.0 &&
        NowMsLocked() - it->second->inserted_ms > max_age_ms_) {
      RemoveLocked(it);
      ++expired_;
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // Most recently used.
    return it->second->value;
  }

  void Put(const std::string& key, const std::string& endpoint_id, V value,
           uint64_t value_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t entry_bytes = value_bytes + key.size() + endpoint_id.size();
    uint64_t generation = GenerationLocked(endpoint_id);
    double now_ms = NowMsLocked();
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->endpoint_id = endpoint_id;
      it->second->bytes = entry_bytes;
      it->second->generation = generation;
      it->second->inserted_ms = now_ms;
      bytes_ += entry_bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, endpoint_id, std::move(value), entry_bytes,
                            generation, now_ms});
      index_.emplace(key, lru_.begin());
      bytes_ += entry_bytes;
      ++insertions_;
    }
    EvictToCapacityLocked();
  }

  /// Outdates every entry produced by `endpoint_id` in O(1) by bumping
  /// its generation; the entries themselves are dropped lazily by Get.
  void InvalidateEndpoint(const std::string& endpoint_id) {
    std::lock_guard<std::mutex> lock(mu_);
    ++generations_[endpoint_id];
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    generations_.clear();
    bytes_ = 0;
    hits_ = misses_ = insertions_ = evictions_ = invalidations_ = 0;
    expired_ = 0;
  }

  TierStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    TierStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.invalidations = invalidations_;
    s.expired = expired_;
    s.entries = index_.size();
    s.bytes = bytes_;
    return s;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }

  /// Shifts this tier's notion of "now" forward, so TTL expiry is
  /// testable without sleeping.
  void AdvanceTimeForTesting(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    time_offset_ms_ += ms;
  }

  /// The tier's live state for persistence: entries in MRU-first order
  /// with stale (outdated generation) and TTL-expired entries already
  /// filtered out, plus the generation counters (sorted by endpoint id
  /// for deterministic snapshots).
  PersistedTier<V> SnapshotForPersist() const {
    std::lock_guard<std::mutex> lock(mu_);
    PersistedTier<V> out;
    out.generations.assign(generations_.begin(), generations_.end());
    std::sort(out.generations.begin(), out.generations.end());
    double now_ms = NowMsLocked();
    for (const Entry& entry : lru_) {
      if (entry.generation != GenerationLocked(entry.endpoint_id)) continue;
      if (max_age_ms_ > 0.0 && now_ms - entry.inserted_ms > max_age_ms_) {
        continue;
      }
      out.entries.push_back(PersistedEntry<V>{entry.key, entry.endpoint_id,
                                              entry.generation, entry.value});
    }
    return out;
  }

  /// Merges a persisted tier back in. Entries already live win over
  /// snapshot entries; generation counters take the max of live and
  /// persisted, so an entry invalidated before the save stays dead.
  /// `value_bytes` is the per-value byte charge (the caller knows V's
  /// footprint; this template does not). Returns how many entries were
  /// actually inserted (live entries and outdated generations are
  /// skipped).
  uint64_t RestorePersisted(const PersistedTier<V>& tier,
                            uint64_t value_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [endpoint_id, generation] : tier.generations) {
      uint64_t& current = generations_[endpoint_id];
      current = std::max(current, generation);
    }
    double now_ms = NowMsLocked();
    uint64_t restored = 0;
    // Reverse order: the snapshot is MRU-first and push_front reverses,
    // so iterating back-to-front lands the MRU entry at the front again.
    for (auto it = tier.entries.rbegin(); it != tier.entries.rend(); ++it) {
      if (index_.find(it->key) != index_.end()) continue;
      if (it->generation != GenerationLocked(it->endpoint_id)) continue;
      uint64_t entry_bytes =
          value_bytes + it->key.size() + it->endpoint_id.size();
      lru_.push_front(Entry{it->key, it->endpoint_id, it->value, entry_bytes,
                            it->generation, now_ms});
      index_.emplace(it->key, lru_.begin());
      bytes_ += entry_bytes;
      ++insertions_;
      ++restored;
    }
    EvictToCapacityLocked();
    return restored;
  }

 private:
  struct Entry {
    std::string key;
    std::string endpoint_id;
    V value;
    uint64_t bytes;
    uint64_t generation;
    double inserted_ms;
  };
  using EntryIt = typename std::list<Entry>::iterator;

  double NowMsLocked() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() +
           time_offset_ms_;
  }

  uint64_t GenerationLocked(const std::string& endpoint_id) const {
    auto it = generations_.find(endpoint_id);
    return it == generations_.end() ? 0 : it->second;
  }

  void RemoveLocked(
      typename std::unordered_map<std::string, EntryIt>::iterator it) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }

  void EvictToCapacityLocked() {
    while (!lru_.empty() &&
           (index_.size() > max_entries_ ||
            (max_bytes_ > 0 && bytes_ > max_bytes_))) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  mutable std::mutex mu_;
  const size_t max_entries_;
  const uint64_t max_bytes_;   ///< 0 = no byte budget.
  const double max_age_ms_;    ///< 0 = entries never expire.
  std::list<Entry> lru_;       ///< Front = most recently used.
  std::unordered_map<std::string, EntryIt> index_;
  std::unordered_map<std::string, uint64_t> generations_;
  double time_offset_ms_ = 0.0;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t expired_ = 0;
};

/// Capacity knobs of the three tiers. Defaults are sized for a serving
/// process that handles many concurrent federated queries.
struct FederationCacheOptions {
  size_t verdict_capacity = 1 << 16;  ///< ASK + locality-check verdicts.
  size_t count_capacity = 1 << 16;    ///< COUNT-probe cardinalities.
  size_t result_capacity = 1 << 12;   ///< Subquery result tables.
  uint64_t result_byte_budget = 64ull << 20;  ///< Byte cap on tier 3.

  // Per-tier TTLs bounding how stale a hit can be when endpoints mutate
  // without telling us (0 = entries never expire, matching the original
  // behavior). Verdicts/counts age slower than whole result tables since
  // schema-level facts change less often than data.
  double verdict_max_age_ms = 0.0;
  double count_max_age_ms = 0.0;
  double result_max_age_ms = 0.0;
};

/// Federation-level cross-query cache. Attach one to a fed::Federation
/// (set_query_cache) and every engine running against that federation
/// shares three tiers:
///
///   1. *Verdicts* — boolean answers of ASK source-selection probes and
///      GJV locality check queries, keyed by (endpoint id, query text).
///   2. *Counts* — COUNT-probe cardinalities, same key shape.
///   3. *Results* — whole subquery answers in ID space (opt-in per engine
///      via LusailOptions::result_cache), byte-budgeted by their id cells.
///
/// All tiers are bounded LRU with hit/miss/eviction counters.
/// Stores that mutate call Invalidate(endpoint_id) to evict exactly that
/// endpoint's entries from every tier. Unlike the per-engine AskCache,
/// this registry is shared by all engines and queries on the federation —
/// it is what makes a warm serving process issue a fraction of a cold
/// one's endpoint requests.
class FederationCache {
 public:
  explicit FederationCache(FederationCacheOptions options = {});
  FederationCache(const FederationCache&) = delete;
  FederationCache& operator=(const FederationCache&) = delete;

  /// Canonical "<endpoint id>|<query text>" key.
  static std::string Key(const std::string& endpoint_id,
                         const std::string& query_text);

  /// Verdict key of a one-pattern ASK probe at an endpoint or a shard
  /// member: "<endpoint id>|" plus the pattern with its variables
  /// renamed by first appearance, since only which slots are variables,
  /// and which of them repeat, decides the verdict. Source selection
  /// and the shard router both key verdicts this way.
  static std::string PatternKey(const std::string& endpoint_id,
                                const sparql::TriplePattern& tp);

  // --- Tier 1: boolean verdicts (ASK probes, locality checks) ---
  std::optional<bool> GetVerdict(const std::string& key);
  void PutVerdict(const std::string& key, const std::string& endpoint_id,
                  bool verdict);

  // --- Tier 2: COUNT-probe cardinalities ---
  std::optional<uint64_t> GetCount(const std::string& key);
  void PutCount(const std::string& key, const std::string& endpoint_id,
                uint64_t count);

  // --- Tier 3: subquery answers ---
  std::optional<CachedAnswer> GetResult(const std::string& endpoint_id,
                                        const std::string& query_text);
  /// Charges the answer's own id cells and variable names against the
  /// byte budget; its term source is shared with the endpoint that
  /// minted it and is not charged.
  void PutResult(const std::string& endpoint_id,
                 const std::string& query_text, CachedAnswer answer);

  /// Outdates every tier's entries derived from `endpoint_id` (call when
  /// the endpoint's store mutates). O(1): bumps the endpoint's
  /// generation; outdated entries are dropped lazily as Gets touch them.
  /// When `endpoint_id` is a logical endpoint with registered members
  /// (shard members, replicas), every member's generation is bumped too —
  /// cached per-member verdicts must not outlive the logical endpoint's
  /// data.
  void Invalidate(const std::string& endpoint_id);

  /// Declares that `member_ids` are constituents of logical endpoint
  /// `logical_id` (shard members, replica ids), so Invalidate(logical_id)
  /// reaches entries keyed by any member id. Members accumulate across
  /// calls; registering is idempotent.
  void RegisterMemberIds(const std::string& logical_id,
                         const std::vector<std::string>& member_ids);

  /// Shifts all tiers' clocks forward (deterministic TTL tests).
  void AdvanceTimeForTesting(double ms);

  /// Drops everything and resets all counters.
  void Clear();

  // --- Crash-safe persistence (verdict + count tiers only) ---

  /// Writes a versioned, checksummed binary snapshot of the verdict and
  /// COUNT tiers to `path` (atomically: tmp file + rename). Result
  /// answers are deliberately not persisted — they are byte-heavy and
  /// cheap to recompute relative to the ASK-probe stampede a cold
  /// verdict tier causes. Stale/expired entries are skipped and
  /// per-endpoint generation stamps are included, so invalidations that
  /// happened before the save stay effective after a load.
  Status SaveToDisk(const std::string& path) const;

  /// Restores a SaveToDisk snapshot into the verdict and COUNT tiers.
  /// Unknown magic, unsupported versions, truncation, and checksum
  /// mismatches are rejected without touching the cache. Entries already
  /// live win over snapshot entries. Returns the number of entries
  /// restored.
  Result<uint64_t> LoadFromDisk(const std::string& path);

  TierStats VerdictStats() const { return verdicts_.Stats(); }
  TierStats CountStats() const { return counts_.Stats(); }
  TierStats ResultStats() const { return results_.Stats(); }

  /// Emits lusail_cache_* counters and occupancy gauges, one sample per
  /// tier labelled {tier="verdicts"|"counts"|"results"}.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const;

 private:
  LruTier<bool> verdicts_;
  LruTier<uint64_t> counts_;
  LruTier<CachedAnswer> results_;

  mutable std::mutex members_mu_;
  std::unordered_map<std::string, std::vector<std::string>> members_;
};

}  // namespace lusail::cache

#endif  // LUSAIL_CACHE_FEDERATION_CACHE_H_
