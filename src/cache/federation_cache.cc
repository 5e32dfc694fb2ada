#include "cache/federation_cache.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

namespace lusail::cache {

// ---------------------------------------------------------------------
// Snapshot wire format (all integers little-endian):
//
//   8 bytes  magic "LUSCACHE"
//   u32      version (currently 1)
//   2 tier blocks (verdicts, then counts), each:
//     u64    number of generation records
//       { u64 id length, id bytes, u64 generation } ...
//     u64    number of entries (MRU first)
//       { u64 key length, key bytes,
//         u64 endpoint-id length, endpoint-id bytes,
//         u64 generation, u64 value } ...
//   u64      FNV-1a 64 checksum of everything above
// ---------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'L', 'U', 'S', 'C', 'A', 'C', 'H', 'E'};
constexpr uint32_t kSnapshotVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Bounds-checked little-endian reader over the snapshot bytes. Every
/// accessor degrades to "ok() == false" instead of reading out of
/// bounds, so a truncated or bit-flipped file that somehow passes the
/// checksum still cannot crash the loader.
class SnapshotReader {
 public:
  SnapshotReader(const std::string& data, size_t pos, size_t end)
      : data_(data), pos_(pos), end_(end) {}

  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string Str() {
    uint64_t length = U64();
    if (!ok_ || !Require(length)) {
      ok_ = false;
      return std::string();
    }
    std::string s = data_.substr(pos_, length);
    pos_ += length;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == end_; }

 private:
  bool Require(uint64_t bytes) {
    if (!ok_ || bytes > end_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& data_;
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

template <typename V, typename ToU64>
void AppendTier(std::string* out, const PersistedTier<V>& tier,
                ToU64 to_u64) {
  AppendU64(out, tier.generations.size());
  for (const auto& [endpoint_id, generation] : tier.generations) {
    AppendString(out, endpoint_id);
    AppendU64(out, generation);
  }
  AppendU64(out, tier.entries.size());
  for (const PersistedEntry<V>& entry : tier.entries) {
    AppendString(out, entry.key);
    AppendString(out, entry.endpoint_id);
    AppendU64(out, entry.generation);
    AppendU64(out, to_u64(entry.value));
  }
}

template <typename V, typename FromU64>
PersistedTier<V> ReadTier(SnapshotReader* reader, FromU64 from_u64) {
  PersistedTier<V> tier;
  uint64_t n_generations = reader->U64();
  for (uint64_t i = 0; reader->ok() && i < n_generations; ++i) {
    std::string endpoint_id = reader->Str();
    uint64_t generation = reader->U64();
    tier.generations.emplace_back(std::move(endpoint_id), generation);
  }
  uint64_t n_entries = reader->U64();
  for (uint64_t i = 0; reader->ok() && i < n_entries; ++i) {
    PersistedEntry<V> entry;
    entry.key = reader->Str();
    entry.endpoint_id = reader->Str();
    entry.generation = reader->U64();
    entry.value = from_u64(reader->U64());
    tier.entries.push_back(std::move(entry));
  }
  return tier;
}

}  // namespace

FederationCache::FederationCache(FederationCacheOptions options)
    : verdicts_(options.verdict_capacity, 0, options.verdict_max_age_ms),
      counts_(options.count_capacity, 0, options.count_max_age_ms),
      results_(options.result_capacity, options.result_byte_budget,
               options.result_max_age_ms) {}

std::string FederationCache::Key(const std::string& endpoint_id,
                                 const std::string& query_text) {
  return endpoint_id + "|" + query_text;
}

std::string FederationCache::PatternKey(const std::string& endpoint_id,
                                        const sparql::TriplePattern& tp) {
  std::vector<std::string> vars = tp.VariableNames();
  auto slot = [&vars](const sparql::TermOrVar& tv) {
    if (tv.is_term()) return tv.term().ToString();
    auto it = std::find(vars.begin(), vars.end(), tv.var().name);
    return "?" + std::to_string(it - vars.begin());
  };
  return Key(endpoint_id, slot(tp.s) + " " + slot(tp.p) + " " + slot(tp.o));
}

std::optional<bool> FederationCache::GetVerdict(const std::string& key) {
  return verdicts_.Get(key);
}

void FederationCache::PutVerdict(const std::string& key,
                                 const std::string& endpoint_id,
                                 bool verdict) {
  verdicts_.Put(key, endpoint_id, verdict, sizeof(bool));
}

std::optional<uint64_t> FederationCache::GetCount(const std::string& key) {
  return counts_.Get(key);
}

void FederationCache::PutCount(const std::string& key,
                               const std::string& endpoint_id,
                               uint64_t count) {
  counts_.Put(key, endpoint_id, count, sizeof(uint64_t));
}

std::optional<CachedAnswer> FederationCache::GetResult(
    const std::string& endpoint_id, const std::string& query_text) {
  return results_.Get(Key(endpoint_id, query_text));
}

void FederationCache::PutResult(const std::string& endpoint_id,
                                const std::string& query_text,
                                CachedAnswer answer) {
  const core::IdTable& ids = *answer.ids;
  uint64_t bytes = sizeof(core::IdTable);
  for (size_t c = 0; c < ids.NumVars(); ++c) {
    bytes += ids.vars[c].size() + 32 +
             ids.Column(c).size() * sizeof(rdf::TermId);
  }
  results_.Put(Key(endpoint_id, query_text), endpoint_id, std::move(answer),
               bytes);
}

void FederationCache::Invalidate(const std::string& endpoint_id) {
  verdicts_.InvalidateEndpoint(endpoint_id);
  counts_.InvalidateEndpoint(endpoint_id);
  results_.InvalidateEndpoint(endpoint_id);
  // Logical endpoints fan out to their registered constituents: shard
  // members and replicas key cache entries by their own member ids, and
  // those entries describe the same underlying data.
  std::vector<std::string> members;
  {
    std::lock_guard<std::mutex> lock(members_mu_);
    auto it = members_.find(endpoint_id);
    if (it != members_.end()) members = it->second;
  }
  for (const std::string& member : members) {
    verdicts_.InvalidateEndpoint(member);
    counts_.InvalidateEndpoint(member);
    results_.InvalidateEndpoint(member);
  }
}

void FederationCache::RegisterMemberIds(
    const std::string& logical_id,
    const std::vector<std::string>& member_ids) {
  std::lock_guard<std::mutex> lock(members_mu_);
  std::vector<std::string>& list = members_[logical_id];
  for (const std::string& member : member_ids) {
    if (member == logical_id) continue;  // Self-registration would recurse.
    if (std::find(list.begin(), list.end(), member) == list.end()) {
      list.push_back(member);
    }
  }
}

void FederationCache::AdvanceTimeForTesting(double ms) {
  verdicts_.AdvanceTimeForTesting(ms);
  counts_.AdvanceTimeForTesting(ms);
  results_.AdvanceTimeForTesting(ms);
}

void FederationCache::Clear() {
  verdicts_.Clear();
  counts_.Clear();
  results_.Clear();
}

Status FederationCache::SaveToDisk(const std::string& path) const {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  AppendU32(&buf, kSnapshotVersion);
  AppendTier(&buf, verdicts_.SnapshotForPersist(),
             [](bool v) -> uint64_t { return v ? 1 : 0; });
  AppendTier(&buf, counts_.SnapshotForPersist(),
             [](uint64_t v) { return v; });
  AppendU64(&buf, Fnv1a64(buf.data(), buf.size()));

  // Write-then-rename so a crash mid-save leaves the previous snapshot
  // (or no snapshot) intact, never a torn file.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot write cache snapshot " + tmp);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) return Status::Internal("short write to cache snapshot " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot move cache snapshot into place: " + path);
  }
  return Status::OK();
}

Result<uint64_t> FederationCache::LoadFromDisk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no cache snapshot at " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4;
  constexpr size_t kFooterBytes = 8;
  if (data.size() < kHeaderBytes + kFooterBytes) {
    return Status::InvalidArgument("cache snapshot truncated: " + path);
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a cache snapshot: " + path);
  }
  size_t body_end = data.size() - kFooterBytes;
  SnapshotReader footer(data, body_end, data.size());
  uint64_t stored_checksum = footer.U64();
  if (Fnv1a64(data.data(), body_end) != stored_checksum) {
    return Status::InvalidArgument("cache snapshot checksum mismatch: " +
                                   path);
  }
  SnapshotReader reader(data, sizeof(kMagic), body_end);
  uint32_t version = reader.U32();
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported cache snapshot version " +
                                   std::to_string(version) + ": " + path);
  }
  PersistedTier<bool> verdict_tier =
      ReadTier<bool>(&reader, [](uint64_t v) { return v != 0; });
  PersistedTier<uint64_t> count_tier =
      ReadTier<uint64_t>(&reader, [](uint64_t v) { return v; });
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("malformed cache snapshot: " + path);
  }
  uint64_t restored = verdicts_.RestorePersisted(verdict_tier, sizeof(bool));
  restored += counts_.RestorePersisted(count_tier, sizeof(uint64_t));
  return restored;
}

void FederationCache::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  struct Tier {
    const char* name;
    TierStats stats;
  };
  const Tier tiers[] = {{"verdicts", VerdictStats()},
                        {"counts", CountStats()},
                        {"results", ResultStats()}};
  for (const Tier& tier : tiers) {
    obs::MetricLabels labels = {{"tier", tier.name}};
    snapshot->AddCounter("lusail_cache_hits_total",
                         "Cache lookups served from this tier.", labels,
                         static_cast<double>(tier.stats.hits));
    snapshot->AddCounter("lusail_cache_misses_total",
                         "Cache lookups that missed this tier.", labels,
                         static_cast<double>(tier.stats.misses));
    snapshot->AddCounter("lusail_cache_insertions_total",
                         "Entries inserted into this tier.", labels,
                         static_cast<double>(tier.stats.insertions));
    snapshot->AddCounter("lusail_cache_evictions_total",
                         "Entries evicted to stay within capacity.", labels,
                         static_cast<double>(tier.stats.evictions));
    snapshot->AddCounter("lusail_cache_invalidations_total",
                         "Entries dropped by endpoint invalidation.", labels,
                         static_cast<double>(tier.stats.invalidations));
    snapshot->AddCounter("lusail_cache_expired_total",
                         "Entries dropped after outliving their TTL.", labels,
                         static_cast<double>(tier.stats.expired));
    snapshot->AddGauge("lusail_cache_entries",
                       "Entries currently resident in this tier.", labels,
                       static_cast<double>(tier.stats.entries));
    snapshot->AddGauge("lusail_cache_bytes",
                       "Approximate bytes currently resident in this tier.",
                       labels, static_cast<double>(tier.stats.bytes));
  }
}

}  // namespace lusail::cache
