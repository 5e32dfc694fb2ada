#include "core/dictionary.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

namespace lusail::core {

namespace {

/// Global epoch source: one tag per dictionary instance, process-wide.
std::atomic<uint64_t>& EpochCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter;
}

/// Approximate resident cost of one interned term: its block (charged
/// to this dictionary even when a store shares it) plus its deque
/// entries, the handle and the content hash. The shard's index is
/// charged separately.
size_t TermBytes(const rdf::Term& term) {
  return term.BlockBytes() + sizeof(rdf::Term) + sizeof(uint64_t);
}

/// How many cells ahead InternBatch prefetches the home slot: far enough
/// to cover a cache miss behind one probe and term compare.
constexpr size_t kPrefetchDistance = 8;

/// Counting sort of batch positions by shard: the positions whose
/// shard_of(i) is s end up in order[begin[s], begin[s + 1]), in batch
/// order; a shard_of(i) of kNumShards or more leaves i out.
template <size_t kNumShards, typename ShardOf>
void GroupByShard(size_t n, ShardOf shard_of, std::vector<uint32_t>* order,
                  std::array<size_t, kNumShards + 1>* begin) {
  std::array<size_t, kNumShards + 1> next{};
  for (size_t i = 0; i < n; ++i) {
    size_t s = shard_of(i);
    if (s < kNumShards) ++next[s + 1];
  }
  for (size_t s = 0; s < kNumShards; ++s) next[s + 1] += next[s];
  *begin = next;
  order->resize(next[kNumShards]);
  for (size_t i = 0; i < n; ++i) {
    size_t s = shard_of(i);
    if (s < kNumShards) (*order)[next[s]++] = static_cast<uint32_t>(i);
  }
}

/// Stable FNV-1a over the term's full identity. Field separators (bytes
/// that cannot appear unescaped inside the components) keep e.g.
/// ("ab","c") and ("a","bc") from hashing equally across fields.
uint64_t HashTermContent(const rdf::Term& term) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&](const void* data, size_t len) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  unsigned char kind = static_cast<unsigned char>(term.kind());
  mix(&kind, 1);
  mix(term.lexical().data(), term.lexical().size());
  mix("\x1f", 1);
  mix(term.datatype().data(), term.datatype().size());
  mix("\x1f", 1);
  mix(term.lang().data(), term.lang().size());
  return h;
}

}  // namespace

// ---------------------------------------------------------------------
// Snapshot wire format (all integers little-endian):
//
//   8 bytes  magic "LUSDICTS"
//   u32      version (currently 2; version 1 placed terms in shards by
//            an older rdf::Term::Hash)
//   u64      shard count (must equal kShards)
//   per shard:
//     u64    number of terms, in insertion (id) order
//       { u8 kind, u64 lexical length, lexical bytes,
//         u64 datatype length, datatype bytes,
//         u64 lang length, lang bytes } ...
//   u64      FNV-1a 64 checksum of everything above
// ---------------------------------------------------------------------

constexpr char kDictMagic[8] = {'L', 'U', 'S', 'D', 'I', 'C', 'T', 'S'};
constexpr uint32_t kDictSnapshotVersion = 2;

namespace {

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

void AppendString(std::string* out, std::string_view s) {
  AppendU64(out, s.size());
  out->append(s);
}

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Bounds-checked little-endian reader (degrades to ok() == false rather
/// than reading out of bounds).
class DictReader {
 public:
  DictReader(const std::string& data, size_t pos, size_t end)
      : data_(data), pos_(pos), end_(end) {}

  uint8_t U8() {
    if (!Require(1)) return 0;
    return static_cast<unsigned char>(data_[pos_++]);
  }

  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string_view Str() {
    uint64_t length = U64();
    if (!ok_ || !Require(length)) {
      ok_ = false;
      return std::string_view();
    }
    std::string_view s(data_.data() + pos_, length);
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

/// The term a snapshot record describes. A language tag wins over a
/// datatype, and non-literals keep only their lexical form, as the named
/// rdf::Term factories build them.
rdf::Term TermFromFields(uint8_t kind, std::string_view lexical,
                         std::string_view datatype, std::string_view lang) {
  switch (static_cast<rdf::TermKind>(kind)) {
    case rdf::TermKind::kIri:
      return rdf::Term::Iri(lexical);
    case rdf::TermKind::kBlankNode:
      return rdf::Term::BlankNode(lexical);
    case rdf::TermKind::kLiteral:
      if (!lang.empty()) return rdf::Term::LangLiteral(lexical, lang);
      return rdf::Term::TypedLiteral(lexical, datatype);
  }
  return rdf::Term();
}

}  // namespace

Status TermDictionary::SaveToDisk(const std::string& path) const {
  std::string buf;
  buf.append(kDictMagic, sizeof(kDictMagic));
  AppendU32(&buf, kDictSnapshotVersion);
  AppendU64(&buf, kShards);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    AppendU64(&buf, shard.terms.size());
    for (const rdf::Term& term : shard.terms) {
      buf.push_back(static_cast<char>(term.kind()));
      AppendString(&buf, term.lexical());
      AppendString(&buf, term.datatype());
      AppendString(&buf, term.lang());
    }
  }
  AppendU64(&buf, Fnv1a64(buf.data(), buf.size()));

  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot write dictionary snapshot " + tmp);
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) {
      return Status::Internal("short write to dictionary snapshot " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot move dictionary snapshot into place: " +
                            path);
  }
  return Status::OK();
}

Result<uint64_t> TermDictionary::LoadFromDisk(const std::string& path) {
  if (size() != 0) {
    return Status::InvalidArgument(
        "dictionary snapshot must load into an empty dictionary (ids are "
        "only reproducible from a clean slate)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no dictionary snapshot at " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  constexpr size_t kHeaderBytes = sizeof(kDictMagic) + 4;
  constexpr size_t kFooterBytes = 8;
  if (data.size() < kHeaderBytes + kFooterBytes) {
    return Status::InvalidArgument("dictionary snapshot truncated: " + path);
  }
  if (std::memcmp(data.data(), kDictMagic, sizeof(kDictMagic)) != 0) {
    return Status::InvalidArgument("not a dictionary snapshot: " + path);
  }
  size_t body_end = data.size() - kFooterBytes;
  DictReader footer(data, body_end, data.size());
  if (Fnv1a64(data.data(), body_end) != footer.U64()) {
    return Status::InvalidArgument("dictionary snapshot checksum mismatch: " +
                                   path);
  }
  DictReader reader(data, sizeof(kDictMagic), body_end);
  uint32_t version = reader.U32();
  if (version != kDictSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported dictionary snapshot version " + std::to_string(version) +
        ": " + path);
  }
  if (reader.U64() != kShards) {
    return Status::InvalidArgument(
        "dictionary snapshot has an incompatible shard count: " + path);
  }

  // Parse and validate everything before touching the dictionary, so a
  // malformed snapshot leaves it untouched (and still loadable later).
  std::vector<std::vector<rdf::Term>> parsed(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    uint64_t n = reader.U64();
    parsed[s].reserve(reader.ok() ? n : 0);
    for (uint64_t i = 0; reader.ok() && i < n; ++i) {
      uint8_t kind = reader.U8();
      std::string_view lexical = reader.Str();
      std::string_view datatype = reader.Str();
      std::string_view lang = reader.Str();
      if (!reader.ok()) break;
      if (kind > static_cast<uint8_t>(rdf::TermKind::kBlankNode)) {
        return Status::InvalidArgument(
            "dictionary snapshot has an unknown term kind: " + path);
      }
      rdf::Term term = TermFromFields(kind, lexical, datatype, lang);
      if ((term.Hash() & kShardMask) != s) {
        return Status::InvalidArgument(
            "dictionary snapshot term hashes to the wrong shard (stale or "
            "corrupt snapshot): " + path);
      }
      parsed[s].push_back(std::move(term));
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("malformed dictionary snapshot: " + path);
  }

  uint64_t restored = 0;
  for (size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const rdf::Term& term : parsed[s]) {
      FindOrInsert(&shard, term, term.Hash());
    }
    restored += shard.terms.size();
  }
  return restored;
}

TermDictionary::TermDictionary()
    : epoch_(EpochCounter().fetch_add(1, std::memory_order_relaxed)) {}

template <typename Matches, typename Make>
rdf::TermId TermDictionary::FindOrInsert(Shard* shard, uint64_t hash,
                                         Matches matches, Make make) {
  const size_t slot = shard->index.Find(hash, [&](rdf::TermId id) {
    return matches(shard->terms[id >> 4]);
  });
  if (shard->index.id(slot) != rdf::kInvalidTermId) {
    return shard->index.id(slot);
  }
  rdf::TermId id = (static_cast<rdf::TermId>(shard->terms.size()) << 4) |
                   (hash & kShardMask);
  const rdf::Term& term = shard->terms.emplace_back(make());
  shard->hashes.push_back(HashTermContent(term));
  shard->bytes += TermBytes(term);
  shard->index.Insert(slot, hash, id);
  return id;
}

rdf::TermId TermDictionary::FindOrInsert(Shard* shard, const rdf::Term& term,
                                         uint64_t hash) {
  return FindOrInsert(
      shard, hash, [&](const rdf::Term& stored) { return stored == term; },
      [&] { return term; });
}

rdf::TermId TermDictionary::Intern(const rdf::Term& term) {
  const uint64_t hash = term.Hash();
  Shard& shard = shards_[hash & kShardMask];
  std::lock_guard<std::mutex> lock(shard.mu);
  return FindOrInsert(&shard, term, hash);
}

rdf::TermId TermDictionary::InternFields(rdf::TermKind kind,
                                         std::string_view lexical,
                                         std::string_view datatype,
                                         std::string_view lang) {
  const uint64_t hash = rdf::Term::HashFields(kind, lexical, datatype, lang);
  Shard& shard = shards_[hash & kShardMask];
  std::lock_guard<std::mutex> lock(shard.mu);
  return FindOrInsert(
      &shard, hash,
      [&](const rdf::Term& stored) {
        return stored.HasFields(kind, lexical, datatype, lang);
      },
      [&] { return rdf::Term::FromFields(kind, lexical, datatype, lang); });
}

void TermDictionary::InternBatch(const rdf::Term* const* terms, size_t n,
                                 rdf::TermId* out) {
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    if (terms[i] != nullptr) {
      hashes[i] = terms[i]->Hash();
    } else {
      out[i] = rdf::kInvalidTermId;
    }
  }
  std::vector<uint32_t> order;
  std::array<size_t, kShards + 1> begin{};
  GroupByShard<kShards>(
      n,
      [&](size_t i) {
        return terms[i] != nullptr ? hashes[i] & kShardMask : kShards;
      },
      &order, &begin);
  for (size_t s = 0; s < kShards; ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t k = begin[s]; k < begin[s + 1]; ++k) {
      if (k + kPrefetchDistance < begin[s + 1]) {
        shard.index.Prefetch(hashes[order[k + kPrefetchDistance]]);
      }
      const uint32_t i = order[k];
      out[i] = FindOrInsert(&shard, *terms[i], hashes[i]);
    }
  }
}

uint64_t TermDictionary::content_hash(rdf::TermId id) const {
  const Shard& shard = shards_[id & kShardMask];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.hashes[id >> 4];
}

rdf::TermId TermDictionary::Lookup(const rdf::Term& term) const {
  const uint64_t hash = term.Hash();
  const Shard& shard = shards_[hash & kShardMask];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.id(shard.index.Find(hash, [&](rdf::TermId id) {
    return shard.terms[id >> 4] == term;
  }));
}

const rdf::Term& TermDictionary::term(rdf::TermId id) const {
  const Shard& shard = shards_[id & kShardMask];
  // The lock covers the deque's block bookkeeping (a concurrent Intern
  // may grow it); the returned reference itself is stable because
  // elements are never moved or erased.
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.terms[id >> 4];
}

void TermDictionary::TermBatch(const rdf::TermId* ids, size_t n,
                               const rdf::Term** out) const {
  std::vector<uint32_t> order;
  std::array<size_t, kShards + 1> begin{};
  GroupByShard<kShards>(
      n,
      [&](size_t i) {
        return ids[i] != rdf::kInvalidTermId ? ids[i] & kShardMask : kShards;
      },
      &order, &begin);
  std::fill(out, out + n, nullptr);
  for (size_t s = 0; s < kShards; ++s) {
    if (begin[s] == begin[s + 1]) continue;
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t k = begin[s]; k < begin[s + 1]; ++k) {
      out[order[k]] = &shard.terms[ids[order[k]] >> 4];
    }
  }
}

size_t TermDictionary::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.terms.size();
  }
  return total;
}

void TermDictionary::AddEncodeBatch(double seconds, uint64_t cells) const {
  encode_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
  encode_cells_.fetch_add(cells, std::memory_order_relaxed);
}

void TermDictionary::AddDecodeBatch(double seconds, uint64_t cells) const {
  decode_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
  decode_cells_.fetch_add(cells, std::memory_order_relaxed);
}

std::atomic<rdf::TermId>* TermDictionary::TranslationMemo(uint64_t space,
                                                          size_t size,
                                                          size_t* slots) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  SpaceMemo& memo = space_memos_[space];
  if (memo.ids == nullptr) {
    memo.ids = std::make_unique<std::atomic<rdf::TermId>[]>(size);
    for (size_t i = 0; i < size; ++i) {
      memo.ids[i].store(rdf::kInvalidTermId, std::memory_order_relaxed);
    }
    memo.size = size;
  }
  *slots = memo.size;
  return memo.ids.get();
}

DictionaryStats TermDictionary::GetStats() const {
  DictionaryStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.terms += shard.terms.size();
    stats.bytes += shard.bytes + shard.index.MemoryUsageBytes();
  }
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (const auto& [space, memo] : space_memos_) {
      stats.bytes += memo.size * sizeof(rdf::TermId);
    }
  }
  stats.encode_terms = encode_cells_.load(std::memory_order_relaxed);
  stats.decode_terms = decode_cells_.load(std::memory_order_relaxed);
  stats.encode_seconds =
      static_cast<double>(encode_ns_.load(std::memory_order_relaxed)) / 1e9;
  stats.decode_seconds =
      static_cast<double>(decode_ns_.load(std::memory_order_relaxed)) / 1e9;
  return stats;
}

void TermDictionary::ExportMetrics(obs::MetricsSnapshot* snapshot,
                                   const std::string& subsystem) const {
  DictionaryStats stats = GetStats();
  const std::string prefix = "lusail_" + subsystem + "_dictionary_";
  snapshot->AddGauge(prefix + "terms",
                     "Distinct terms interned in the dictionary", {},
                     static_cast<double>(stats.terms));
  snapshot->AddGauge(prefix + "bytes",
                     "Approximate resident bytes of the dictionary", {},
                     static_cast<double>(stats.bytes));
  snapshot->AddCounter(prefix + "encode_cells_total",
                       "Cells encoded from terms to ids", {},
                       static_cast<double>(stats.encode_terms));
  snapshot->AddCounter(prefix + "decode_cells_total",
                       "Cells decoded from ids back to terms", {},
                       static_cast<double>(stats.decode_terms));
  snapshot->AddCounter(prefix + "encode_seconds_total",
                       "Wall time spent encoding terms to ids", {},
                       stats.encode_seconds);
  snapshot->AddCounter(prefix + "decode_seconds_total",
                       "Wall time spent decoding ids to terms", {},
                       stats.decode_seconds);
}

}  // namespace lusail::core
