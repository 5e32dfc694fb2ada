// ID-space execution properties: the TermDictionary (round trips,
// concurrent interning, cross-instance content hashes), the columnar
// IdTable's operators, the encode/decode boundary, the query finisher
// against the evaluator's own solution modifiers, and — end to end —
// row-identity of the transport ID path (responses parsed straight into
// the engine dictionary) against the string path and the union-graph
// oracle over a loopback LUBM federation, with and without the shared
// result cache.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_endpoint.h"
#include "cache/federation_cache.h"
#include "common/rng.h"
#include "core/dictionary.h"
#include "core/finisher.h"
#include "core/id_table.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/latency_model.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "shard/shard_map.h"
#include "shard/sharded_endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

std::vector<rdf::Term> TermZoo() {
  return {
      rdf::Term::Iri("http://example.org/plain"),
      rdf::Term::Iri("http://example.org/caf\xC3\xA9/r\xC3\xA9sum\xC3\xA9"),
      rdf::Term::Iri("http://example.org/\xE6\x97\xA5\xE6\x9C\xAC"),
      rdf::Term::Literal(""),
      rdf::Term::Literal("plain text"),
      rdf::Term::Literal("tab\there \"and\" newline\n"),
      rdf::Term::Literal("\xC3\xA9\xC3\xA8\xC3\xAA \xD0\xBC\xD0\xB8\xD1\x80"),
      rdf::Term::LangLiteral("hallo", "de"),
      rdf::Term::LangLiteral("hallo", "de-AT"),
      rdf::Term::TypedLiteral("42", std::string(rdf::kXsdInteger)),
      rdf::Term::TypedLiteral("42", "http://example.org/custom"),
      rdf::Term::BlankNode("b0"),
      rdf::Term::BlankNode("b1"),
      rdf::Term::Double(2.5),
  };
}

// ---------------------------------------------------------------------
// TermDictionary properties
// ---------------------------------------------------------------------

TEST(TermDictionaryTest, InternRoundTripsTermZooIncludingNonAscii) {
  core::TermDictionary dict;
  std::vector<rdf::Term> zoo = TermZoo();
  std::vector<rdf::TermId> ids;
  for (const rdf::Term& term : zoo) ids.push_back(dict.Intern(term));
  EXPECT_EQ(dict.size(), zoo.size());

  // Distinct terms get distinct ids; equal terms re-intern to the same.
  std::set<rdf::TermId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), zoo.size());
  for (size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(dict.Intern(zoo[i]), ids[i]);
    EXPECT_EQ(dict.Lookup(zoo[i]), ids[i]);
    EXPECT_EQ(dict.term(ids[i]), zoo[i]) << zoo[i].ToString();
  }
  EXPECT_EQ(dict.size(), zoo.size());
  EXPECT_EQ(dict.Lookup(rdf::Term::Iri("http://never/interned")),
            rdf::kInvalidTermId);
}

TEST(TermDictionaryTest, DistinguishesKindAndFieldBoundaries) {
  // Same lexical bytes in different term kinds or field splits must not
  // alias: ids, lookups, and content hashes all stay distinct.
  core::TermDictionary dict;
  std::vector<rdf::Term> lookalikes = {
      rdf::Term::Iri("x"),
      rdf::Term::Literal("x"),
      rdf::Term::BlankNode("x"),
      rdf::Term::LangLiteral("x", "en"),
      rdf::Term::TypedLiteral("x", "en"),
      rdf::Term::Literal("xen"),
  };
  std::set<rdf::TermId> ids;
  std::set<uint64_t> hashes;
  for (const rdf::Term& term : lookalikes) {
    rdf::TermId id = dict.Intern(term);
    ids.insert(id);
    hashes.insert(dict.content_hash(id));
  }
  EXPECT_EQ(ids.size(), lookalikes.size());
  EXPECT_EQ(hashes.size(), lookalikes.size());
}

TEST(TermDictionaryTest, ConcurrentInterningConverges) {
  // Many threads intern overlapping slices of one term universe; every
  // term must end with exactly one id, and reads (term / Lookup /
  // content_hash) racing the writes must stay coherent. Run under TSan
  // this is also the dictionary's data-race check.
  core::TermDictionary dict;
  constexpr int kThreads = 8;
  constexpr int kTerms = 400;
  auto term_of = [](int i) {
    return rdf::Term::Iri("http://example.org/concurrent/\xC3\xA9/" +
                          std::to_string(i));
  };
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  std::vector<std::vector<rdf::TermId>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      seen[t].assign(kTerms, rdf::kInvalidTermId);
      // Each thread walks the universe at a different stride so the
      // shards see interleaved first-interns and re-interns (strides
      // that share factors with kTerms simply skip some indices).
      for (int k = 0; k < kTerms; ++k) {
        int i = (k * (t + 1) + t) % kTerms;
        rdf::TermId id = dict.Intern(term_of(i));
        seen[t][i] = id;
        EXPECT_EQ(dict.term(id), term_of(i));
        EXPECT_NE(dict.content_hash(id), 0u);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    rdf::TermId id = dict.Lookup(term_of(i));
    ASSERT_NE(id, rdf::kInvalidTermId);
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][i] != rdf::kInvalidTermId) {
        EXPECT_EQ(seen[t][i], id);
      }
    }
  }
}

TEST(TermDictionaryTest, ContentHashesAgreeAcrossInstances) {
  // Two dictionaries interning the same terms in different orders assign
  // different ids but identical content hashes — the property VALUES
  // fingerprints rely on to stay valid keys in the engine-spanning
  // shared cache.
  core::TermDictionary first, second;
  std::vector<rdf::Term> zoo = TermZoo();
  std::vector<rdf::TermId> first_ids;
  for (const rdf::Term& term : zoo) first_ids.push_back(first.Intern(term));
  std::vector<rdf::TermId> second_ids(zoo.size());
  for (size_t i = zoo.size(); i-- > 0;) {
    second_ids[i] = second.Intern(zoo[i]);
  }
  EXPECT_NE(first.epoch(), second.epoch());
  for (size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(first.content_hash(first_ids[i]),
              second.content_hash(second_ids[i]))
        << zoo[i].ToString();
  }
}

TEST(TermDictionaryTest, InternBatchMatchesPerTermIntern) {
  // Two dictionaries with the same prior contents: one interns a seeded
  // batch through InternBatch, the other term by term in batch order.
  // Within a shard the batch keeps batch order, so ids must agree.
  std::vector<rdf::Term> existing = TermZoo();
  std::vector<rdf::Term> fresh;
  for (int i = 0; i < 200; ++i) {
    fresh.push_back(rdf::Term::Iri("http://example.org/batch/" +
                                   std::to_string(i)));
  }
  // Field-boundary pairs: equal bytes split differently across fields.
  fresh.push_back(rdf::Term::TypedLiteral("ab", "c"));
  fresh.push_back(rdf::Term::TypedLiteral("a", "bc"));
  fresh.push_back(rdf::Term::LangLiteral("ab", "c"));
  fresh.push_back(rdf::Term::LangLiteral("a", "bc"));
  fresh.push_back(rdf::Term::Literal("abc"));

  core::TermDictionary batched, single;
  for (const rdf::Term& term : existing) {
    ASSERT_EQ(batched.Intern(term), single.Intern(term));
  }
  Rng rng(15);
  std::vector<const rdf::Term*> batch;
  for (int i = 0; i < 1000; ++i) {
    uint64_t pick = rng.NextBelow(10);
    if (pick == 0) {
      batch.push_back(nullptr);  // Unbound cell.
    } else if (pick < 4) {
      batch.push_back(&existing[rng.NextBelow(existing.size())]);
    } else {
      // Drawn with replacement: most fresh terms recur in the batch.
      batch.push_back(&fresh[rng.NextBelow(fresh.size())]);
    }
  }
  std::vector<rdf::TermId> ids(batch.size());
  batched.InternBatch(batch.data(), batch.size(), ids.data());

  std::set<rdf::TermId> shards;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == nullptr) {
      EXPECT_EQ(ids[i], rdf::kInvalidTermId);
      continue;
    }
    EXPECT_EQ(ids[i], single.Intern(*batch[i])) << batch[i]->ToString();
    EXPECT_EQ(batched.term(ids[i]), *batch[i]);
    shards.insert(ids[i] & 15);
  }
  EXPECT_EQ(shards.size(), 16u);  // The batch spans every shard.
  EXPECT_EQ(batched.size(), single.size());

  // TermBatch resolves the same ids back, nulls for unbound cells.
  std::vector<const rdf::Term*> terms(ids.size());
  batched.TermBatch(ids.data(), ids.size(), terms.data());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == nullptr) {
      EXPECT_EQ(terms[i], nullptr);
    } else {
      ASSERT_NE(terms[i], nullptr);
      EXPECT_EQ(terms[i], &batched.term(ids[i]));
    }
  }
}

TEST(TermDictionaryTest, GrowthKeepsEveryTermFindable) {
  // 100k terms push every shard's index through many doublings.
  constexpr int kTerms = 100000;
  std::vector<rdf::Term> terms;
  terms.reserve(kTerms);
  for (int i = 0; i < kTerms; ++i) {
    terms.push_back(rdf::Term::Iri("http://example.org/grow/" +
                                   std::to_string(i)));
  }
  std::vector<const rdf::Term*> cells;
  for (const rdf::Term& term : terms) cells.push_back(&term);
  core::TermDictionary dict;
  std::vector<rdf::TermId> ids(kTerms);
  dict.InternBatch(cells.data(), kTerms / 2, ids.data());
  for (int i = kTerms / 2; i < kTerms; ++i) ids[i] = dict.Intern(terms[i]);
  ASSERT_EQ(dict.size(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    ASSERT_EQ(dict.Lookup(terms[i]), ids[i]) << i;
    ASSERT_EQ(dict.term(ids[i]), terms[i]);
  }
  // The bytes gauge charges each term once (payload plus one Term) and
  // the slot arrays: a content hash and 2-4 16-byte slots per term.
  size_t floor = 0;
  for (const rdf::Term& term : terms) {
    floor += term.lexical().size() + sizeof(rdf::Term);
  }
  const uint64_t bytes = dict.GetStats().bytes;
  EXPECT_GE(bytes, floor);
  EXPECT_LE(bytes, floor + kTerms * (sizeof(uint64_t) + 4 * 16));
}

TEST(TermDictionaryTest, ConcurrentInternBatchConverges) {
  // Four threads batch-intern overlapping windows of one term universe
  // (each window shares half its terms with the next); every term must
  // end with exactly one id. Under TSan this is the batch path's race
  // check.
  core::TermDictionary dict;
  constexpr int kThreads = 4;
  constexpr int kWindow = 2000;
  std::vector<rdf::Term> universe;
  for (int i = 0; i < kWindow * (kThreads + 1) / 2; ++i) {
    universe.push_back(rdf::Term::Iri("http://example.org/overlap/" +
                                      std::to_string(i)));
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  std::vector<std::vector<rdf::TermId>> seen(
      kThreads, std::vector<rdf::TermId>(kWindow));
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<const rdf::Term*> cells;
      for (int k = 0; k < kWindow; ++k) {
        cells.push_back(&universe[t * kWindow / 2 + k]);
      }
      while (!go.load(std::memory_order_acquire)) {
      }
      // Small batches interleave the threads' shard locks.
      for (int k = 0; k < kWindow; k += 100) {
        dict.InternBatch(cells.data() + k, 100, seen[t].data() + k);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(dict.size(), universe.size());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kWindow; ++k) {
      const rdf::Term& term = universe[t * kWindow / 2 + k];
      EXPECT_EQ(seen[t][k], dict.Lookup(term));
      EXPECT_EQ(dict.term(seen[t][k]), term);
    }
  }
}

TEST(FingerprintTest, StableAcrossDictionariesAndSensitiveToContent) {
  core::TermDictionary first, second;
  std::vector<rdf::Term> zoo = TermZoo();
  std::vector<rdf::TermId> first_ids, second_ids;
  for (const rdf::Term& term : zoo) first_ids.push_back(first.Intern(term));
  // Perturb second's id assignment with extra interns before the zoo.
  for (int i = 0; i < 100; ++i) {
    second.Intern(rdf::Term::Integer(i));
  }
  for (const rdf::Term& term : zoo) second_ids.push_back(second.Intern(term));
  ASSERT_NE(first_ids[0], second_ids[0]);  // Ids genuinely differ.

  std::string a = core::FingerprintIdBindings(
      "v", first, first_ids.data(), first_ids.size());
  std::string b = core::FingerprintIdBindings(
      "v", second, second_ids.data(), second_ids.size());
  EXPECT_EQ(a, b);

  // Different variable, block order, or block content all change the key.
  EXPECT_NE(core::FingerprintIdBindings("w", first, first_ids.data(),
                                        first_ids.size()),
            a);
  std::vector<rdf::TermId> reversed(first_ids.rbegin(), first_ids.rend());
  EXPECT_NE(core::FingerprintIdBindings("v", first, reversed.data(),
                                        reversed.size()),
            a);
  EXPECT_NE(core::FingerprintIdBindings("v", first, first_ids.data(),
                                        first_ids.size() - 1),
            a);
}

// ---------------------------------------------------------------------
// IdTable operators and the encode/decode boundary
// ---------------------------------------------------------------------

TEST(IdTableTest, LazyColumnsReadAsUnboundUntilNextMutation) {
  core::IdTable table;
  table.vars = {"a"};
  table.AppendRow({7});
  table.vars.push_back("b");  // No column yet.
  EXPECT_EQ(table.At(0, 1), rdf::kInvalidTermId);
  EXPECT_TRUE(table.Column(1).empty());
  table.AppendRow({8, 9});  // Mutation materializes the column, padded.
  EXPECT_EQ(table.At(0, 0), 7u);
  EXPECT_EQ(table.At(0, 1), rdf::kInvalidTermId);
  EXPECT_EQ(table.At(1, 1), 9u);
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(IdTableTest, SliceSelectAndUnionAlignment) {
  core::IdTable table({"x", "y"});
  for (rdf::TermId i = 0; i < 10; ++i) table.AppendRow({i, i + 100});

  core::IdTable window = table.Slice(3, 6);
  ASSERT_EQ(window.NumRows(), 3u);
  EXPECT_EQ(window.At(0, 0), 3u);
  EXPECT_EQ(window.At(2, 1), 105u);

  core::IdTable picked = table.SelectRows({9, 0, 9});
  ASSERT_EQ(picked.NumRows(), 3u);
  EXPECT_EQ(picked.At(0, 0), 9u);
  EXPECT_EQ(picked.At(1, 0), 0u);
  EXPECT_EQ(picked.At(2, 1), 109u);

  // Union aligns by name and pads missing vars unbound.
  core::IdTable other({"y", "z"});
  other.AppendRow({55, 66});
  core::AppendUnionIds(&table, other);
  ASSERT_EQ(table.NumRows(), 11u);
  EXPECT_EQ(table.At(10, 0), rdf::kInvalidTermId);  // x unbound.
  EXPECT_EQ(table.At(10, 1), 55u);
  ASSERT_EQ(table.vars.size(), 3u);
  EXPECT_EQ(table.vars[2], "z");
  EXPECT_EQ(table.At(10, 2), 66u);
  EXPECT_EQ(table.At(0, 2), rdf::kInvalidTermId);
}

TEST(IdTableTest, JoinAndProjectMatchSparqlSemantics) {
  core::IdTable left({"k", "a"});
  left.AppendRow({1, 10});
  left.AppendRow({2, 20});
  left.AppendRow({rdf::kInvalidTermId, 30});  // Unbound k joins anything.
  core::IdTable right({"k", "b"});
  right.AppendRow({2, 200});
  right.AppendRow({3, 300});

  core::IdTable inner = core::JoinIds(left, right, /*left_outer=*/false);
  ASSERT_EQ(inner.vars, (std::vector<std::string>{"k", "a", "b"}));
  // Row {2,20} matches {2,200}; unbound-k row matches both right rows
  // with the bound side's k surfacing in the shared column.
  EXPECT_EQ(inner.NumRows(), 3u);
  size_t bound_k = 0;
  for (size_t r = 0; r < inner.NumRows(); ++r) {
    bound_k += inner.At(r, 0) != rdf::kInvalidTermId;
  }
  EXPECT_EQ(bound_k, 3u);

  core::IdTable outer = core::JoinIds(left, right, /*left_outer=*/true);
  EXPECT_EQ(outer.NumRows(), 4u);  // {1,10} survives with b unbound.

  core::IdTable dedup = core::ProjectIds(inner, {"b"}, /*distinct=*/true);
  ASSERT_EQ(dedup.vars, (std::vector<std::string>{"b"}));
  EXPECT_EQ(dedup.NumRows(), 2u);  // 200 (twice) and 300 collapse.
}

TEST(IdTableTest, EncodeDecodeRoundTripsTheTermZoo) {
  sparql::ResultTable wire;
  wire.vars = {"a", "b"};
  std::vector<rdf::Term> zoo = TermZoo();
  for (size_t i = 0; i + 1 < zoo.size(); i += 2) {
    wire.rows.push_back({zoo[i], zoo[i + 1]});
  }
  wire.rows.push_back({std::nullopt, zoo[0]});
  wire.rows.push_back({std::nullopt, std::nullopt});

  core::TermDictionary dict;
  core::IdTable encoded = core::EncodeResultTable(wire, &dict);
  EXPECT_EQ(encoded.NumRows(), wire.rows.size());
  sparql::ResultTable decoded = core::DecodeIdTable(encoded, dict);
  ASSERT_EQ(decoded.rows.size(), wire.rows.size());
  EXPECT_EQ(decoded.vars, wire.vars);
  for (size_t r = 0; r < wire.rows.size(); ++r) {
    for (size_t c = 0; c < wire.vars.size(); ++c) {
      ASSERT_EQ(decoded.rows[r][c].has_value(), wire.rows[r][c].has_value());
      if (wire.rows[r][c].has_value()) {
        EXPECT_EQ(*decoded.rows[r][c], *wire.rows[r][c]);
      }
    }
  }
  // A var with no column yet decodes as an all-unbound column.
  encoded.vars.push_back("c");
  sparql::ResultTable widened = core::DecodeIdTable(encoded, dict);
  ASSERT_EQ(widened.rows.size(), wire.rows.size());
  for (size_t r = 0; r < wire.rows.size(); ++r) {
    ASSERT_EQ(widened.rows[r].size(), 3u);
    EXPECT_FALSE(widened.rows[r][2].has_value());
    EXPECT_EQ(widened.rows[r][0], decoded.rows[r][0]);
  }
  core::DictionaryStats stats = dict.GetStats();
  EXPECT_GT(stats.encode_terms, 0u);
  EXPECT_GT(stats.decode_terms, 0u);
}

// ---------------------------------------------------------------------
// Query finisher vs the evaluator's own solution modifiers
// ---------------------------------------------------------------------

/// Renders a table with its column names, rows in order.
std::vector<std::string> OrderedRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  std::string header;
  for (const std::string& v : table.vars) header += "?" + v + " ";
  rows.push_back(header);
  for (const auto& row : table.rows) {
    std::string line;
    for (const auto& cell : row) {
      line += (cell.has_value() ? cell->ToString() : "UNDEF") + " ";
    }
    rows.push_back(line);
  }
  return rows;
}

TEST(QueryFinisherTest, MatchesEvaluatorRowForRow) {
  // 20 subjects: <sN> <p> N%5 (ties), <sN> <q> <catN%3>, and <sN> <r> a
  // name for even N only (unbound under OPTIONAL). The finisher runs over
  // the evaluator's answer to the bare pattern; since the pattern is
  // enumerated in the same order, even tie order must match exactly.
  store::TripleStore store;
  for (int i = 0; i < 20; ++i) {
    rdf::Term s = rdf::Term::Iri("http://ex/s" + std::to_string(i));
    store.Add({s, rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i % 5)});
    store.Add({s, rdf::Term::Iri("http://ex/q"),
               rdf::Term::Iri("http://ex/cat" + std::to_string(i % 3))});
    if (i % 2 == 0) {
      store.Add({s, rdf::Term::Iri("http://ex/r"),
                 rdf::Term::Literal("n" + std::to_string(19 - i))});
    }
  }
  store.Freeze();
  sparql::Evaluator evaluator(&store);

  const std::string kPq =
      "WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?c . }";
  const std::string kOpt =
      "WHERE { ?s <http://ex/p> ?o . OPTIONAL { ?s <http://ex/r> ?n . } }";
  const std::vector<std::string> queries = {
      "SELECT ?s " + kPq + " ORDER BY DESC(?o) LIMIT 7",
      "SELECT ?s ?o " + kPq + " ORDER BY ?o LIMIT 4 OFFSET 3",
      "SELECT ?s ?c " + kPq + " ORDER BY ?c DESC(?o)",
      "SELECT ?s " + kPq + " ORDER BY ?o OFFSET 18",
      "SELECT ?s " + kPq + " ORDER BY ?o LIMIT 0",
      "SELECT DISTINCT ?c " + kPq + " ORDER BY ?o",
      "SELECT DISTINCT ?o " + kPq + " ORDER BY DESC(?o) LIMIT 2",
      "SELECT ?s ?n " + kOpt + " ORDER BY ?n LIMIT 12",
      "SELECT ?s ?o " + kPq + " LIMIT 3 OFFSET 5",
      "SELECT ?s " + kPq + " OFFSET 30",
      "SELECT * " + kOpt,
      "SELECT ?s ?missing " + kPq + " ORDER BY ?missing LIMIT 3",
      "SELECT (COUNT(*) AS ?k) " + kOpt,
      "SELECT (COUNT(?n) AS ?k) " + kOpt,
      "SELECT (COUNT(DISTINCT ?o) AS ?k) " + kPq,
      "ASK " + kPq,
      "ASK WHERE { ?s <http://ex/p> <http://ex/none> . }",
  };
  for (const std::string& text : queries) {
    auto query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    auto want = evaluator.Execute(*query);
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();

    sparql::Query bare;
    bare.select_all = true;
    bare.where = query->where;
    auto pattern = evaluator.Execute(bare);
    ASSERT_TRUE(pattern.ok()) << text << ": " << pattern.status().ToString();
    core::TermDictionary dict;
    core::IdTable finished = core::FinishQuery(
        *query, core::EncodeResultTable(*pattern, &dict), &dict);
    EXPECT_EQ(OrderedRows(core::DecodeIdTable(finished, dict)),
              OrderedRows(*want))
        << text;
  }
}

// ---------------------------------------------------------------------
// Loopback federation: ID path vs string path vs oracle
// ---------------------------------------------------------------------

std::multiset<std::string> RowBag(const sparql::ResultTable& table) {
  std::vector<size_t> order(table.vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::multiset<std::string> rows;
  for (const auto& row : table.rows) {
    std::string line;
    for (size_t i : order) {
      line += table.vars[i] + "=" +
              (row[i].has_value() ? row[i]->ToString() : "UNDEF") + "|";
    }
    rows.insert(line);
  }
  return rows;
}

class IdExecutionLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::LubmConfig config = workload::LubmConfig::Small();
    config.num_universities = 3;
    specs_ = workload::LubmGenerator(config).GenerateAll();
    for (const auto& spec : specs_) {
      auto store = std::make_unique<store::TripleStore>();
      for (const auto& triple : spec.triples) store->Add(triple);
      store->Freeze();
      auto endpoint = std::make_shared<net::SparqlEndpoint>(
          spec.id, std::move(store), net::LatencyModel::None());
      auto server = std::make_unique<rpc::HttpServer>(endpoint);
      ASSERT_TRUE(server->Start().ok());
      auto client = std::make_shared<rpc::HttpSparqlEndpoint>(
          spec.id, "127.0.0.1", server->port());
      clients_.push_back(client);
      remote_.Add(client);
      servers_.push_back(std::move(server));
    }
  }
  void TearDown() override {
    for (auto& server : servers_) server->Stop();
  }

  sparql::ResultTable Oracle(const std::string& text) {
    store::TripleStore store;
    for (const auto& spec : specs_) {
      for (const rdf::TermTriple& t : spec.triples) store.Add(t);
    }
    store.Freeze();
    sparql::Evaluator evaluator(&store);
    auto query = sparql::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto result = evaluator.Execute(*query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  std::vector<workload::EndpointSpec> specs_;
  fed::Federation remote_;
  std::vector<std::shared_ptr<rpc::HttpSparqlEndpoint>> clients_;
  std::vector<std::unique_ptr<rpc::HttpServer>> servers_;
};

TEST_F(IdExecutionLoopbackTest, IdPathIsRowIdenticalToStringPathAndOracle) {
  // String path: responses arrive as wire tables and are encoded at the
  // federator boundary.
  core::LusailEngine string_engine(&remote_);

  std::vector<std::pair<std::string, std::string>> queries =
      workload::LubmGenerator::BenchmarkQueries();
  queries.push_back({"Qa", workload::LubmGenerator::QueryQa()});

  std::map<std::string, std::multiset<std::string>> string_rows;
  for (const auto& [label, text] : queries) {
    auto result = string_engine.Execute(text);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    string_rows[label] = RowBag(result->table);
  }

  // ID path: the transport parses SRJ straight into the engine's
  // dictionary; no federator-side string rows exist until the final
  // projected window is decoded.
  core::LusailEngine id_engine(&remote_);
  for (auto& client : clients_) {
    client->set_parse_dictionary(id_engine.dictionary());
  }
  for (const auto& [label, text] : queries) {
    auto result = id_engine.Execute(text);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    auto parsed = sparql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    if (parsed->limit.has_value()) {
      // LIMIT picks an arbitrary subset; row counts must still agree.
      EXPECT_EQ(result->table.NumRows(), string_rows[label].size()) << label;
      continue;
    }
    EXPECT_EQ(RowBag(result->table), string_rows[label]) << label;
    EXPECT_EQ(RowBag(result->table), RowBag(Oracle(text))) << label;
  }
  // The fast path actually ran: the engine dictionary saw the terms the
  // transport interned while parsing responses.
  EXPECT_GT(id_engine.dictionary()->size(), 0u);
  for (auto& client : clients_) client->set_parse_dictionary(nullptr);
}

// ---------------------------------------------------------------------
// Shared result cache: ID-space entries on every transport
// ---------------------------------------------------------------------

/// Runs the LUBM query set with the shared result cache on: cold in
/// engine A, warm in a fresh engine B (whose dictionary differs from the
/// entries'), and warm again in A (whose dictionary minted the entries
/// when the transport parses into it). `attach` points the transport at
/// an engine before it runs. Every run must equal the oracle; the cold
/// run's rows are the reference for the LIMIT query, whose subset the
/// oracle does not fix. Any table moved out of the cache shows up as a
/// wrong answer in a later warm run.
void ExpectResultCacheMatchesOracle(
    fed::Federation* federation,
    const std::function<void(core::LusailEngine*)>& attach,
    const std::map<std::string, std::multiset<std::string>>& oracle) {
  cache::FederationCache cache;
  federation->set_query_cache(&cache);
  core::LusailOptions options;
  options.result_cache = true;
  core::LusailEngine first(federation, options);
  core::LusailEngine fresh(federation, options);
  std::map<std::string, std::multiset<std::string>> cold;
  int run = 0;
  for (core::LusailEngine* engine : {&first, &fresh, &first}) {
    attach(engine);
    for (const auto& [label, text] : workload::LubmGenerator::BenchmarkQueries()) {
      auto result = engine->Execute(text);
      ASSERT_TRUE(result.ok()) << label << " run " << run << ": "
                               << result.status().ToString();
      std::multiset<std::string> rows = RowBag(result->table);
      if (run == 0) cold[label] = rows;
      EXPECT_EQ(rows, cold[label]) << label << " run " << run;
      auto it = oracle.find(label);
      if (it != oracle.end()) {
        EXPECT_EQ(rows, it->second) << label << " run " << run;
      }
    }
    ++run;
  }
  EXPECT_GT(cache.ResultStats().hits, 0u);
  federation->set_query_cache(nullptr);
}

TEST_F(IdExecutionLoopbackTest, ResultCacheHitsMatchOracleOnEveryTransport) {
  std::map<std::string, std::multiset<std::string>> oracle;
  for (const auto& [label, text] : workload::LubmGenerator::BenchmarkQueries()) {
    auto parsed = sparql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    if (!parsed->limit.has_value()) oracle[label] = RowBag(Oracle(text));
  }
  auto unattached = [](core::LusailEngine*) {};

  {
    SCOPED_TRACE("in process");
    std::unique_ptr<fed::Federation> in_process =
        workload::BuildFederation(specs_, net::LatencyModel::None());
    ExpectResultCacheMatchesOracle(in_process.get(), unattached, oracle);
  }
  {
    // Responses parse into the running engine's dictionary: the fast
    // path, where the cache shares the very table ToIds would consume.
    SCOPED_TRACE("http, engine dictionary");
    ExpectResultCacheMatchesOracle(
        &remote_,
        [&](core::LusailEngine* engine) {
          for (auto& client : clients_) {
            client->set_parse_dictionary(engine->dictionary());
          }
        },
        oracle);
    for (auto& client : clients_) client->set_parse_dictionary(nullptr);
  }
  {
    SCOPED_TRACE("http, client dictionary");
    ExpectResultCacheMatchesOracle(&remote_, unattached, oracle);
  }

  // Every university as a 3-shard endpoint gathering into the engine's
  // dictionary.
  SCOPED_TRACE("3 shards");
  fed::Federation sharded;
  std::vector<std::shared_ptr<shard::ShardedEndpoint>> endpoints;
  shard::ShardMap map = shard::ShardMap::HashRing(3);
  for (const auto& spec : specs_) {
    std::vector<std::unique_ptr<store::TripleStore>> slices;
    for (size_t k = 0; k < map.NumShards(); ++k) {
      slices.push_back(std::make_unique<store::TripleStore>());
    }
    for (const auto& triple : spec.triples) {
      slices[map.ShardOfSubject(triple.subject)]->Add(triple);
    }
    std::vector<std::shared_ptr<net::Endpoint>> members;
    for (size_t k = 0; k < slices.size(); ++k) {
      slices[k]->Freeze();
      members.push_back(std::make_shared<net::SparqlEndpoint>(
          spec.id + "#" + std::to_string(k), std::move(slices[k]),
          net::LatencyModel::None()));
    }
    endpoints.push_back(std::make_shared<shard::ShardedEndpoint>(
        spec.id, map, std::move(members)));
    sharded.Add(endpoints.back());
  }
  ExpectResultCacheMatchesOracle(
      &sharded,
      [&](core::LusailEngine* engine) {
        for (auto& endpoint : endpoints) {
          endpoint->set_parse_dictionary(engine->dictionary());
        }
      },
      oracle);
}

// ---------------------------------------------------------------------
// Parse dictionary through decorator stacks
// ---------------------------------------------------------------------

TEST(ParseDictionaryForwardingTest,
     ReplicaClientsBehindDecoratorsParseIntoTheEngineDictionary) {
  // Two replicas of one endpoint, each an HTTP client of its own server,
  // behind ReplicaGroup <- FaultInjectingEndpoint <- CachedAskEndpoint.
  // One call on the outermost layer must reach both clients.
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 1;
  workload::LubmGenerator generator(config);
  std::vector<std::unique_ptr<rpc::HttpServer>> servers;
  std::vector<std::shared_ptr<net::Endpoint>> replicas;
  for (int r = 0; r < 2; ++r) {
    auto store = std::make_unique<store::TripleStore>();
    for (const rdf::TermTriple& t : generator.GenerateUniversity(0)) {
      store->Add(t);
    }
    store->Freeze();
    servers.push_back(std::make_unique<rpc::HttpServer>(
        std::make_shared<net::SparqlEndpoint>("U0", std::move(store),
                                              net::LatencyModel::None())));
    ASSERT_TRUE(servers.back()->Start().ok());
    replicas.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
        "U0", "127.0.0.1", servers.back()->port()));
  }
  auto group = std::make_shared<net::ReplicaGroup>("U0", replicas);
  auto faulty =
      std::make_shared<net::FaultInjectingEndpoint>(group, net::FaultProfile());
  cache::FederationCache cache;
  cache::CachedAskEndpoint outer(faulty, &cache);

  auto engine_dict = std::make_shared<core::TermDictionary>();
  outer.set_parse_dictionary(engine_dict);
  const std::string query = workload::LubmGenerator::Q1();
  Result<net::QueryResponse> through_stack = outer.Query(query);
  ASSERT_TRUE(through_stack.ok()) << through_stack.status().ToString();
  ASSERT_GT(through_stack->RowCount(), 0u);
  EXPECT_EQ(through_stack->ids_dict.get(), engine_dict.get());
  uint64_t streamed_rows = 0;
  Result<net::StreamSummary> streamed = outer.QueryStreaming(
      query, CancelToken(), net::StreamOptions{},
      [&](net::StreamBatch&& batch) {
        EXPECT_EQ(batch.ids_dict.get(), engine_dict.get());
        streamed_rows += batch.NumRows();
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed_rows, through_stack->RowCount());
  // Every replica's client got the dictionary, not only the one the
  // group ranks first.
  for (const auto& replica : replicas) {
    Result<net::QueryResponse> direct = replica->Query(query);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->ids_dict.get(), engine_dict.get());
  }

  // nullptr gives each client a private dictionary again.
  outer.set_parse_dictionary(nullptr);
  for (const auto& replica : replicas) {
    Result<net::QueryResponse> direct = replica->Query(query);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_NE(direct->ids_dict.get(), engine_dict.get());
  }
  for (auto& server : servers) server->Stop();
}

// ---------------------------------------------------------------------
// Dictionary snapshots: SaveToDisk / LoadFromDisk
// ---------------------------------------------------------------------

std::string DictSnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "lusail_" + name + ".dict";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(DictionarySnapshotTest, RoundTripReproducesIdsAndContentHashes) {
  const std::string path = DictSnapshotPath("roundtrip");
  core::TermDictionary original;
  std::vector<rdf::Term> zoo = TermZoo();
  std::vector<rdf::TermId> ids;
  for (const rdf::Term& term : zoo) ids.push_back(original.Intern(term));
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  core::TermDictionary restored;
  auto loaded = restored.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, zoo.size());
  EXPECT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < zoo.size(); ++i) {
    // Identical TermId for every term — id-derived state persisted
    // alongside the dictionary stays meaningful after the restart.
    EXPECT_EQ(restored.Lookup(zoo[i]), ids[i]) << zoo[i].ToString();
    EXPECT_EQ(restored.term(ids[i]), zoo[i]);
    EXPECT_EQ(restored.content_hash(ids[i]), original.content_hash(ids[i]));
  }
  std::remove(path.c_str());
}

TEST(DictionarySnapshotTest, LoadIntoNonEmptyDictionaryIsRejected) {
  const std::string path = DictSnapshotPath("nonempty");
  core::TermDictionary original;
  original.Intern(rdf::Term::Iri("http://ex/a"));
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  core::TermDictionary busy;
  busy.Intern(rdf::Term::Iri("http://ex/b"));
  auto loaded = busy.LoadFromDisk(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(busy.size(), 1u);  // Untouched.
  std::remove(path.c_str());
}

TEST(DictionarySnapshotTest, MissingSnapshotIsNotFound) {
  core::TermDictionary dict;
  auto loaded = dict.LoadFromDisk(DictSnapshotPath("does_not_exist"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DictionarySnapshotTest, CorruptSnapshotIsRejectedWithoutMutation) {
  const std::string path = DictSnapshotPath("corrupt");
  core::TermDictionary original;
  for (const rdf::Term& term : TermZoo()) original.Intern(term);
  ASSERT_TRUE(original.SaveToDisk(path).ok());

  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] ^= 0x5a;  // Flip bits mid-body.
  WriteFileBytes(path, bytes);

  core::TermDictionary restored;
  ASSERT_FALSE(restored.LoadFromDisk(path).ok());
  EXPECT_EQ(restored.size(), 0u);
  std::remove(path.c_str());
}

TEST(DictionarySnapshotTest, VersionOneSnapshotIsRejectedAsUnsupported) {
  // A well-formed version-1 snapshot (valid checksum) whose shard
  // placement came from an older term hash: it must be refused for its
  // version, not reported as corrupt, and the dictionary left untouched.
  const rdf::Term term = rdf::Term::Iri("http://ex/v1");
  const uint64_t stale_shard = ((term.Hash() & 15) + 1) & 15;
  std::string bytes = "LUSDICTS";
  auto append = [&bytes](uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  append(1, 4);   // version
  append(16, 8);  // shard count
  for (uint64_t s = 0; s < 16; ++s) {
    append(s == stale_shard ? 1 : 0, 8);
    if (s != stale_shard) continue;
    bytes.push_back(static_cast<char>(term.kind()));
    append(term.lexical().size(), 8);
    bytes += term.lexical();
    append(0, 8);  // datatype
    append(0, 8);  // lang
  }
  uint64_t checksum = 14695981039346656037ull;  // FNV-1a 64
  for (char c : bytes) {
    checksum = (checksum ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  append(checksum, 8);
  const std::string path = DictSnapshotPath("version1");
  WriteFileBytes(path, bytes);

  core::TermDictionary dict;
  auto loaded = dict.LoadFromDisk(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unsupported dictionary snapshot "
                                           "version 1"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.Lookup(term), rdf::kInvalidTermId);
  std::remove(path.c_str());
}

TEST(DictionarySnapshotTest, TruncatedAndBadMagicSnapshotsAreRejected) {
  const std::string path = DictSnapshotPath("truncated");
  core::TermDictionary original;
  for (const rdf::Term& term : TermZoo()) original.Intern(term);
  ASSERT_TRUE(original.SaveToDisk(path).ok());
  std::string bytes = ReadFileBytes(path);

  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  core::TermDictionary after_truncation;
  ASSERT_FALSE(after_truncation.LoadFromDisk(path).ok());
  EXPECT_EQ(after_truncation.size(), 0u);

  std::string wrong_magic = bytes;
  wrong_magic[0] ^= 0xff;
  WriteFileBytes(path, wrong_magic);
  core::TermDictionary after_magic;
  ASSERT_FALSE(after_magic.LoadFromDisk(path).ok());
  EXPECT_EQ(after_magic.size(), 0u);
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------
// Term blocks: snapshots, answer lifetime and the bytes gauge
// ---------------------------------------------------------------------

TEST(TermBlockSnapshotTest, LoadsVersion2BytesWrittenBeforeTermBlocks) {
  // SaveToDisk output of a dictionary holding <http://example.org/a>,
  // "chat"@fr and "a\0b" (in that order), written when a term was a kind
  // plus three std::strings. Shard placement follows Term::Hash, so this
  // loads only while the hash is unchanged.
  static const char kBytes[] =
      "\x4c\x55\x53\x44\x49\x43\x54\x53\x02\x00\x00\x00\x10\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x00\x00\x00\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00\x61\x00\x62"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x14\x00\x00\x00\x00\x00\x00\x00\x68\x74\x74\x70\x3a\x2f\x2f"
      "\x65\x78\x61\x6d\x70\x6c\x65\x2e\x6f\x72\x67\x2f\x61\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x04\x00"
      "\x00\x00\x00\x00\x00\x00\x63\x68\x61\x74\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x66\x72\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc1\x20\xd2\x97"
      "\xdd\xab\xce\xab";
  const std::string path = DictSnapshotPath("version2_golden");
  WriteFileBytes(path, std::string(kBytes, sizeof(kBytes) - 1));
  core::TermDictionary dict;
  auto loaded = dict.LoadFromDisk(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3u);
  const rdf::Term iri = rdf::Term::Iri("http://example.org/a");
  const rdf::Term lang = rdf::Term::LangLiteral("chat", "fr");
  const rdf::Term nul = rdf::Term::Literal(std::string("a\0b", 3));
  EXPECT_EQ(dict.Lookup(iri), 5u);
  EXPECT_EQ(dict.Lookup(lang), 7u);
  EXPECT_EQ(dict.Lookup(nul), 3u);
  EXPECT_EQ(dict.content_hash(5), 0x47c0c33f00a75647ULL);
  EXPECT_EQ(dict.content_hash(7), 0xb4288b1706aeef40ULL);
  EXPECT_EQ(dict.content_hash(3), 0x99d7f840cf9895b3ULL);
  EXPECT_EQ(dict.term(3).lexical(), std::string_view("a\0b", 3));

  // Saving the same terms again writes the same bytes.
  core::TermDictionary rebuilt;
  rebuilt.Intern(iri);
  rebuilt.Intern(lang);
  rebuilt.Intern(nul);
  const std::string again = DictSnapshotPath("version2_again");
  ASSERT_TRUE(rebuilt.SaveToDisk(again).ok());
  EXPECT_EQ(ReadFileBytes(again), std::string(kBytes, sizeof(kBytes) - 1));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(TermBlockLifetimeTest, AnswerCellsOutliveEngineFederationAndStores) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  auto engine = std::make_unique<core::LusailEngine>(federation.get());
  Result<fed::FederatedResult> result =
      engine->Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.NumRows(), 3u);
  std::vector<std::string> expected;
  for (const auto& row : result->table.rows) {
    for (const auto& cell : row) {
      expected.push_back(cell.has_value() ? cell->ToString() : "UNDEF");
    }
  }
  // The cells share blocks with the engine dictionary and the stores;
  // dropping every other owner must leave them readable.
  engine.reset();
  federation.reset();
  std::vector<std::string> after;
  for (const auto& row : result->table.rows) {
    for (const auto& cell : row) {
      after.push_back(cell.has_value() ? cell->ToString() : "UNDEF");
    }
  }
  EXPECT_EQ(after, expected);
}

TEST(TermBlockGaugeTest, EngineDictionaryBytesGrowByTheBlockPerNewTerm) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  ASSERT_TRUE(engine.Execute(workload::Figure2QueryQa()).ok());
  auto bytes = [&engine] {
    obs::MetricsSnapshot snapshot;
    engine.ExportMetrics(&snapshot);
    const obs::MetricSample* sample =
        snapshot.Find("lusail_engine_dictionary_bytes", {});
    return sample == nullptr ? -1.0 : sample->value;
  };
  const double before = bytes();
  ASSERT_GT(before, 0.0);
  constexpr int kTerms = 2000;
  size_t block_bytes = 0;
  for (int i = 0; i < kTerms; ++i) {
    char lexical[32];
    std::snprintf(lexical, sizeof(lexical), "http://ex/t%06d", i);
    const rdf::Term term = rdf::Term::Iri(lexical);
    block_bytes += term.BlockBytes();
    engine.dictionary()->Intern(term);
  }
  // Each new term costs its block plus its handle and content hash in the
  // shard deques; the index adds at most a few slots per term. Charging
  // the old three-string layout (104 bytes of Term plus the bytes) would
  // overshoot the upper bound.
  const double per_term = (bytes() - before) / kTerms;
  const double block = static_cast<double>(block_bytes) / kTerms;
  EXPECT_GE(per_term, block + sizeof(rdf::Term) + sizeof(uint64_t));
  EXPECT_LE(per_term, block + sizeof(rdf::Term) + sizeof(uint64_t) + 64);
}

TEST(TermDictionaryTest, InternFieldsMatchesInternWithoutBuildingHits) {
  core::TermDictionary by_term;
  core::TermDictionary by_fields;
  for (int pass = 0; pass < 2; ++pass) {
    for (const rdf::Term& t : TermZoo()) {
      const rdf::TermId id = by_term.Intern(t);
      EXPECT_EQ(
          by_fields.InternFields(t.kind(), t.lexical(), t.datatype(), t.lang()),
          id)
          << t.ToString();
      EXPECT_EQ(by_fields.term(id), t);
    }
    EXPECT_EQ(by_fields.size(), by_term.size());
    EXPECT_EQ(by_fields.GetStats().bytes, by_term.GetStats().bytes);
  }
}

}  // namespace
}  // namespace lusail
