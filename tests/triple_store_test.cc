#include "store/triple_store.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "rdf/term.h"

namespace lusail::store {
namespace {

using rdf::Term;
using rdf::TermId;
using rdf::TermTriple;

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small graph: two people, two predicates, shared object.
    Load({{"http://alice", "http://knows", "http://bob"},
          {"http://alice", "http://knows", "http://carol"},
          {"http://bob", "http://knows", "http://carol"},
          {"http://alice", "http://age", "30"},
          {"http://bob", "http://age", "30"}});
  }

  void Load(const std::vector<std::array<std::string, 3>>& rows) {
    for (const auto& row : rows) {
      Term object = row[2][0] == 'h' ? Term::Iri(row[2])
                                     : Term::Literal(row[2]);
      store_.Add(TermTriple{Term::Iri(row[0]), Term::Iri(row[1]), object});
    }
    store_.Freeze();
  }

  TermId Id(const Term& t) const { return store_.dict().Lookup(t); }

  TripleStore store_;
};

TEST_F(TripleStoreTest, SizeAfterFreeze) {
  EXPECT_TRUE(store_.frozen());
  EXPECT_EQ(store_.size(), 5u);
}

TEST_F(TripleStoreTest, AllBoundCombinationsMatch) {
  TermId alice = Id(Term::Iri("http://alice"));
  TermId knows = Id(Term::Iri("http://knows"));
  TermId carol = Id(Term::Iri("http://carol"));
  // (s, p, o) fully bound.
  EXPECT_EQ(store_.Count(alice, knows, carol), 1u);
  // (s, p, ?)
  EXPECT_EQ(store_.Count(alice, knows, std::nullopt), 2u);
  // (s, ?, ?)
  EXPECT_EQ(store_.Count(alice, std::nullopt, std::nullopt), 3u);
  // (?, p, ?)
  EXPECT_EQ(store_.Count(std::nullopt, knows, std::nullopt), 3u);
  // (?, p, o)
  EXPECT_EQ(store_.Count(std::nullopt, knows, carol), 2u);
  // (?, ?, o)
  EXPECT_EQ(store_.Count(std::nullopt, std::nullopt, carol), 2u);
  // (s, ?, o)
  EXPECT_EQ(store_.Count(alice, std::nullopt, carol), 1u);
  // (?, ?, ?)
  EXPECT_EQ(store_.Count(std::nullopt, std::nullopt, std::nullopt), 5u);
}

TEST_F(TripleStoreTest, MatchReturnsActualTriples) {
  TermId alice = Id(Term::Iri("http://alice"));
  auto span = store_.Match(alice, std::nullopt, std::nullopt);
  ASSERT_EQ(span.size(), 3u);
  for (const EncodedTriple& t : span) EXPECT_EQ(t.s, alice);
}

TEST_F(TripleStoreTest, AskFastPath) {
  TermId alice = Id(Term::Iri("http://alice"));
  TermId age = Id(Term::Iri("http://age"));
  EXPECT_TRUE(store_.Ask(alice, age, std::nullopt));
  EXPECT_FALSE(store_.Ask(age, alice, std::nullopt));
}

TEST_F(TripleStoreTest, UnknownIdsMatchNothing) {
  // Ids beyond the dictionary must produce empty ranges, not crashes
  // (the evaluator feeds foreign VALUES bindings through this path).
  TermId bogus = store_.dict().size() + 100;
  EXPECT_EQ(store_.Count(bogus, std::nullopt, std::nullopt), 0u);
  EXPECT_EQ(store_.Count(std::nullopt, bogus, std::nullopt), 0u);
  EXPECT_EQ(store_.Count(std::nullopt, std::nullopt, bogus), 0u);
}

TEST_F(TripleStoreTest, DirectoryMatchEqualsBruteForce) {
  // Random triples: subjects s0..s39, predicate-only terms p0..p7, and
  // objects that are either subjects s0..s19 or literals, so s20..s39 are
  // never objects. Draws repeat triples; every tenth is added twice.
  Rng rng(20170514);
  auto iri = [](const char* kind, uint64_t i) {
    return Term::Iri(std::string("http://") + kind + std::to_string(i));
  };
  TripleStore store;
  std::vector<TermTriple> added;
  for (int i = 0; i < 2000; ++i) {
    uint64_t o = rng.NextBelow(40);
    added.push_back(TermTriple{
        iri("s", rng.NextBelow(40)), iri("p", rng.NextBelow(8)),
        o < 20 ? iri("s", o) : Term::Literal("v" + std::to_string(o))});
    if (i % 10 == 0) added.push_back(added.back());
  }
  for (const TermTriple& t : added) store.Add(t);
  store.Freeze();

  std::set<std::tuple<TermId, TermId, TermId>> distinct;
  for (const TermTriple& t : added) {
    distinct.emplace(store.dict().Lookup(t.subject),
                     store.dict().Lookup(t.predicate),
                     store.dict().Lookup(t.object));
  }
  ASSERT_LT(distinct.size(), added.size());
  ASSERT_EQ(store.size(), distinct.size());

  std::vector<TermId> ids = {rdf::kInvalidTermId};
  for (TermId id = 0; id < store.dict().size() + 2; ++id) ids.push_back(id);

  for (int mask = 0; mask < 8; ++mask) {
    const bool bs = mask & 4, bp = mask & 2, bo = mask & 1;
    // The index Match documents for this combination, as a sort key.
    auto order = [&](const EncodedTriple& t) {
      if (bs && !bp && bo) return std::array<TermId, 3>{t.o, t.s, t.p};
      if (bs || (!bp && !bo)) return std::array<TermId, 3>{t.s, t.p, t.o};
      if (bp) return std::array<TermId, 3>{t.p, t.o, t.s};
      return std::array<TermId, 3>{t.o, t.s, t.p};
    };
    // Brute force: every distinct triple in index order, grouped by its
    // bound components (unbound ones keyed as 0).
    std::vector<EncodedTriple> sorted;
    for (const auto& [s, p, o] : distinct) sorted.push_back({s, p, o});
    std::sort(sorted.begin(), sorted.end(),
              [&](const EncodedTriple& a, const EncodedTriple& b) {
                return order(a) < order(b);
              });
    std::map<std::array<TermId, 3>, std::vector<EncodedTriple>> expected;
    for (const EncodedTriple& t : sorted) {
      expected[{bs ? t.s : 0, bp ? t.p : 0, bo ? t.o : 0}].push_back(t);
    }
    const std::vector<TermId> wildcard = {0};
    for (TermId s : bs ? ids : wildcard) {
      for (TermId p : bp ? ids : wildcard) {
        for (TermId o : bo ? ids : wildcard) {
          auto got = store.Match(bs ? std::optional(s) : std::nullopt,
                                 bp ? std::optional(p) : std::nullopt,
                                 bo ? std::optional(o) : std::nullopt);
          auto it = expected.find({s, p, o});
          std::vector<EncodedTriple> want;
          if (it != expected.end()) want = it->second;
          ASSERT_EQ(std::vector<EncodedTriple>(got.begin(), got.end()), want)
              << "mask " << mask << " ids " << s << " " << p << " " << o;
        }
      }
    }
  }

  // An empty frozen store matches nothing under any combination.
  TripleStore empty;
  empty.Freeze();
  for (int mask = 0; mask < 8; ++mask) {
    for (TermId id : {TermId{0}, TermId{1}, rdf::kInvalidTermId}) {
      EXPECT_TRUE(empty
                      .Match(mask & 4 ? std::optional(id) : std::nullopt,
                             mask & 2 ? std::optional(id) : std::nullopt,
                             mask & 1 ? std::optional(id) : std::nullopt)
                      .empty());
    }
  }
}

TEST_F(TripleStoreTest, PredicateStats) {
  TermId knows = Id(Term::Iri("http://knows"));
  PredicateStats stats = store_.StatsFor(knows);
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.distinct_subjects, 2u);  // alice, bob.
  EXPECT_EQ(stats.distinct_objects, 2u);   // bob, carol.
  EXPECT_EQ(store_.StatsFor(99999).triples, 0u);
}

TEST_F(TripleStoreTest, PredicatesListsAll) {
  EXPECT_EQ(store_.Predicates().size(), 2u);
}

TEST(TripleStoreDedupTest, DuplicateTriplesCollapse) {
  TripleStore store;
  TermTriple t{Term::Iri("http://s"), Term::Iri("http://p"),
               Term::Iri("http://o")};
  store.Add(t);
  store.Add(t);
  store.Add(t);
  store.Freeze();
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreDedupTest, EmptyStoreWorks) {
  TripleStore store;
  store.Freeze();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Count(std::nullopt, std::nullopt, std::nullopt), 0u);
  EXPECT_TRUE(store.Predicates().empty());
}

TEST(TripleStoreLoadTest, LoadNTriples) {
  TripleStore store;
  ASSERT_TRUE(store
                  .LoadNTriples("<http://s> <http://p> \"v\" .\n"
                                "<http://s> <http://p> \"w\" .\n")
                  .ok());
  store.Freeze();
  EXPECT_EQ(store.size(), 2u);
}

TEST(TripleStoreLoadTest, LoadRejectsGarbage) {
  TripleStore store;
  EXPECT_FALSE(store.LoadNTriples("not ntriples at all").ok());
}

TEST(TripleStoreScaleTest, LargeStoreCountsExactly) {
  TripleStore store;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    store.Add(TermTriple{
        Term::Iri("http://s" + std::to_string(i % 100)),
        Term::Iri("http://p" + std::to_string(i % 7)),
        Term::Integer(i)});
  }
  store.Freeze();
  EXPECT_EQ(store.size(), static_cast<size_t>(n));
  uint64_t total = 0;
  for (rdf::TermId p : store.Predicates()) {
    total += store.StatsFor(p).triples;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(n));
  EXPECT_GT(store.MemoryUsageBytes(), static_cast<size_t>(n) * 24);
}

}  // namespace
}  // namespace lusail::store
