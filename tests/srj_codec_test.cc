// Tests for the SRJ codec (rpc/results_json): the writer reproduces
// captured bytes of the tree-based writer it replaced on a term zoo, from
// string rows and from ids alike; the scanner behind ParseSrjToIds and
// SrjChunkDecoder agrees with itself across every slicing and with a
// reference decoder built on obs::JsonValue over seeded byte mutations;
// and deeply nested network input is rejected instead of overflowing the
// stack (SRJ bodies, JSON error bodies, trace payloads).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "net/sparql_endpoint.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "rpc/http_sparql_endpoint.h"
#include "rpc/results_json.h"
#include "store/triple_store.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------

// Captured from the obs::JsonValue-tree writer (ResultTableToSrjJson +
// Serialize) that the direct writer replaced, on GoldenZoo() and the
// tables named after each constant.
constexpr char kZooSrj[] =
    "{\"head\":{\"vars\":[\"s\",\"o\",\"q\\\"v\"]},\"results\":{\"bindi"
    "ngs\":[{\"s\":{\"type\":\"uri\",\"value\":\"http://ex/q\\\"uote\\\\"
    "back\"},\"o\":{\"type\":\"literal\",\"value\":\"ctl:\\u0001\\u0002"
    "\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n\\u000b\\f\\r\\u000e\\"
    "u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u00"
    "18\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f:end\"},\"q\\\""
    "v\":{\"type\":\"bnode\",\"value\":\"b0\"}},{\"s\":{\"type\":\"uri\""
    ",\"value\":\"http://ex/\303\251t\303\251\"},\"o\":{\"type\":\"lite"
    "ral\",\"value\":\"\346\227\245\346\234\254 \360\237\230\200\",\"xm"
    "l:lang\":\"ja\"},\"q\\\"v\":{\"type\":\"literal\",\"value\":\"42\""
    ",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}},{\"o\""
    ":{\"type\":\"literal\",\"value\":\"\"}},{},{\"s\":{\"type\":\"lite"
    "ral\",\"value\":\"\",\"datatype\":\"http://ex/dt\\\"x\"},\"o\":{\""
    "type\":\"literal\",\"value\":\"\",\"xml:lang\":\"en-GB\"},\"q\\\"v"
    "\":{\"type\":\"literal\",\"value\":\"tab\\there / slash \177 del\""
    "}}]}}";
constexpr char kEmptySelectSrj[] =
    "{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":[]}}";
constexpr char kAskTrueSrj[] = "{\"head\":{},\"boolean\":true}";
constexpr char kAskFalseSrj[] = "{\"head\":{},\"boolean\":false}";
constexpr char kZooPrefix[] =
    "{\"head\":{\"vars\":[\"s\",\"o\",\"q\\\"v\"]},\"results\":{\"bindi"
    "ngs\":[";
constexpr char kEmptyVarsPrefix[] =
    "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[";
constexpr char kZeroVarBindings[] = "{},{}";

/// Quotes, backslashes, every control byte 0x01-0x1f, non-ASCII UTF-8
/// (2-, 3- and 4-byte sequences), empty lexical forms, lang and datatype
/// annotations, unbound cells and an all-unbound row.
sparql::ResultTable GoldenZoo() {
  std::string controls;
  for (int c = 1; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  sparql::ResultTable t;
  t.vars = {"s", "o", "q\"v"};
  t.rows.push_back({rdf::Term::Iri("http://ex/q\"uote\\back"),
                    rdf::Term::Literal("ctl:" + controls + ":end"),
                    rdf::Term::BlankNode("b0")});
  t.rows.push_back(
      {rdf::Term::Iri("http://ex/\xC3\xA9t\xC3\xA9"),
       rdf::Term::LangLiteral("\xE6\x97\xA5\xE6\x9C\xAC \xF0\x9F\x98\x80",
                              "ja"),
       rdf::Term::TypedLiteral("42", std::string(rdf::kXsdInteger))});
  t.rows.push_back({std::nullopt, rdf::Term::Literal(""), std::nullopt});
  t.rows.push_back({std::nullopt, std::nullopt, std::nullopt});
  t.rows.push_back({rdf::Term::TypedLiteral("", "http://ex/dt\"x"),
                    rdf::Term::LangLiteral("", "en-GB"),
                    rdf::Term::Literal("tab\there / slash \x7f del")});
  return t;
}

sparql::ResultTable AskTable(bool holds) {
  sparql::ResultTable t;
  if (holds) t.rows.push_back({});
  return t;
}

TEST(SrjGoldenTest, StringRowsReproduceCapturedBytes) {
  EXPECT_EQ(rpc::ResultTableToSrj(GoldenZoo()), kZooSrj);
  sparql::ResultTable empty;
  empty.vars = {"x", "y"};
  EXPECT_EQ(rpc::ResultTableToSrj(empty), kEmptySelectSrj);
  EXPECT_EQ(rpc::ResultTableToSrj(AskTable(true)), kAskTrueSrj);
  EXPECT_EQ(rpc::ResultTableToSrj(AskTable(false)), kAskFalseSrj);
}

TEST(SrjGoldenTest, IdsReproduceCapturedBytes) {
  core::TermDictionary dict;
  const sparql::ResultTable zoo = GoldenZoo();
  EXPECT_EQ(rpc::IdTableToSrj(core::EncodeResultTable(zoo, &dict), dict),
            kZooSrj);
  core::IdTable empty({"x", "y"});
  EXPECT_EQ(rpc::IdTableToSrj(empty, dict), kEmptySelectSrj);
  core::IdTable yes;
  yes.AddEmptyRows(1);
  EXPECT_EQ(rpc::IdTableToSrj(yes, dict), kAskTrueSrj);
  EXPECT_EQ(rpc::IdTableToSrj(core::IdTable(), dict), kAskFalseSrj);
}

TEST(SrjGoldenTest, StreamedPiecesReproduceCapturedBytes) {
  const sparql::ResultTable zoo = GoldenZoo();
  EXPECT_EQ(rpc::SrjStreamPrefix(zoo.vars), kZooPrefix);
  EXPECT_EQ(rpc::SrjStreamPrefix({}), kEmptyVarsPrefix);

  // Id batches of every size, cut anywhere, concatenate to the document.
  core::TermDictionary dict;
  const core::IdTable ids = core::EncodeResultTable(zoo, &dict);
  for (size_t cut = 0; cut <= ids.NumRows(); ++cut) {
    std::string doc = rpc::SrjStreamPrefix(ids.vars);
    bool first = true;
    rpc::AppendSrjBindings(ids.Slice(0, cut), dict, &first, &doc);
    rpc::AppendSrjBindings(ids.Slice(cut, ids.NumRows()), dict, &first,
                           &doc);
    doc += rpc::SrjStreamSuffix();
    EXPECT_EQ(doc, kZooSrj) << "cut at row " << cut;
  }

  // A zero-variable batch writes one empty binding per row.
  bool first = true;
  std::string bindings = rpc::SrjStreamBindings(AskTable(true), &first);
  bindings += rpc::SrjStreamBindings(AskTable(true), &first);
  EXPECT_EQ(bindings, kZeroVarBindings);
  core::IdTable two_rows;
  two_rows.AddEmptyRows(2);
  std::string id_bindings;
  first = true;
  rpc::AppendSrjBindings(two_rows, dict, &first, &id_bindings);
  EXPECT_EQ(id_bindings, kZeroVarBindings);
}

TEST(SrjGoldenTest, IdWriterMatchesStringWriterOnLubmAnswers) {
  // A real endpoint answer (store ids plus the store's term source) is
  // written byte-identically to the decoded table, and reads back to it
  // through both drivers.
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 1;
  workload::LubmGenerator generator(config);
  auto store = std::make_unique<store::TripleStore>();
  for (const rdf::TermTriple& t : generator.GenerateUniversity(0)) {
    store->Add(t);
  }
  store->Freeze();
  net::SparqlEndpoint endpoint("ep", std::move(store),
                               net::LatencyModel::None());
  for (const std::string& query :
       {workload::LubmGenerator::Q1(), workload::LubmGenerator::QueryQa(),
        std::string("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 700")}) {
    auto answer = endpoint.Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_GT(answer->ids->NumRows(), 0u) << query;
    const sparql::ResultTable table =
        core::DecodeIdTable(*answer->ids, *answer->ids_dict);
    const std::string srj =
        rpc::IdTableToSrj(*answer->ids, *answer->ids_dict);
    EXPECT_EQ(srj, rpc::ResultTableToSrj(table)) << query;

    Result<sparql::ResultTable> parsed = rpc::ParseSrj(srj);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->rows, table.rows) << query;
    auto dict = std::make_shared<core::TermDictionary>();
    rpc::SrjChunkDecoder decoder(dict);
    sparql::ResultTable streamed;
    for (size_t pos = 0; pos < srj.size(); pos += 997) {
      ASSERT_TRUE(decoder.Feed(std::string_view(srj).substr(pos, 997)).ok());
      for (auto& row : core::DecodeIdTable(decoder.TakeIds(), *dict).rows) {
        streamed.rows.push_back(std::move(row));
      }
    }
    ASSERT_TRUE(decoder.Finish().ok());
    EXPECT_EQ(streamed.rows, table.rows) << query;
  }
}

TEST(SrjGoldenTest, ZooRoundTripsThroughBothDrivers) {
  const sparql::ResultTable zoo = GoldenZoo();
  Result<sparql::ResultTable> parsed = rpc::ParseSrj(kZooSrj);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->vars, zoo.vars);
  ASSERT_EQ(parsed->rows.size(), zoo.rows.size());
  for (size_t r = 0; r < zoo.rows.size(); ++r) {
    EXPECT_EQ(parsed->rows[r], zoo.rows[r]) << "row " << r;
  }
  // One byte at a time, taking rows as they complete.
  auto dict = std::make_shared<core::TermDictionary>();
  rpc::SrjChunkDecoder decoder(dict);
  sparql::ResultTable streamed;
  const std::string doc = kZooSrj;
  for (char byte : doc) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&byte, 1)).ok());
    if (decoder.PendingRows() > 0) {
      sparql::ResultTable part = core::DecodeIdTable(decoder.TakeIds(), *dict);
      for (auto& row : part.rows) streamed.rows.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(decoder.Finish().ok());
  EXPECT_EQ(decoder.vars(), zoo.vars);
  EXPECT_EQ(streamed.rows, zoo.rows);
}

// ---------------------------------------------------------------------
// Scanner semantics beyond the writer's output
// ---------------------------------------------------------------------

TEST(SrjScannerTest, BindingsBeforeTheHeadAreHeldUntilTheDocumentCompletes) {
  const std::string doc =
      "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"uri\",\"value\":\"a\"}},"
      "{\"y\":{\"type\":\"literal\",\"value\":\"b\"}}]},"
      "\"head\":{\"vars\":[\"y\",\"x\"]},\"link\":[1,{\"z\":null}]}";
  Result<sparql::ResultTable> parsed = rpc::ParseSrj(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->vars, (std::vector<std::string>{"y", "x"}));
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_FALSE(parsed->rows[0][0].has_value());
  EXPECT_EQ(parsed->rows[0][1], rdf::Term::Iri("a"));
  EXPECT_EQ(parsed->rows[1][0], rdf::Term::Literal("b"));

  auto dict = std::make_shared<core::TermDictionary>();
  rpc::SrjChunkDecoder decoder(dict);
  ASSERT_TRUE(decoder.Feed(doc.substr(0, doc.find("\"head\""))).ok());
  EXPECT_FALSE(decoder.HasHead());
  EXPECT_EQ(decoder.PendingRows(), 0u);
  ASSERT_TRUE(decoder.Feed(doc.substr(doc.find("\"head\""))).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  EXPECT_TRUE(decoder.HasHead());
  EXPECT_EQ(decoder.PendingRows(), 2u);

  // A held binding naming a var the head lacks fails at the root's close.
  EXPECT_EQ(rpc::ParseSrj("{\"results\":{\"bindings\":[{\"w\":{\"type\":"
                          "\"uri\",\"value\":\"a\"}}]},\"head\":{\"vars\":"
                          "[\"x\"]}}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// A head naming x twice: members always bind its first column.
constexpr char kRepeatedVarSrj[] =
    "{\"head\":{\"vars\":[\"x\",\"y\",\"x\"]},\"results\":{\"bindings\":["
    "{\"x\":{\"type\":\"uri\",\"value\":\"a\"},\"y\":{\"type\":\"uri\","
    "\"value\":\"b\"}},{\"y\":{\"type\":\"uri\",\"value\":\"c\"},\"x\":{"
    "\"type\":\"uri\",\"value\":\"d\"}}]}}";

TEST(SrjScannerTest, RepeatedHeadVarBindsItsFirstColumn) {
  Result<sparql::ResultTable> parsed = rpc::ParseSrj(kRepeatedVarSrj);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[0][0], rdf::Term::Iri("a"));
  EXPECT_EQ(parsed->rows[1][0], rdf::Term::Iri("d"));
  EXPECT_EQ(parsed->rows[1][1], rdf::Term::Iri("c"));
  EXPECT_FALSE(parsed->rows[0][2].has_value());
  EXPECT_FALSE(parsed->rows[1][2].has_value());
}

TEST(SrjScannerTest, RowsArePendingAsSoonAsTheirBindingCloses) {
  const std::string doc = rpc::ResultTableToSrj(GoldenZoo());
  auto dict = std::make_shared<core::TermDictionary>();
  rpc::SrjChunkDecoder decoder(dict);
  const size_t second = doc.find("},{\"s\"") + 1;
  ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(0, second)).ok());
  EXPECT_TRUE(decoder.HasHead());
  EXPECT_EQ(decoder.PendingRows(), 1u);
  EXPECT_EQ(decoder.TotalRows(), 1u);
}

TEST(SrjScannerTest, EveryRejectionIsInvalidArgumentInBothDrivers) {
  const char* cases[] = {
      "",
      "not json at all",
      "[1,2,3]",
      "{}",
      "{\"head\":{\"vars\":[\"x\"]}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":42}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"warp\",\"value\":\"v\"}}]}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"uri\"}}]}}",
      "{\"head\":{},\"boolean\":\"yes\"}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[x]}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}garbage",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[{},]}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"uri\",\"value\":\"\\q\"}}]}}",
      "]",
  };
  for (const char* text : cases) {
    core::TermDictionary dict;
    Result<core::IdTable> parsed = rpc::ParseSrjToIds(text, &dict);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;

    rpc::SrjChunkDecoder decoder(std::make_shared<core::TermDictionary>());
    Status status = Status::OK();
    for (const char* p = text; *p != '\0' && status.ok(); ++p) {
      status = decoder.Feed(std::string_view(p, 1));
    }
    if (status.ok()) status = decoder.Finish();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(decoder.Finish().code(), StatusCode::kInvalidArgument) << text;
  }
}

// ---------------------------------------------------------------------
// Mutation harness: drivers agree, and agree with a tree reference
// ---------------------------------------------------------------------

/// A decoded answer in comparable form: vars plus each cell as N-Triples
/// text ("UNDEF" when unbound).
struct Decoded {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
  bool operator==(const Decoded&) const = default;
};

void AppendDecoded(const core::IdTable& ids, const rdf::TermSource& terms,
                   Decoded* out) {
  for (size_t r = 0; r < ids.NumRows(); ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < ids.NumVars(); ++c) {
      const rdf::TermId id = ids.At(r, c);
      row.push_back(id == rdf::kInvalidTermId ? "UNDEF"
                                              : terms.term(id).ToString());
    }
    out->rows.push_back(std::move(row));
  }
}

/// The SRJ reading rules written over an obs::JsonValue tree: the first
/// occurrence of a member counts, a boolean member makes the answer ASK,
/// every binding member must name a head var and hold a term object.
Result<Decoded> ReferenceDecode(const std::string& text) {
  LUSAIL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonValue::Parse(text));
  using Type = obs::JsonValue::Type;
  auto bad = [] { return Status::InvalidArgument("reference: not SRJ"); };
  if (doc.type() != Type::kObject) return bad();
  const obs::JsonValue& head = doc.Get("head");
  if (head.type() != Type::kObject) return bad();
  Decoded out;
  const obs::JsonValue& boolean = doc.Get("boolean");
  if (boolean.type() == Type::kBool) {
    if (boolean.AsBool()) out.rows.emplace_back();
    return out;
  }
  const obs::JsonValue& vars = head.Get("vars");
  if (vars.type() != Type::kArray) return bad();
  for (const obs::JsonValue& v : vars.items()) {
    if (v.type() != Type::kString) return bad();
    out.vars.push_back(v.AsString());
  }
  const obs::JsonValue& results = doc.Get("results");
  if (results.type() != Type::kObject) return bad();
  const obs::JsonValue& bindings = results.Get("bindings");
  if (bindings.type() != Type::kArray) return bad();
  for (const obs::JsonValue& binding : bindings.items()) {
    if (binding.type() != Type::kObject) return bad();
    std::vector<std::string> row(out.vars.size(), "UNDEF");
    for (const auto& [var, value] : binding.members()) {
      auto at = std::find(out.vars.begin(), out.vars.end(), var);
      if (at == out.vars.end()) return bad();
      if (value.type() != Type::kObject) return bad();
      const obs::JsonValue& type = value.Get("type");
      const obs::JsonValue& lexical = value.Get("value");
      if (type.type() != Type::kString || lexical.type() != Type::kString) {
        return bad();
      }
      rdf::Term term;
      if (type.AsString() == "uri") {
        term = rdf::Term::Iri(lexical.AsString());
      } else if (type.AsString() == "bnode") {
        term = rdf::Term::BlankNode(lexical.AsString());
      } else if (type.AsString() == "literal" ||
                 type.AsString() == "typed-literal") {
        const obs::JsonValue& lang = value.Get("xml:lang");
        const obs::JsonValue& datatype = value.Get("datatype");
        if (lang.type() == Type::kString && !lang.AsString().empty()) {
          term = rdf::Term::LangLiteral(lexical.AsString(), lang.AsString());
        } else if (datatype.type() == Type::kString) {
          term = rdf::Term::TypedLiteral(lexical.AsString(),
                                         datatype.AsString());
        } else {
          term = rdf::Term::Literal(lexical.AsString());
        }
      } else {
        return bad();
      }
      row[static_cast<size_t>(at - out.vars.begin())] = term.ToString();
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<Decoded> DecodeWhole(const std::string& text) {
  core::TermDictionary dict;
  LUSAIL_ASSIGN_OR_RETURN(core::IdTable ids, rpc::ParseSrjToIds(text, &dict));
  Decoded out;
  out.vars = ids.vars;
  AppendDecoded(ids, dict, &out);
  return out;
}

/// Feeds `text` in slices cut at random points, taking rows at random
/// moments in between.
Result<Decoded> DecodeSliced(const std::string& text, Rng* rng) {
  auto dict = std::make_shared<core::TermDictionary>();
  rpc::SrjChunkDecoder decoder(dict);
  Decoded out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t len = 1 + rng->NextBelow(rng->NextBelow(4) == 0
                                              ? text.size() - pos
                                              : std::min<size_t>(
                                                    text.size() - pos, 8));
    LUSAIL_RETURN_NOT_OK(
        decoder.Feed(std::string_view(text).substr(pos, len)));
    pos += len;
    if (rng->NextBelow(3) == 0) AppendDecoded(decoder.TakeIds(), *dict, &out);
  }
  LUSAIL_RETURN_NOT_OK(decoder.Finish());
  AppendDecoded(decoder.TakeIds(), *dict, &out);
  out.vars = decoder.vars();
  return out;
}

std::string Mutate(std::string doc, Rng* rng) {
  static const char* const kTokens[] = {
      "{", "}", "[", "]", "\"", "\\", "\xC3\xA9", ":", ",",
      "\"type\"", "\"uri\"", "\"xml:lang\"", "\"datatype\""};
  const size_t edits = 1 + rng->NextBelow(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = doc.empty() ? 0 : rng->NextBelow(doc.size() + 1);
    switch (rng->NextBelow(5)) {
      case 0:  // Flip one byte.
        if (pos < doc.size()) {
          doc[pos] = static_cast<char>(doc[pos] ^
                                       static_cast<char>(1 + rng->NextBelow(255)));
        }
        break;
      case 1:  // Insert one byte.
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>(rng->NextBelow(256)));
        break;
      case 2:  // Delete a short run.
        doc.erase(pos, 1 + rng->NextBelow(4));
        break;
      case 3: {  // Duplicate a span somewhere else.
        if (doc.empty()) break;
        const size_t from = rng->NextBelow(doc.size());
        const size_t len = 1 + rng->NextBelow(std::min<size_t>(
                                   40, doc.size() - from));
        const std::string span = doc.substr(from, len);
        doc.insert(rng->NextBelow(doc.size() + 1), span);
        break;
      }
      default:  // Splice a structural token.
        doc.insert(pos, kTokens[rng->NextBelow(std::size(kTokens))]);
        break;
    }
  }
  return doc;
}

std::vector<std::string> MutationSeeds() {
  std::vector<std::string> seeds = {
      kZooSrj,
      kEmptySelectSrj,
      kAskTrueSrj,
      kAskFalseSrj,
      "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"uri\",\"value\":\"a\"}}"
      "]},\"head\":{\"vars\":[\"y\",\"x\"]},\"link\":[1.5e3,{\"a\":null}]}",
      "{\"head\":{\"vars\":[\"x\",\"y\"],\"link\":[]},\"results\":{"
      "\"bindings\":[{\"y\":{\"value\":\"\\u00e9\\n\\/\",\"type\":"
      "\"typed-literal\",\"datatype\":\"http://ex/d\"},\"x\":{\"type\":"
      "\"bnode\",\"value\":\"b1\"}},{\"x\":{\"type\":\"literal\",\"value\":"
      "\"v\",\"xml:lang\":\"\",\"datatype\":\"http://ex/e\"}}]}}",
  };
  seeds.push_back(kRepeatedVarSrj);
  Result<obs::JsonValue> tree = obs::JsonValue::Parse(kZooSrj);
  if (tree.ok()) seeds.push_back(tree->Pretty());
  return seeds;
}

TEST(SrjScannerMutationTest, DriversAgreeAndMatchTheTreeReference) {
  const std::vector<std::string> seeds = MutationSeeds();
  Rng rng(20261019);
  size_t accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string doc =
        Mutate(seeds[static_cast<size_t>(i) % seeds.size()], &rng);
    Result<Decoded> whole = DecodeWhole(doc);
    Result<Decoded> sliced = DecodeSliced(doc, &rng);
    ASSERT_EQ(whole.ok(), sliced.ok())
        << "case " << i << " whole: " << whole.status().ToString()
        << " sliced: " << sliced.status().ToString() << "\n" << doc;
    if (!whole.ok()) {
      ASSERT_EQ(whole.status().code(), StatusCode::kInvalidArgument)
          << "case " << i << "\n" << doc;
      ASSERT_EQ(sliced.status().code(), whole.status().code())
          << "case " << i << "\n" << doc;
      // The scanner rejects nothing the tree reference accepts.
      ASSERT_FALSE(ReferenceDecode(doc).ok()) << "case " << i << "\n" << doc;
      continue;
    }
    ++accepted;
    ASSERT_EQ(*whole, *sliced) << "case " << i << "\n" << doc;
    Result<Decoded> reference = ReferenceDecode(doc);
    ASSERT_TRUE(reference.ok())
        << "case " << i << ": " << reference.status().ToString() << "\n"
        << doc;
    ASSERT_EQ(*whole, *reference) << "case " << i << "\n" << doc;
  }
  // The mutations leave a useful share of documents valid.
  EXPECT_GT(accepted, 200u);
}

// ---------------------------------------------------------------------
// Deep nesting on network input
// ---------------------------------------------------------------------

/// 100 000 open brackets where a binding belongs, and where an ignored
/// member's value belongs; each body is about 100 KB.
std::vector<std::string> DeepBodies() {
  const std::string deep(100000, '[');
  return {"{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":" + deep,
          "{\"head\":{\"vars\":[\"x\"]},\"link\":" + deep};
}

TEST(SrjDeepNestingTest, ParseSrjToIdsRejectsDeepNesting) {
  for (const std::string& body : DeepBodies()) {
    core::TermDictionary dict;
    Result<core::IdTable> parsed = rpc::ParseSrjToIds(body, &dict);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // Where nothing else is wrong, the cap is what rejects.
  core::TermDictionary dict;
  Result<core::IdTable> parsed = rpc::ParseSrjToIds(DeepBodies()[1], &dict);
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SrjDeepNestingTest, ChunkDecoderFedOneByteAtATimeRejectsDeepNesting) {
  for (const std::string& body : DeepBodies()) {
    rpc::SrjChunkDecoder decoder(std::make_shared<core::TermDictionary>());
    Status status = Status::OK();
    size_t fed = 0;
    for (; fed < body.size() && status.ok(); ++fed) {
      status = decoder.Feed(std::string_view(body).substr(fed, 1));
    }
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // Failed at the cap, not at the end of input.
    EXPECT_LE(fed, static_cast<size_t>(obs::kJsonMaxDepth) + 64);
    EXPECT_EQ(decoder.Finish().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SrjDeepNestingTest, JsonParseCapsNestingDepth) {
  const int cap = obs::kJsonMaxDepth;
  const std::string at_cap = std::string(cap, '[') + std::string(cap, ']');
  EXPECT_TRUE(obs::JsonValue::Parse(at_cap).ok());
  const std::string over = std::string(cap + 1, '[') +
                           std::string(cap + 1, ']');
  EXPECT_EQ(obs::JsonValue::Parse(over).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(obs::JsonValue::Parse(std::string(100000, '[')).status().code(),
            StatusCode::kInvalidArgument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_EQ(obs::JsonValue::Parse(objects).status().code(),
            StatusCode::kInvalidArgument);
  // The trace graft reads the X-Lusail-Trace header through the same
  // parser.
  EXPECT_FALSE(
      obs::Trace::FromWireString("{\"spans\":" + std::string(100000, '['))
          .ok());
}

/// Accepts one connection, reads the request head, and answers 500 with
/// `body` as a Content-Length body.
class OneShotServer {
 public:
  explicit OneShotServer(std::string body) : body_(std::move(body)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~OneShotServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }
  uint16_t port() const { return port_; }

 private:
  void Serve() {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string request;
    char buf[4096];
    while (request.find("\r\n\r\n") == std::string::npos) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    std::string response =
        "HTTP/1.1 500 Internal Server Error\r\nContent-Type: "
        "application/json\r\nConnection: close\r\nContent-Length: " +
        std::to_string(body_.size()) + "\r\n\r\n" + body_;
    size_t sent = 0;
    while (sent < response.size()) {
      ssize_t n = ::send(fd, response.data() + sent, response.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(fd);
  }

  std::string body_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(SrjDeepNestingTest, DeeplyNestedErrorBodyFailsTheRequestCleanly) {
  OneShotServer server(std::string(100000, '['));
  rpc::HttpSparqlEndpoint client("DEEP", "127.0.0.1", server.port());
  Result<net::QueryResponse> response =
      client.Query("SELECT ?s WHERE { ?s ?p ?o }");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInternal)
      << response.status().ToString();
  EXPECT_NE(response.status().message().find("HTTP 500"), std::string::npos)
      << response.status().ToString();
}

}  // namespace
}  // namespace lusail
