#include "workload/qfed_generator.h"

#include "common/rng.h"

namespace lusail::workload {

namespace {

using rdf::Term;
using rdf::TermTriple;

constexpr const char* kDb = "http://drugbank.example.org/vocab#";
constexpr const char* kDis = "http://diseasome.example.org/vocab#";
constexpr const char* kSid = "http://sider.example.org/vocab#";
constexpr const char* kDm = "http://dailymed.example.org/vocab#";

/// One shared block for every rdf:type predicate the generator emits.
Term RdfType() {
  static const Term type = Term::Iri(rdf::kRdfType);
  return type;
}

void Add(std::vector<TermTriple>* out, Term s, Term p, Term o) {
  out->push_back(TermTriple{std::move(s), std::move(p), std::move(o)});
}

Term DrugIri(int i) {
  return Term::Iri("http://drugbank.example.org/resource/drugs/" +
                   std::to_string(i));
}

const char* kNameSuffixes[] = {"amide", "ol", "ine", "ate", "an", "ex"};

std::string DrugName(int i) {
  return "Drug" + std::string(kNameSuffixes[i % 6]) + std::to_string(i);
}

/// A deterministic pseudo-text literal of roughly `chars` characters.
std::string BigLiteral(const std::string& topic, int chars, uint64_t seed) {
  static const char* kWords[] = {
      "treatment", "of",       "chronic",   "conditions", "with",
      "observed",  "efficacy", "in",        "clinical",   "trials",
      "including", "adverse",  "reactions", "monitoring", "dosage",
      "adjusted",  "for",      "hepatic",   "impairment", "patients"};
  lusail::Rng rng(seed);
  std::string out = topic + ": ";
  while (static_cast<int>(out.size()) < chars) {
    out += kWords[rng.NextBelow(20)];
    out += ' ';
  }
  return out;
}

constexpr const char* kPrologue =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX db: <http://drugbank.example.org/vocab#>\n"
    "PREFIX dis: <http://diseasome.example.org/vocab#>\n"
    "PREFIX sid: <http://sider.example.org/vocab#>\n"
    "PREFIX dm: <http://dailymed.example.org/vocab#>\n";

constexpr const char* kBaseJoin = R"(
  ?disease rdf:type dis:disease .
  ?disease dis:name ?diseaseName .
  ?disease dis:possibleDrug ?drug .
  ?drug rdf:type db:drugs .
  ?drug db:name ?dn .
  ?label dm:genericDrug ?drug .
)";

}  // namespace

QFedConfig QFedConfig::Small() {
  QFedConfig c;
  c.num_drugs = 150;
  c.num_diseases = 60;
  c.num_sider_drugs = 50;
  c.num_labels = 70;
  c.big_literal_chars = 120;
  return c;
}

std::vector<TermTriple> QFedGenerator::GenerateDrugBank() const {
  std::vector<TermTriple> t;
  auto db = [](const char* local) { return Term::Iri(kDb + std::string(local)); };
  for (int i = 0; i < config_.num_drugs; ++i) {
    Term drug = DrugIri(i);
    Add(&t, drug, RdfType(), db("drugs"));
    Add(&t, drug, db("name"), Term::Literal(DrugName(i)));
    Add(&t, drug, db("casRegistryNumber"),
        Term::Literal("CAS-" + std::to_string(100000 + i)));
    Add(&t, drug, db("indication"),
        Term::Literal(BigLiteral("Indication of " + DrugName(i),
                                 config_.big_literal_chars,
                                 config_.seed * 31 + i)));
    Add(&t, drug, db("target"),
        Term::Iri("http://drugbank.example.org/resource/targets/" +
                  std::to_string(i % 300)));
    if (config_.num_drugs > 1) {
      Add(&t, drug, db("interactsWith"),
          DrugIri((i * 7 + 1) % config_.num_drugs));
    }
  }
  return t;
}

std::vector<TermTriple> QFedGenerator::GenerateDiseasome() const {
  std::vector<TermTriple> t;
  auto dis = [](const char* local) {
    return Term::Iri(kDis + std::string(local));
  };
  lusail::Rng rng(config_.seed * 17 + 1);
  for (int j = 0; j < config_.num_diseases; ++j) {
    Term disease = Term::Iri(
        "http://diseasome.example.org/resource/diseases/" + std::to_string(j));
    Add(&t, disease, RdfType(), dis("disease"));
    Add(&t, disease, dis("name"),
        Term::Literal("Disease" + std::to_string(j)));
    Add(&t, disease, dis("associatedGene"),
        Term::Iri("http://diseasome.example.org/resource/genes/" +
                  std::to_string(j % 200)));
    // 1-3 candidate drugs — the interlink into DrugBank.
    int num_links = 1 + static_cast<int>(rng.NextBelow(3));
    for (int k = 0; k < num_links; ++k) {
      Add(&t, disease, dis("possibleDrug"),
          DrugIri((j * 3 + k * 11) % config_.num_drugs));
    }
  }
  return t;
}

std::vector<TermTriple> QFedGenerator::GenerateSider() const {
  std::vector<TermTriple> t;
  auto sid = [](const char* local) {
    return Term::Iri(kSid + std::string(local));
  };
  for (int k = 0; k < config_.num_sider_drugs; ++k) {
    Term drug = Term::Iri("http://sider.example.org/resource/drugs/" +
                          std::to_string(k));
    Add(&t, drug, RdfType(), sid("drugs"));
    Add(&t, drug, sid("siderDrugName"),
        Term::Literal(DrugName((k * 2) % config_.num_drugs)));
    Add(&t, drug, sid("sameAs"), DrugIri((k * 2) % config_.num_drugs));
    Term effect = Term::Iri("http://sider.example.org/resource/effects/" +
                            std::to_string(k % 50));
    Add(&t, drug, sid("sideEffect"), effect);
    Add(&t, effect, sid("sideEffectName"),
        Term::Literal("SideEffect" + std::to_string(k % 50)));
  }
  return t;
}

std::vector<TermTriple> QFedGenerator::GenerateDailyMed() const {
  std::vector<TermTriple> t;
  auto dm = [](const char* local) { return Term::Iri(kDm + std::string(local)); };
  for (int m = 0; m < config_.num_labels; ++m) {
    Term label = Term::Iri("http://dailymed.example.org/resource/labels/" +
                           std::to_string(m));
    Add(&t, label, RdfType(), dm("drugs"));
    Add(&t, label, dm("genericDrug"), DrugIri((m * 5 + 2) % config_.num_drugs));
    Add(&t, label, dm("activeIngredient"),
        Term::Literal("Ingredient" + std::to_string(m % 120)));
    Add(&t, label, dm("description"),
        Term::Literal(BigLiteral("Label " + std::to_string(m),
                                 config_.big_literal_chars,
                                 config_.seed * 53 + m)));
  }
  return t;
}

std::vector<EndpointSpec> QFedGenerator::GenerateAll() const {
  std::vector<EndpointSpec> specs(4);
  specs[0].id = "drugbank";
  specs[0].triples = GenerateDrugBank();
  specs[1].id = "diseasome";
  specs[1].triples = GenerateDiseasome();
  specs[2].id = "sider";
  specs[2].triples = GenerateSider();
  specs[3].id = "dailymed";
  specs[3].triples = GenerateDailyMed();
  return specs;
}

std::string QFedGenerator::C2P2() {
  return std::string(kPrologue) +
         "SELECT ?disease ?diseaseName ?drug ?dn ?label WHERE {" + kBaseJoin +
         "}";
}

std::string QFedGenerator::C2P2F() {
  return std::string(kPrologue) +
         "SELECT ?disease ?diseaseName ?drug ?dn ?label WHERE {" + kBaseJoin +
         "  FILTER (CONTAINS(?dn, \"amide\"))\n}";
}

std::string QFedGenerator::C2P2B() {
  return std::string(kPrologue) +
         "SELECT ?disease ?drug ?dn ?ind ?label WHERE {" + kBaseJoin +
         "  ?drug db:indication ?ind .\n}";
}

std::string QFedGenerator::C2P2BF() {
  return std::string(kPrologue) +
         "SELECT ?disease ?drug ?dn ?ind ?label WHERE {" + kBaseJoin +
         "  ?drug db:indication ?ind .\n"
         "  FILTER (CONTAINS(?dn, \"amide\"))\n}";
}

std::string QFedGenerator::C2P2BO() {
  return std::string(kPrologue) +
         "SELECT ?disease ?drug ?dn ?ind ?label ?desc WHERE {" + kBaseJoin +
         "  ?drug db:indication ?ind .\n"
         "  OPTIONAL { ?label dm:description ?desc . }\n}";
}

std::string QFedGenerator::C2P2BOF() {
  return std::string(kPrologue) +
         "SELECT ?disease ?drug ?dn ?ind ?label ?desc WHERE {" + kBaseJoin +
         "  ?drug db:indication ?ind .\n"
         "  OPTIONAL { ?label dm:description ?desc . }\n"
         "  FILTER (CONTAINS(?dn, \"amide\"))\n}";
}

std::string QFedGenerator::C2P2OF() {
  return std::string(kPrologue) +
         "SELECT ?disease ?drug ?dn ?label ?desc WHERE {" + kBaseJoin +
         "  OPTIONAL { ?label dm:description ?desc . }\n"
         "  FILTER (CONTAINS(?dn, \"amide\"))\n}";
}

std::vector<std::pair<std::string, std::string>>
QFedGenerator::BenchmarkQueries() {
  return {{"C2P2", C2P2()},     {"C2P2B", C2P2B()},   {"C2P2BF", C2P2BF()},
          {"C2P2BO", C2P2BO()}, {"C2P2BOF", C2P2BOF()}, {"C2P2F", C2P2F()},
          {"C2P2OF", C2P2OF()}};
}

}  // namespace lusail::workload
