#include "workload/lrb_generator.h"

#include <cstdio>

#include "common/rng.h"

namespace lusail::workload {

namespace {

using rdf::Term;
using rdf::TermTriple;

/// One shared block for every rdf:type predicate the generator emits.
Term RdfType() {
  static const Term type = Term::Iri(rdf::kRdfType);
  return type;
}

void Add(std::vector<TermTriple>* out, Term s, Term p, Term o) {
  out->push_back(TermTriple{std::move(s), std::move(p), std::move(o)});
}

Term Vocab(const std::string& ds, const std::string& local) {
  return Term::Iri("http://" + ds + ".example.org/vocab#" + local);
}

Term Res(const std::string& ds, const std::string& kind, int i) {
  return Term::Iri("http://" + ds + ".example.org/resource/" + kind + "/" +
                   std::to_string(i));
}

const char* kDrugSuffixes[] = {"amide", "ol", "ine", "ate", "an", "ex"};

constexpr const char* kPrologue = R"(PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dbo: <http://dbpedia.example.org/vocab#>
PREFIX gn: <http://geonames.example.org/vocab#>
PREFIX db: <http://drugbank.example.org/vocab#>
PREFIX kegg: <http://kegg.example.org/vocab#>
PREFIX chebi: <http://chebi.example.org/vocab#>
PREFIX lmdb: <http://linkedmdb.example.org/vocab#>
PREFIX mo: <http://jamendo.example.org/vocab#>
PREFIX foaf: <http://jamendo.example.org/vocab#>
PREFIX nyt: <http://nytimes.example.org/vocab#>
PREFIX swdf: <http://swdf.example.org/vocab#>
PREFIX affy: <http://affymetrix.example.org/vocab#>
PREFIX tcga: <http://tcga.example.org/vocab#>
)";

std::string Q(const std::string& body) { return std::string(kPrologue) + body; }

}  // namespace

LrbConfig LrbConfig::Small() {
  LrbConfig c;
  c.dbpedia_persons = 300;
  c.dbpedia_films = 100;
  c.dbpedia_drugs = 60;
  c.geonames_places = 300;
  c.num_countries = 12;
  c.drugbank_drugs = 120;
  c.kegg_compounds = 100;
  c.chebi_compounds = 140;
  c.lmdb_films = 150;
  c.jamendo_artists = 80;
  c.jamendo_records = 160;
  c.nytimes_topics = 120;
  c.swdf_papers = 60;
  c.swdf_people = 40;
  c.affymetrix_probes = 180;
  c.tcga_patients = 40;
  c.tcga_meth_rows_per_patient = 20;
  c.tcga_expr_rows_per_patient = 6;
  c.num_genes = 60;
  return c;
}

std::string LrbGenerator::DrugName(int i) {
  return "Drug" + std::string(kDrugSuffixes[i % 6]) + std::to_string(i);
}

std::string LrbGenerator::GeneSymbol(int i) {
  return "GENE" + std::to_string(i);
}

std::vector<EndpointSpec> LrbGenerator::GenerateAll() const {
  const LrbConfig& c = config_;
  std::vector<EndpointSpec> specs;

  // ---- dbpedia: the hub dataset (persons, films, drugs, countries) ----
  {
    EndpointSpec spec;
    spec.id = "dbpedia";
    auto* t = &spec.triples;
    for (int i = 0; i < c.dbpedia_persons; ++i) {
      Term person = Res("dbpedia", "persons", i);
      Add(t, person, RdfType(), Vocab("dbpedia", "Person"));
      Add(t, person, Vocab("dbpedia", "name"),
          Term::Literal("Person" + std::to_string(i)));
      Add(t, person, Vocab("dbpedia", "birthPlace"),
          Res("geonames", "places", i % c.geonames_places));
      Add(t, person, Vocab("dbpedia", "occupation"),
          Term::Literal("Occupation" + std::to_string(i % 30)));
    }
    for (int f = 0; f < c.dbpedia_films; ++f) {
      Term film = Res("dbpedia", "films", f);
      Add(t, film, RdfType(), Vocab("dbpedia", "Film"));
      Add(t, film, Vocab("dbpedia", "name"),
          Term::Literal("Film" + std::to_string(f)));
      Add(t, film, Vocab("dbpedia", "director"),
          Res("dbpedia", "persons", (f * 3) % c.dbpedia_persons));
      Add(t, film, Vocab("dbpedia", "starring"),
          Res("dbpedia", "persons", (f * 7 + 1) % c.dbpedia_persons));
    }
    for (int d = 0; d < c.dbpedia_drugs; ++d) {
      Term drug = Res("dbpedia", "drugs", d);
      Add(t, drug, RdfType(), Vocab("dbpedia", "Drug"));
      Add(t, drug, Vocab("dbpedia", "name"), Term::Literal(DrugName(d)));
    }
    for (int k = 0; k < c.num_countries; ++k) {
      Term country = Res("dbpedia", "countries", k);
      Add(t, country, RdfType(), Vocab("dbpedia", "Country"));
      Add(t, country, Vocab("dbpedia", "name"),
          Term::Literal("Country" + std::to_string(k)));
    }
    specs.push_back(std::move(spec));
  }

  // ---- geonames ----
  {
    EndpointSpec spec;
    spec.id = "geonames";
    auto* t = &spec.triples;
    for (int k = 0; k < c.num_countries; ++k) {
      Term country = Res("geonames", "countries", k);
      Add(t, country, RdfType(), Vocab("geonames", "Country"));
      Add(t, country, Vocab("geonames", "countryName"),
          Term::Literal("Country" + std::to_string(k)));
    }
    for (int i = 0; i < c.geonames_places; ++i) {
      Term place = Res("geonames", "places", i);
      Add(t, place, RdfType(), Vocab("geonames", "Feature"));
      Add(t, place, Vocab("geonames", "name"),
          Term::Literal("Place" + std::to_string(i)));
      Add(t, place, Vocab("geonames", "parentCountry"),
          Res("geonames", "countries", i % c.num_countries));
      Add(t, place, Vocab("geonames", "population"),
          Term::Integer((i * 37057LL) % 1000000));
    }
    specs.push_back(std::move(spec));
  }

  // ---- drugbank ----
  {
    EndpointSpec spec;
    spec.id = "drugbank";
    auto* t = &spec.triples;
    for (int i = 0; i < c.drugbank_drugs; ++i) {
      Term drug = Res("drugbank", "drugs", i);
      Add(t, drug, RdfType(), Vocab("drugbank", "drugs"));
      Add(t, drug, Vocab("drugbank", "name"), Term::Literal(DrugName(i)));
      Add(t, drug, Vocab("drugbank", "casRegistryNumber"),
          Term::Literal("CAS-" + std::to_string(100000 + i)));
      Add(t, drug, Vocab("drugbank", "keggCompoundId"),
          Res("kegg", "compounds", i % c.kegg_compounds));
      Add(t, drug, Vocab("drugbank", "sameAs"),
          Res("dbpedia", "drugs", i % c.dbpedia_drugs));
    }
    specs.push_back(std::move(spec));
  }

  // ---- kegg ----
  {
    EndpointSpec spec;
    spec.id = "kegg";
    auto* t = &spec.triples;
    for (int k = 0; k < c.kegg_compounds; ++k) {
      Term cpd = Res("kegg", "compounds", k);
      Add(t, cpd, RdfType(), Vocab("kegg", "Compound"));
      Add(t, cpd, Vocab("kegg", "name"),
          Term::Literal("Compound" + std::to_string(k)));
      Add(t, cpd, Vocab("kegg", "formula"),
          Term::Literal("C" + std::to_string(k % 40) + "H" +
                        std::to_string(k % 80)));
      Add(t, cpd, Vocab("kegg", "mass"), Term::Double(100.0 + k * 0.5));
      Add(t, cpd, Vocab("kegg", "sameAs"),
          Res("chebi", "compounds", k % c.chebi_compounds));
    }
    specs.push_back(std::move(spec));
  }

  // ---- chebi ----
  {
    EndpointSpec spec;
    spec.id = "chebi";
    auto* t = &spec.triples;
    for (int k = 0; k < c.chebi_compounds; ++k) {
      Term cpd = Res("chebi", "compounds", k);
      Add(t, cpd, RdfType(), Vocab("chebi", "Compound"));
      Add(t, cpd, Vocab("chebi", "name"),
          Term::Literal("ChebiCompound" + std::to_string(k)));
      Add(t, cpd, Vocab("chebi", "formula"),
          Term::Literal("C" + std::to_string(k % 40) + "H" +
                        std::to_string(k % 80)));
      Add(t, cpd, Vocab("chebi", "charge"), Term::Integer(k % 5 - 2));
    }
    specs.push_back(std::move(spec));
  }

  // ---- linkedmdb ----
  {
    EndpointSpec spec;
    spec.id = "linkedmdb";
    auto* t = &spec.triples;
    for (int f = 0; f < c.lmdb_films; ++f) {
      Term film = Res("linkedmdb", "films", f);
      Add(t, film, RdfType(), Vocab("linkedmdb", "Film"));
      Add(t, film, Vocab("linkedmdb", "title"),
          Term::Literal("Film" + std::to_string(f % c.dbpedia_films)));
      Add(t, film, Vocab("linkedmdb", "sameAs"),
          Res("dbpedia", "films", f % c.dbpedia_films));
      Term actor = Res("linkedmdb", "actors", f % 200);
      Add(t, film, Vocab("linkedmdb", "actor"), actor);
      Add(t, actor, Vocab("linkedmdb", "actorName"),
          Term::Literal("Actor" + std::to_string(f % 200)));
      Add(t, film, Vocab("linkedmdb", "runtime"),
          Term::Integer(80 + (f * 13) % 100));
    }
    specs.push_back(std::move(spec));
  }

  // ---- jamendo ----
  {
    EndpointSpec spec;
    spec.id = "jamendo";
    auto* t = &spec.triples;
    for (int a = 0; a < c.jamendo_artists; ++a) {
      Term artist = Res("jamendo", "artists", a);
      Add(t, artist, RdfType(), Vocab("jamendo", "MusicArtist"));
      Add(t, artist, Vocab("jamendo", "name"),
          Term::Literal("Artist" + std::to_string(a)));
      Add(t, artist, Vocab("jamendo", "based_near"),
          Res("geonames", "places", (a * 5) % c.geonames_places));
    }
    for (int r = 0; r < c.jamendo_records; ++r) {
      Term record = Res("jamendo", "records", r);
      Add(t, record, RdfType(), Vocab("jamendo", "Record"));
      Add(t, record, Vocab("jamendo", "maker"),
          Res("jamendo", "artists", r % c.jamendo_artists));
      Add(t, record, Vocab("jamendo", "title"),
          Term::Literal("Record" + std::to_string(r)));
    }
    specs.push_back(std::move(spec));
  }

  // ---- nytimes ----
  {
    EndpointSpec spec;
    spec.id = "nytimes";
    auto* t = &spec.triples;
    for (int n = 0; n < c.nytimes_topics; ++n) {
      Term topic = Res("nytimes", "topics", n);
      Add(t, topic, RdfType(), Vocab("nytimes", "Topic"));
      Add(t, topic, Vocab("nytimes", "label"),
          Term::Literal("Person" + std::to_string(n % c.dbpedia_persons)));
      Add(t, topic, Vocab("nytimes", "sameAs"),
          Res("dbpedia", "persons", n % c.dbpedia_persons));
      Add(t, topic, Vocab("nytimes", "articleCount"),
          Term::Integer((n * 13) % 500));
    }
    specs.push_back(std::move(spec));
  }

  // ---- swdf ----
  {
    EndpointSpec spec;
    spec.id = "swdf";
    auto* t = &spec.triples;
    for (int q = 0; q < c.swdf_people; ++q) {
      Term person = Res("swdf", "people", q);
      Add(t, person, RdfType(), Vocab("swdf", "Person"));
      // Names overlap with DBpedia persons: the literal join of C10.
      Add(t, person, Vocab("swdf", "name"),
          Term::Literal("Person" + std::to_string((q * 4) %
                                                  c.dbpedia_persons)));
    }
    for (int p = 0; p < c.swdf_papers; ++p) {
      Term paper = Res("swdf", "papers", p);
      Add(t, paper, RdfType(), Vocab("swdf", "InProceedings"));
      Add(t, paper, Vocab("swdf", "title"),
          Term::Literal("Paper" + std::to_string(p)));
      Add(t, paper, Vocab("swdf", "year"), Term::Integer(2000 + p % 15));
      Add(t, paper, Vocab("swdf", "author"),
          Res("swdf", "people", p % c.swdf_people));
      Add(t, paper, Vocab("swdf", "author"),
          Res("swdf", "people", (p * 3 + 1) % c.swdf_people));
    }
    specs.push_back(std::move(spec));
  }

  // ---- affymetrix ----
  {
    EndpointSpec spec;
    spec.id = "affymetrix";
    auto* t = &spec.triples;
    for (int b = 0; b < c.affymetrix_probes; ++b) {
      Term probe = Res("affymetrix", "probes", b);
      Add(t, probe, RdfType(), Vocab("affymetrix", "Probe"));
      Add(t, probe, Vocab("affymetrix", "symbol"),
          Term::Literal(GeneSymbol(b % c.num_genes)));
      Add(t, probe, Vocab("affymetrix", "keggCompound"),
          Res("kegg", "compounds", b % c.kegg_compounds));
      Add(t, probe, Vocab("affymetrix", "chromosome"),
          Term::Literal("chr" + std::to_string(b % 23)));
    }
    specs.push_back(std::move(spec));
  }

  // ---- tcga-a (clinical) ----
  {
    EndpointSpec spec;
    spec.id = "tcga-a";
    auto* t = &spec.triples;
    for (int i = 0; i < c.tcga_patients; ++i) {
      Term patient = Res("tcga", "patients", i);
      Add(t, patient, RdfType(), Vocab("tcga", "Patient"));
      Add(t, patient, Vocab("tcga", "barcode"),
          Term::Literal("TCGA-" + std::to_string(1000 + i)));
      Add(t, patient, Vocab("tcga", "gender"),
          Term::Literal(i % 2 == 0 ? "female" : "male"));
      Add(t, patient, Vocab("tcga", "drugName"),
          Term::Literal(DrugName(i % c.drugbank_drugs)));
      Add(t, patient, Vocab("tcga", "diseaseType"),
          Term::Literal("cancer" + std::to_string(i % 8)));
    }
    specs.push_back(std::move(spec));
  }

  // ---- tcga-m (methylation; the largest endpoint) ----
  {
    EndpointSpec spec;
    spec.id = "tcga-m";
    auto* t = &spec.triples;
    for (int i = 0; i < c.tcga_patients; ++i) {
      for (int j = 0; j < c.tcga_meth_rows_per_patient; ++j) {
        Term result = Term::Iri("http://tcga.example.org/resource/meth/" +
                                std::to_string(i) + "_" + std::to_string(j));
        Add(t, result, Vocab("tcga", "methPatient"),
            Res("tcga", "patients", i));
        Add(t, result, Vocab("tcga", "methValue"),
            Term::Double(((i * 31 + j * 7) % 100) / 100.0));
        Add(t, result, Vocab("tcga", "methGene"),
            Term::Literal(GeneSymbol((i + j) % c.num_genes)));
      }
    }
    specs.push_back(std::move(spec));
  }

  // ---- tcga-e (expression) ----
  {
    EndpointSpec spec;
    spec.id = "tcga-e";
    auto* t = &spec.triples;
    for (int i = 0; i < c.tcga_patients; ++i) {
      for (int j = 0; j < c.tcga_expr_rows_per_patient; ++j) {
        Term result = Term::Iri("http://tcga.example.org/resource/expr/" +
                                std::to_string(i) + "_" + std::to_string(j));
        Add(t, result, Vocab("tcga", "exprPatient"),
            Res("tcga", "patients", i));
        Add(t, result, Vocab("tcga", "exprValue"),
            Term::Double(((i * 17 + j * 11) % 1000) / 10.0));
        Add(t, result, Vocab("tcga", "exprGene"),
            Term::Literal(GeneSymbol((i + 2 * j) % c.num_genes)));
      }
    }
    specs.push_back(std::move(spec));
  }

  return specs;
}

std::vector<std::pair<std::string, std::string>> LrbGenerator::SimpleQueries() {
  return {
      {"S1", Q(R"(SELECT ?drug ?cpd ?mass WHERE {
  ?drug db:name "Drugamide12" .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:mass ?mass .
})")},
      {"S2", Q(R"(SELECT ?p ?place ?pname WHERE {
  ?p dbo:name "Person42" .
  ?p dbo:birthPlace ?place .
  ?place gn:name ?pname .
})")},
      {"S3", Q(R"(SELECT ?drug ?dbp ?name WHERE {
  ?drug rdf:type db:drugs .
  ?drug db:sameAs ?dbp .
  ?dbp dbo:name ?name .
})")},
      {"S4", Q(R"(SELECT ?cpd ?ch ?chname WHERE {
  ?drug db:name "Drugol13" .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:sameAs ?ch .
  ?ch chebi:name ?chname .
})")},
      {"S5", Q(R"(SELECT ?topic ?person ?occ WHERE {
  ?topic nyt:label "Person7" .
  ?topic nyt:sameAs ?person .
  ?person dbo:occupation ?occ .
})")},
      {"S6", Q(R"(SELECT ?artist ?place ?country WHERE {
  ?artist rdf:type mo:MusicArtist .
  ?artist mo:based_near ?place .
  ?place gn:parentCountry ?country .
})")},
      {"S7", Q(R"(SELECT ?film ?dbf ?director WHERE {
  ?film lmdb:sameAs ?dbf .
  ?film lmdb:title ?t .
  ?dbf dbo:director ?director .
})")},
      {"S8", Q(R"(SELECT ?probe ?cpd ?name WHERE {
  ?probe affy:symbol "GENE5" .
  ?probe affy:keggCompound ?cpd .
  ?cpd kegg:name ?name .
})")},
      {"S9", Q(R"(SELECT ?paper ?title ?year WHERE {
  ?paper swdf:author ?a .
  ?a swdf:name "Person40" .
  ?paper swdf:title ?title .
  ?paper swdf:year ?year .
})")},
      {"S10", Q(R"(SELECT ?patient ?dn ?drug ?cas WHERE {
  ?patient tcga:barcode "TCGA-1007" .
  ?patient tcga:drugName ?dn .
  ?drug db:name ?dn .
  ?drug db:casRegistryNumber ?cas .
})")},
      {"S11", Q(R"(SELECT ?cpd ?ch ?f WHERE {
  ?cpd kegg:sameAs ?ch .
  ?cpd kegg:formula ?f .
  ?ch chebi:formula ?f2 .
  FILTER (?f = ?f2)
})")},
      {"S12", Q(R"(SELECT ?place ?name ?pop WHERE {
  ?place gn:parentCountry ?c .
  ?c gn:countryName "Country3" .
  ?place gn:name ?name .
  ?place gn:population ?pop .
  FILTER (?pop > 500000)
})")},
      {"S13", Q(R"(SELECT ?topic ?person ?place WHERE {
  ?topic rdf:type nyt:Topic .
  ?topic nyt:sameAs ?person .
  ?person dbo:birthPlace ?place .
  ?place gn:parentCountry ?country .
})")},
      {"S14", Q(R"(SELECT ?film ?dbf ?director ?topic WHERE {
  ?film lmdb:sameAs ?dbf .
  ?dbf dbo:director ?director .
  ?topic nyt:sameAs ?director .
})")},
  };
}

std::vector<std::pair<std::string, std::string>>
LrbGenerator::ComplexQueries() {
  return {
      {"C1", Q(R"(SELECT ?patient ?dn ?drug ?cpd ?chname WHERE {
  ?patient rdf:type tcga:Patient .
  ?patient tcga:gender "female" .
  ?patient tcga:drugName ?dn .
  ?drug db:name ?dn .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:sameAs ?ch .
  ?ch chebi:name ?chname .
})")},
      {"C2", Q(R"(SELECT ?patient ?dn ?drug ?cas ?cpd WHERE {
  ?patient tcga:barcode "TCGA-1007" .
  ?patient tcga:drugName ?dn .
  ?drug db:name ?dn .
  ?drug db:casRegistryNumber ?cas .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:mass ?mass .
})")},
      {"C3", Q(R"(SELECT DISTINCT ?film ?director ?place ?country WHERE {
  ?film rdf:type dbo:Film .
  ?film dbo:director ?director .
  ?director dbo:birthPlace ?place .
  ?place gn:parentCountry ?country .
  ?place gn:name ?pname .
  ?country gn:countryName ?cname .
})")},
      {"C4", Q(R"(SELECT ?film ?director ?place ?pname WHERE {
  ?film rdf:type dbo:Film .
  ?film dbo:director ?director .
  ?director dbo:birthPlace ?place .
  ?place gn:name ?pname .
} LIMIT 50)")},
      {"C5", Q(R"(SELECT ?drug ?dbpDrug WHERE {
  ?drug rdf:type db:drugs .
  ?drug db:name ?n1 .
  ?dbpDrug rdf:type dbo:Drug .
  ?dbpDrug dbo:name ?n2 .
  FILTER (?n1 = ?n2)
})")},
      {"C6", Q(R"(SELECT ?drug ?cpd ?mass ?charge WHERE {
  ?drug rdf:type db:drugs .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:mass ?mass .
  ?cpd kegg:sameAs ?ch .
  OPTIONAL { ?ch chebi:charge ?charge . }
  FILTER (?mass > 120)
})")},
      {"C7", Q(R"(SELECT ?probe ?g ?result ?patient WHERE {
  ?probe affy:symbol ?g .
  ?probe affy:chromosome "chr5" .
  ?result tcga:methGene ?g .
  ?result tcga:methPatient ?patient .
  ?patient tcga:gender "male" .
})")},
      {"C8", Q(R"(SELECT ?n ?topic WHERE {
  ?topic nyt:label ?n .
  { ?a mo:name ?n . } UNION { ?p swdf:name ?n . }
})")},
      {"C9", Q(R"(SELECT DISTINCT ?topic ?person ?film ?lfilm WHERE {
  ?topic rdf:type nyt:Topic .
  ?topic nyt:sameAs ?person .
  ?film dbo:starring ?person .
  ?lfilm lmdb:sameAs ?film .
  ?lfilm lmdb:title ?t .
})")},
      {"C10", Q(R"(SELECT ?author ?n ?person ?place WHERE {
  ?paper swdf:author ?author .
  ?author swdf:name ?n .
  ?person dbo:name ?n .
  ?person dbo:birthPlace ?place .
  ?place gn:name ?pname .
})")},
  };
}

std::vector<std::pair<std::string, std::string>> LrbGenerator::LargeQueries() {
  return {
      {"B1", Q(R"(SELECT ?g ?probe WHERE {
  ?probe affy:symbol ?g .
  { ?r tcga:methGene ?g . } UNION { ?r2 tcga:exprGene ?g . }
})")},
      {"B2", Q(R"(SELECT ?patient ?r ?v WHERE {
  ?patient tcga:diseaseType "cancer3" .
  ?r tcga:methPatient ?patient .
  ?r tcga:methValue ?v .
})")},
      {"B3", Q(R"(SELECT ?patient ?g ?mv ?ev WHERE {
  ?patient tcga:gender "female" .
  ?m tcga:methPatient ?patient .
  ?m tcga:methGene ?g .
  ?m tcga:methValue ?mv .
  ?e tcga:exprPatient ?patient .
  ?e tcga:exprGene ?g .
  ?e tcga:exprValue ?ev .
})")},
      {"B4", Q(R"(SELECT ?drug ?dn ?cpd ?kn ?ch ?chn WHERE {
  ?drug rdf:type db:drugs .
  ?drug db:name ?dn .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:name ?kn .
  ?cpd kegg:sameAs ?ch .
  ?ch chebi:name ?chn .
})")},
      {"B5", Q(R"(SELECT ?probe ?r WHERE {
  ?probe affy:symbol ?g1 .
  ?probe affy:chromosome "chr1" .
  ?r tcga:methGene ?g2 .
  ?p2 tcga:diseaseType "cancer1" .
  ?r tcga:methPatient ?p2 .
  FILTER (?g1 = ?g2)
})")},
      {"B6", Q(R"(SELECT ?person ?n ?topic ?n2 WHERE {
  ?person dbo:occupation "Occupation5" .
  ?person dbo:name ?n .
  ?topic nyt:label ?n2 .
  FILTER (?n = ?n2)
})")},
      {"B7", Q(R"(SELECT ?place ?c ?country WHERE {
  ?place gn:parentCountry ?c .
  ?c gn:countryName ?cn .
  ?country rdf:type dbo:Country .
  ?country dbo:name ?cn .
  ?place gn:population ?pop .
})")},
      {"B8", Q(R"(SELECT ?record ?artist ?place ?pop WHERE {
  ?record rdf:type mo:Record .
  ?record mo:maker ?artist .
  ?artist mo:based_near ?place .
  ?place gn:population ?pop .
  FILTER (?pop > 200000)
})")},
  };
}

std::vector<std::pair<std::string, std::string>>
LrbGenerator::Bio2RdfQueries() {
  return {
      {"R1", Q(R"(SELECT ?drug ?cpd ?f WHERE {
  ?drug rdf:type db:drugs .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:formula ?f .
  FILTER (STRSTARTS(?f, "C1"))
})")},
      {"R2", Q(R"(SELECT ?probe ?cpd ?drug ?dn WHERE {
  ?probe affy:keggCompound ?cpd .
  ?drug db:keggCompoundId ?cpd .
  ?drug db:name ?dn .
})")},
      {"R3", Q(R"(SELECT ?patient ?dn ?drug ?cpd WHERE {
  ?patient rdf:type tcga:Patient .
  ?patient tcga:drugName ?dn .
  ?drug db:name ?dn .
  ?drug db:keggCompoundId ?cpd .
})")},
      {"R4", Q(R"(SELECT ?drug ?dbp ?name ?ch WHERE {
  ?drug db:sameAs ?dbp .
  ?dbp dbo:name ?name .
  ?drug db:keggCompoundId ?cpd .
  ?cpd kegg:sameAs ?ch .
})")},
      {"R5", Q(R"(SELECT ?probe ?g ?result WHERE {
  ?probe affy:symbol ?g .
  ?probe affy:chromosome "chr7" .
  ?result tcga:methGene ?g .
})")},
  };
}

}  // namespace lusail::workload
