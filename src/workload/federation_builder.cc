#include "workload/federation_builder.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "store/triple_store.h"

namespace lusail::workload {

namespace {

using rdf::Term;
using rdf::TermTriple;

constexpr const char* kUb = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

Term UbIri(const std::string& local) { return Term::Iri(kUb + local); }
/// One shared block for every rdf:type predicate the generator emits.
Term RdfType() {
  static const Term type = Term::Iri(rdf::kRdfType);
  return type;
}

void Add(std::vector<TermTriple>* out, Term s, Term p, Term o) {
  out->push_back(TermTriple{std::move(s), std::move(p), std::move(o)});
}

}  // namespace

std::unique_ptr<fed::Federation> BuildFederation(
    std::vector<EndpointSpec> specs, const net::LatencyModel& latency) {
  auto federation = std::make_unique<fed::Federation>();
  for (EndpointSpec& spec : specs) {
    auto store = std::make_unique<store::TripleStore>();
    for (const TermTriple& t : spec.triples) store->Add(t);
    store->Freeze();
    federation->Add(std::make_shared<net::SparqlEndpoint>(
        spec.id, std::move(store), latency));
  }
  return federation;
}

Status ExportFederation(const std::vector<EndpointSpec>& specs,
                        const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory " + directory +
                                   ": " + ec.message());
  }
  for (const EndpointSpec& spec : specs) {
    std::string path = directory + "/" + spec.id + ".nt";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot write " + path);
    }
    out << rdf::WriteNTriples(spec.triples);
    if (!out.good()) {
      return Status::Internal("short write to " + path);
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<fed::Federation>> LoadFederationFromDirectory(
    const std::string& directory, const net::LatencyModel& latency) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    if (entry.path().extension() == ".nt") files.push_back(entry.path());
  }
  if (ec) {
    return Status::NotFound("cannot read directory " + directory + ": " +
                            ec.message());
  }
  if (files.empty()) {
    return Status::NotFound("no .nt files in " + directory);
  }
  std::sort(files.begin(), files.end());
  auto federation = std::make_unique<fed::Federation>();
  for (const auto& path : files) {
    auto store = std::make_unique<store::TripleStore>();
    LUSAIL_RETURN_NOT_OK(store->LoadNTriplesFile(path.string()));
    store->Freeze();
    federation->Add(std::make_shared<net::SparqlEndpoint>(
        path.stem().string(), std::move(store), latency));
  }
  return federation;
}

std::vector<EndpointSpec> Figure1Federation() {
  Term mit = Term::Iri("http://www.mit.edu");
  Term cmu = Term::Iri("http://www.cmu.edu");
  auto person = [](const std::string& host, const std::string& name) {
    return Term::Iri("http://www." + host + "/people#" + name);
  };
  auto course = [](const std::string& host, const std::string& name) {
    return Term::Iri("http://www." + host + "/courses#" + name);
  };

  // EP1 hosts MIT: professors Ben (teaches C3) and Ann (advises Sam but
  // teaches nothing — the paper's "extraneous computation" case), student
  // Lee, and MIT's address.
  EndpointSpec ep1;
  ep1.id = "EP1";
  {
    auto* t = &ep1.triples;
    Term ben = person("mit.edu", "Ben");
    Term ann = person("mit.edu", "Ann");
    Term lee = person("mit.edu", "Lee");
    Term sam = person("mit.edu", "Sam");
    Term c3 = course("mit.edu", "C3");
    Add(t, mit, UbIri("address"), Term::Literal("XXX"));
    Add(t, ben, RdfType(), UbIri("associateProfessor"));
    Add(t, ben, UbIri("PhDDegreeFrom"), mit);
    Add(t, ben, UbIri("teacherOf"), c3);
    Add(t, ben, UbIri("worksFor"), mit);
    Add(t, ann, RdfType(), UbIri("associateProfessor"));
    Add(t, ann, UbIri("PhDDegreeFrom"), mit);
    Add(t, ann, UbIri("worksFor"), mit);
    Add(t, lee, RdfType(), UbIri("graduateStudent"));
    Add(t, lee, UbIri("advisor"), ben);
    Add(t, lee, UbIri("takesCourse"), c3);
    Add(t, sam, RdfType(), UbIri("graduateStudent"));
    Add(t, sam, UbIri("advisor"), ann);
    Add(t, sam, UbIri("takesCourse"), c3);
    Add(t, c3, RdfType(), UbIri("graduateCourse"));
  }

  // EP2 hosts CMU: professors Joy (PhD from CMU) and Tim (PhD from MIT —
  // the interlink), student Kim advised by both.
  EndpointSpec ep2;
  ep2.id = "EP2";
  {
    auto* t = &ep2.triples;
    Term joy = person("cmu.edu", "Joy");
    Term tim = person("cmu.edu", "Tim");
    Term kim = person("cmu.edu", "Kim");
    Term c1 = course("cmu.edu", "C1");
    Term c2 = course("cmu.edu", "C2");
    Add(t, cmu, UbIri("address"), Term::Literal("CCCC"));
    Add(t, joy, RdfType(), UbIri("associateProfessor"));
    Add(t, joy, UbIri("PhDDegreeFrom"), cmu);
    Add(t, joy, UbIri("teacherOf"), c1);
    Add(t, joy, UbIri("worksFor"), cmu);
    Add(t, tim, RdfType(), UbIri("associateProfessor"));
    Add(t, tim, UbIri("PhDDegreeFrom"), mit);  // Interlink to EP1.
    Add(t, tim, UbIri("teacherOf"), c2);
    Add(t, tim, UbIri("worksFor"), cmu);
    Add(t, kim, RdfType(), UbIri("graduateStudent"));
    Add(t, kim, UbIri("advisor"), joy);
    Add(t, kim, UbIri("advisor"), tim);
    Add(t, kim, UbIri("takesCourse"), c1);
    Add(t, kim, UbIri("takesCourse"), c2);
    Add(t, c1, RdfType(), UbIri("graduateCourse"));
    Add(t, c2, RdfType(), UbIri("graduateCourse"));
  }
  return {std::move(ep1), std::move(ep2)};
}

std::string Figure2QueryQa() {
  return R"(PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?S rdf:type ub:graduateStudent .
  ?P ub:teacherOf ?C .
  ?P rdf:type ub:associateProfessor .
  ?S ub:takesCourse ?C .
  ?C rdf:type ub:graduateCourse .
  ?P ub:PhDDegreeFrom ?U .
  ?U ub:address ?A .
})";
}

}  // namespace lusail::workload
