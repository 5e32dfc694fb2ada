#include "workload/lubm_generator.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

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

std::string DeptPrefix(int u, int d) {
  return "http://www.department" + std::to_string(d) + ".university" +
         std::to_string(u) + ".edu";
}

/// Picks a remote university for a degree link, skewed toward low indices
/// (university0 is the most popular alma mater).
int RemoteUniversity(lusail::Rng* rng, int self, int num_universities) {
  if (num_universities <= 1) return self;
  double r = rng->NextDouble();
  int target = static_cast<int>(std::floor(num_universities * r * r));
  if (target >= num_universities) target = num_universities - 1;
  if (target == self) target = (target + 1) % num_universities;
  return target;
}

constexpr const char* kPrologue =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

}  // namespace

LubmConfig LubmConfig::Small() {
  LubmConfig c;
  c.num_universities = 2;
  c.departments_per_university = 2;
  c.professors_per_department = 4;
  c.grad_students_per_department = 8;
  c.undergrad_students_per_department = 10;
  c.courses_per_department = 6;
  return c;
}

LubmConfig LubmConfig::Bench() {
  LubmConfig c;
  c.num_universities = 4;
  c.departments_per_university = 5;
  c.professors_per_department = 10;
  c.grad_students_per_department = 40;
  c.undergrad_students_per_department = 80;
  c.courses_per_department = 15;
  return c;
}

LubmConfig LubmConfig::Sweep() {
  LubmConfig c;
  c.num_universities = 64;
  c.departments_per_university = 2;
  c.professors_per_department = 4;
  c.grad_students_per_department = 10;
  c.undergrad_students_per_department = 15;
  c.courses_per_department = 6;
  return c;
}

std::string LubmGenerator::UniversityIri(int u) {
  return "http://www.university" + std::to_string(u) + ".edu";
}

std::vector<TermTriple> LubmGenerator::GenerateUniversity(int u) const {
  const LubmConfig& cfg = config_;
  lusail::Rng rng(cfg.seed * 2654435761ULL + static_cast<uint64_t>(u));
  std::vector<TermTriple> triples;

  Term univ = Term::Iri(UniversityIri(u));
  Add(&triples, univ, RdfType(), UbIri("University"));
  Add(&triples, univ, UbIri("name"),
      Term::Literal("University" + std::to_string(u)));
  Add(&triples, univ, UbIri("address"),
      Term::Literal("Campus Drive " + std::to_string(100 + u) +
                    ", College Town " + std::to_string(u)));

  for (int d = 0; d < cfg.departments_per_university; ++d) {
    std::string prefix = DeptPrefix(u, d);
    Term dept = Term::Iri(prefix);
    Add(&triples, dept, RdfType(), UbIri("Department"));
    Add(&triples, dept, UbIri("subOrganizationOf"), univ);
    Add(&triples, dept, UbIri("name"),
        Term::Literal("Department" + std::to_string(d)));

    // Courses: the first half graduate, the rest undergraduate.
    std::vector<Term> grad_courses, undergrad_courses;
    for (int c = 0; c < cfg.courses_per_department; ++c) {
      bool graduate = c < cfg.courses_per_department / 2;
      Term course = Term::Iri(prefix + "/" +
                              (graduate ? "graduateCourse" : "course") +
                              std::to_string(c));
      Add(&triples, course, RdfType(),
          UbIri(graduate ? "GraduateCourse" : "Course"));
      Add(&triples, course, UbIri("name"),
          Term::Literal("Course" + std::to_string(c)));
      (graduate ? grad_courses : undergrad_courses).push_back(course);
    }

    // Professors: round-robin Full / Associate / Assistant.
    static const char* kRanks[] = {"FullProfessor", "AssociateProfessor",
                                   "AssistantProfessor"};
    std::vector<Term> professors;
    std::vector<std::vector<Term>> courses_of(cfg.professors_per_department);
    for (int p = 0; p < cfg.professors_per_department; ++p) {
      Term prof = Term::Iri(prefix + "/professor" + std::to_string(p));
      professors.push_back(prof);
      Add(&triples, prof, RdfType(), UbIri(kRanks[p % 3]));
      Add(&triples, prof, UbIri("worksFor"), dept);
      Add(&triples, prof, UbIri("name"),
          Term::Literal("Professor" + std::to_string(p)));
      Add(&triples, prof, UbIri("emailAddress"),
          Term::Literal("professor" + std::to_string(p) + "@university" +
                        std::to_string(u) + ".edu"));
      Add(&triples, prof, UbIri("address"),
          Term::Literal("Office " + std::to_string(p) + ", Department " +
                        std::to_string(d)));
      Add(&triples, prof, UbIri("researchInterest"),
          Term::Literal("Research" + std::to_string(
                            static_cast<int>(rng.NextBelow(20)))));
      // Degrees: undergraduate and masters local, PhD possibly remote.
      Add(&triples, prof, UbIri("undergraduateDegreeFrom"), univ);
      Add(&triples, prof, UbIri("mastersDegreeFrom"), univ);
      Term phd_univ = univ;
      if (rng.NextBool(cfg.remote_phd_fraction)) {
        phd_univ = Term::Iri(UniversityIri(
            RemoteUniversity(&rng, u, cfg.num_universities)));
      }
      Add(&triples, prof, UbIri("PhDDegreeFrom"), phd_univ);
    }
    // Teaching: every course is taught by some professor (round-robin, as
    // in real LUBM where courses exist because faculty teach them), except
    // for configured non-teaching professors (the paper's "Ann" case).
    {
      std::vector<bool> teaches(professors.size(), true);
      for (size_t p = 0; p < professors.size(); ++p) {
        if (rng.NextBool(cfg.professor_no_course_fraction)) {
          teaches[p] = false;
        }
      }
      // Guarantee at least one teaching professor.
      if (std::find(teaches.begin(), teaches.end(), true) == teaches.end()) {
        teaches[0] = true;
      }
      std::vector<Term> all_courses = grad_courses;
      all_courses.insert(all_courses.end(), undergrad_courses.begin(),
                         undergrad_courses.end());
      size_t next = 0;
      for (const Term& course : all_courses) {
        while (!teaches[next % professors.size()]) ++next;
        size_t p = next % professors.size();
        Add(&triples, professors[p], UbIri("teacherOf"), course);
        courses_of[p].push_back(course);
        ++next;
      }
      // Any teaching professor left without a course (more professors
      // than courses) still teaches at least one.
      for (size_t p = 0; p < professors.size(); ++p) {
        if (teaches[p] && courses_of[p].empty() && !all_courses.empty()) {
          Term course = all_courses[p % all_courses.size()];
          Add(&triples, professors[p], UbIri("teacherOf"), course);
          courses_of[p].push_back(course);
        }
      }
    }

    // Graduate students.
    for (int s = 0; s < cfg.grad_students_per_department; ++s) {
      Term student = Term::Iri(prefix + "/graduateStudent" +
                               std::to_string(s));
      Add(&triples, student, RdfType(), UbIri("GraduateStudent"));
      Add(&triples, student, UbIri("memberOf"), dept);
      Add(&triples, student, UbIri("name"),
          Term::Literal("GraduateStudent" + std::to_string(s)));
      Add(&triples, student, UbIri("emailAddress"),
          Term::Literal("gradstudent" + std::to_string(s) + "@department" +
                        std::to_string(d) + ".university" +
                        std::to_string(u) + ".edu"));
      Add(&triples, student, UbIri("address"),
          Term::Literal("Dorm " + std::to_string(s % 7) + ", Campus " +
                        std::to_string(u)));
      // Undergraduate degree: local, or remote skewed toward university0.
      Term ug_univ = univ;
      if (rng.NextBool(cfg.remote_undergrad_fraction)) {
        ug_univ = Term::Iri(UniversityIri(
            RemoteUniversity(&rng, u, cfg.num_universities)));
      }
      Add(&triples, student, UbIri("undergraduateDegreeFrom"), ug_univ);
      // Advisor from the same department; half the time the student takes
      // one of the advisor's courses (the Q9 triangle).
      int advisor_index = static_cast<int>(rng.NextBelow(professors.size()));
      Add(&triples, student, UbIri("advisor"), professors[advisor_index]);
      // Coverage guarantee: student s takes grad course s mod |courses|,
      // so every graduate course has at least one taker; plus the Q9
      // triangle (a course taught by the advisor) half of the time, plus
      // random extras.
      Add(&triples, student, UbIri("takesCourse"),
          grad_courses[s % grad_courses.size()]);
      if (rng.NextBool(0.5) && !courses_of[advisor_index].empty()) {
        Add(&triples, student, UbIri("takesCourse"),
            courses_of[advisor_index][rng.NextBelow(
                courses_of[advisor_index].size())]);
      }
      size_t extras = rng.NextBelow(2);
      for (size_t k = 0; k < extras; ++k) {
        Add(&triples, student, UbIri("takesCourse"),
            grad_courses[rng.NextBelow(grad_courses.size())]);
      }
    }

    // Undergraduate students.
    for (int s = 0; s < cfg.undergrad_students_per_department; ++s) {
      Term student = Term::Iri(prefix + "/undergraduateStudent" +
                               std::to_string(s));
      Add(&triples, student, RdfType(), UbIri("UndergraduateStudent"));
      Add(&triples, student, UbIri("memberOf"), dept);
      Add(&triples, student, UbIri("name"),
          Term::Literal("UndergraduateStudent" + std::to_string(s)));
      const std::vector<Term>& pool =
          undergrad_courses.empty() ? grad_courses : undergrad_courses;
      // Same coverage guarantee for undergraduate courses.
      Add(&triples, student, UbIri("takesCourse"), pool[s % pool.size()]);
      size_t extras = rng.NextBelow(3);
      for (size_t k = 0; k < extras; ++k) {
        Add(&triples, student, UbIri("takesCourse"),
            pool[rng.NextBelow(pool.size())]);
      }
    }
  }
  return triples;
}

std::vector<EndpointSpec> LubmGenerator::GenerateAll() const {
  std::vector<EndpointSpec> specs;
  specs.reserve(config_.num_universities);
  for (int u = 0; u < config_.num_universities; ++u) {
    EndpointSpec spec;
    spec.id = "university" + std::to_string(u);
    spec.triples = GenerateUniversity(u);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string LubmGenerator::QueryQa() {
  return std::string(kPrologue) + R"(SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?S rdf:type ub:GraduateStudent .
  ?P ub:teacherOf ?C .
  ?P rdf:type ub:AssociateProfessor .
  ?S ub:takesCourse ?C .
  ?C rdf:type ub:GraduateCourse .
  ?P ub:PhDDegreeFrom ?U .
  ?U ub:address ?A .
})";
}

std::string LubmGenerator::Q1() {
  return std::string(kPrologue) + R"(SELECT ?X ?Y ?Z WHERE {
  ?X rdf:type ub:GraduateStudent .
  ?Y rdf:type ub:University .
  ?Z rdf:type ub:Department .
  ?X ub:memberOf ?Z .
  ?Z ub:subOrganizationOf ?Y .
  ?X ub:undergraduateDegreeFrom ?Y .
})";
}

std::string LubmGenerator::Q2() {
  return std::string(kPrologue) + R"(SELECT ?X ?Y ?Z WHERE {
  ?X rdf:type ub:GraduateStudent .
  ?Z rdf:type ub:GraduateCourse .
  ?X ub:advisor ?Y .
  ?Y ub:teacherOf ?Z .
  ?X ub:takesCourse ?Z .
})";
}

std::string LubmGenerator::Q3(int university) {
  return std::string(kPrologue) + "SELECT ?X WHERE {\n  ?X rdf:type "
         "ub:GraduateStudent .\n  ?X ub:undergraduateDegreeFrom <" +
         UniversityIri(university) + "> .\n}";
}

std::string LubmGenerator::Q4() {
  return std::string(kPrologue) + R"(SELECT ?X ?Y ?U ?A WHERE {
  ?X rdf:type ub:GraduateStudent .
  ?X ub:advisor ?Y .
  ?Y ub:teacherOf ?Z .
  ?X ub:takesCourse ?Z .
  ?Y ub:PhDDegreeFrom ?U .
  ?U ub:address ?A .
})";
}

std::vector<std::pair<std::string, std::string>>
LubmGenerator::BenchmarkQueries() {
  return {{"Q1", Q1()}, {"Q2", Q2()}, {"Q3", Q3(0)}, {"Q4", Q4()}};
}

}  // namespace lusail::workload
