// perfbench: runs one named workload against the Lusail engine and prints
// its metrics as one JSON line. Usually started through run.py, which
// builds it first:
//
//   perfbench --workload lubm-cpu --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced chunks of the time and prints the per-layer metrics. The
// exit code is non-zero when any query fails or its answer differs from
// the oracle's, or when the workload cannot run at all. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(const perfbench::BenchResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      PrintUsage();
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0) {
    PrintUsage();
    return 2;
  }
  lusail::Result<perfbench::BenchResult> result = perfbench::RunWorkload(args);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->attempted == 0) {
    std::fprintf(stderr, "perfbench: no query completed in the window\n");
    return 1;
  }
  std::printf("%s\n", ResultLine(*result).c_str());
  std::fflush(stdout);
  // Failed and wrong answers fail the run: the line above still says
  // what was seen.
  return result->correct ? 0 : 1;
}
