// perfbench: the repo benchmark's measuring binary. Run it through
// perfbench/run.py, which builds it and pins the thread count.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints one line per figure, the gate results, and as its last line a JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness gate fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Result;

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = std::stoi(v) != 0;
    else if (k == "--work-dir") o.work_dir = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.workload.empty() || o.work_dir.empty())
    throw std::invalid_argument("--workload and --work-dir are required");
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

void print_result(const Result& r) {
  for (const auto& m : r.report)
    std::printf("figure  %-44s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  for (const auto& m : r.metrics)
    std::printf("metric  %-44s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  for (const auto& n : r.notes) std::printf("note    %s\n", n.c_str());
  for (const auto& g : r.failed_gates)
    std::printf("GATE FAILED  %s\n", g.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    Result r;
    if (opt.workload == "train_pde") r = perfbench::run_train_pde(opt);
    else if (opt.workload == "serve_hot") r = perfbench::run_serve_hot(opt);
    else if (opt.workload == "serve_churn") r = perfbench::run_serve_churn(opt);
    else if (opt.workload == "train_dist2") r = perfbench::run_train_dist2(opt);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
