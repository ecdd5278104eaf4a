// perfbench — the repository benchmark.
//
//   perfbench --workload md-ooc|1d-ooc --seed N --seconds S --trace 0|1
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// metrics (README.md). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 ok, 1 on a correctness miss or a failed run, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload md-ooc|1d-ooc --seed N --seconds S "
               "--trace 0|1\n",
               argv0);
  std::exit(2);
}

double number(const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= 0.0)) usage(argv0);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number(v, argv[0]));
    } else if (a == "--seconds") {
      opt.seconds = number(v, argv[0]);
    } else if (a == "--trace") {
      opt.trace = number(v, argv[0]) != 0.0;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.seconds <= 0.0) usage(argv[0]);

  perfbench::Metrics m;
  perfbench::Outcome o;
  if (opt.workload != "md-ooc" && opt.workload != "1d-ooc") usage(argv[0]);
  try {
    o = perfbench::run_ooc(opt, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              o.check_misses == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), m.json().c_str());
  return o.check_misses == 0 ? 0 : 1;
}
