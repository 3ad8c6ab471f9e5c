// Proves that the benchmark's correctness checks bite: on a tiny world,
// each workload runs clean once (no failure), then once with one injected
// fault — a corrupted reference model digest, a delta applied on a stale
// generation, a wrong expected answer — which must be counted as failed.
//
// Run: .bench_build/perfbench_selftest (or ctest in the build directory).
#include <cstdio>

#include "bench.h"

using namespace perfbench;

namespace {

int check(const char* name, Result (*run)(const Args&), void (*inject)(Faults&)) {
  Args args;
  args.seed = 3;
  args.seconds = 1;
  args.tiny = true;
  args.workdir = std::string(".bench_out/selftest-") + name;
  make_dirs(args.workdir);
  const Result clean = run(args);
  inject(args.faults);
  const Result faulty = run(args);
  const bool ok = clean.attempted > 0 && clean.failed == 0 && faulty.failed > 0;
  std::printf("%s: clean %llu/%llu failed, with fault %llu/%llu failed -> %s\n", name,
              static_cast<unsigned long long>(clean.failed),
              static_cast<unsigned long long>(clean.attempted),
              static_cast<unsigned long long>(faulty.failed),
              static_cast<unsigned long long>(faulty.attempted), ok ? "ok" : "FAIL");
  for (const std::string& e : clean.errors) std::printf("  clean run: %s\n", e.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  int bad = 0;
  bad += check("learn_L", run_learn, [](Faults& f) { f.corrupt_digest = true; });
  bad += check("relearn_delta", run_relearn, [](Faults& f) { f.reject_delta = true; });
  bad += check("serve_mixed", run_serve, [](Faults& f) { f.wrong_answer = true; });
  std::printf("perfbench_selftest: %s\n", bad == 0 ? "all checks bite" : "FAILED");
  return bad == 0 ? 0 : 1;
}
