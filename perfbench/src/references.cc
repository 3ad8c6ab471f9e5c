// Prints perfbench/references.txt: the model digest of every learn_L pool
// world (learned at threads = 1) and the model and answer-table digests of
// every serve_mixed pool world. The workloads fail any run whose outputs
// differ from these. Regenerate the file only for a change that means to
// alter the learned models or their answers, and say so in its commit:
//
//   cmake --build .bench_build --target perfbench_references hoihod
//   .bench_build/perfbench_references > perfbench/references.txt
#include <cstdio>
#include <string>

#include "bench.h"

using namespace perfbench;

int main() {
  const std::string workdir = ".bench_out/references";
  make_dirs(workdir);
  const std::string learn = learn_references(workdir);
  const std::string serve = serve_references(workdir);
  if (learn.find("save-failed") != std::string::npos || serve.find("failed") != std::string::npos) {
    std::fprintf(stderr, "perfbench_references: %s%s", learn.c_str(), serve.c_str());
    return 1;
  }
  std::printf("# Recorded digests the perfbench workloads check their outputs against;\n"
              "# written by perfbench_references (see src/references.cc).\n%s%s",
              learn.c_str(), serve.c_str());
  return 0;
}
