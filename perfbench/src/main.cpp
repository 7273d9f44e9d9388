// perfbench: the measuring half of the ipass end-to-end benchmark (run.py
// builds it, adds units and machine context, and prints the result line).
//
//   perfbench serve-hot|serve-churn --seed N --seconds S --trace 0|1
//             --serve-bin PATH --workdir DIR [--segment K]
//   perfbench study-batch --seed N --seconds S --trace 0|1 --digests FILE
//   perfbench digests                    (print the study-batch digests)
//   perfbench selftest
//
// Prints one JSON line {"attempted", "failed", "metrics", "samples", "info"}.
#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon is a failed request, not a dead benchmark
  // Keep freed heap memory mapped: repeated set-ups and batches then reuse
  // it instead of timing the kernel's page-fault path.
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  // One heap for every thread, so peak RSS does not depend on which caller
  // thread happened to allocate what.
  mallopt(M_ARENA_MAX, 1);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench WORKLOAD|digests|selftest [options]\n");
    return 2;
  }
  const std::string command = argv[1];
  ServeConfig serve;
  StudyConfig study;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      serve.seed = study.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      serve.seconds = study.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--segment") {
      serve.segment = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--trace") {
      serve.trace = study.trace = value == "1";
    } else if (flag == "--serve-bin") {
      serve.serve_bin = value;
    } else if (flag == "--workdir") {
      serve.workdir = value;
    } else if (flag == "--digests") {
      study.digest_file = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    if (command == "selftest") return run_selftest() == 0 ? 0 : 1;
    RunResult result;
    if (command == "serve-hot" || command == "serve-churn") {
      serve.workload = command;
      result = run_serve(serve);
    } else if (command == "study-batch" || command == "digests") {
      study.print_digests = command == "digests";
      result = run_study(study);
      if (study.print_digests) return 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", command.c_str());
      return 2;
    }
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
