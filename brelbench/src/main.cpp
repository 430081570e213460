// brel_bench: the BREL service benchmark (see ../NOTES.md).
//
//   brel_bench run --workload W --seed N --seconds S --trace 0|1
//                  [--snapshot PATH] [--trace-out PATH] [--smoke]
//   brel_bench prepare --workload warm_repeat|warm_edit --seed N
//                      --snapshot PATH [--smoke]
//
// `run` prints `#` diagnostic lines and, last, one JSON result line.
// `prepare` writes the warm_* snapshot under the workload's own server
// configuration; run.py calls it in a separate process first.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef BRELBENCH_BUILD_TYPE
#define BRELBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: brel_bench run|prepare --workload W --seed N "
               "--seconds S --trace 0|1 [--snapshot PATH] [--trace-out PATH] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brelbench;
  if (argc < 2) {
    return usage();
  }
  Args args;
  args.mode = argv[1];
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return 2;
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--snapshot") {
      args.snapshot = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || (args.mode != "run" && args.mode != "prepare")) {
    return usage();
  }

  const Plan plan = make_plan(args);
  try {
    if (args.mode == "prepare") {
      return prepare_snapshot(args, plan);
    }
    std::printf("# host nproc=%u build=%s workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                std::thread::hardware_concurrency(), BRELBENCH_BUILD_TYPE,
                workload_name(args.workload),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    if (args.trace) {
      return run_traced(args, plan);
    }
    return args.workload == Workload::kParallelLarge ? run_parallel(args, plan)
                                                     : run_service(args, plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "brel_bench: %s\n", e.what());
    return 1;
  }
}
