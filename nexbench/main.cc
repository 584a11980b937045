// nexbench: the repository benchmark. Runs one named workload from one
// seed through the public service::Server::Execute path and prints its
// metrics; see harness.h for the phases of a run and NOTES.md for the
// workloads and metrics.
//
//   nexbench --workload olap_star --seed 1 --seconds 10 --trace 0
#include "harness.h"

int main(int argc, char** argv) {
  nexbench::Args args;
  if (!nexbench::ParseArgs(argc, argv, &args)) return 2;
  return nexbench::RunBenchmark(args);
}
