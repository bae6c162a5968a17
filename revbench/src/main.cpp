// revbench: the repository's end-to-end benchmark driver.
//
//   revbench --workload scan_ingest|ocsp_serve|crl_crawl --seed N
//            --seconds S --trace 0|1 [--size tiny] [--inject wrong|corrupt]
//
// Prints a human-readable report, then one JSON line with every metric it
// measured. Exits 1 when a correctness check failed, 2 on bad arguments.
// revbench/run.py builds this binary and reduces the JSON line to the
// metrics BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "revbench: %s\nusage: revbench --workload "
               "scan_ingest|ocsp_serve|crl_crawl --seed N --seconds S "
               "--trace 0|1 [--size tiny] [--inject wrong|corrupt]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  revbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      options.tiny = std::strcmp(value, "tiny") == 0;
    } else if (flag == "--inject") {
      options.inject = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = hw == 0 ? 1 : (hw < 4 ? hw : 4);

  revbench::Report report;
  if (options.workload == "scan_ingest") {
    revbench::RunScanIngest(options, report);
  } else if (options.workload == "ocsp_serve") {
    revbench::RunOcspServe(options, report);
  } else if (options.workload == "crl_crawl") {
    revbench::RunCrlCrawl(options, report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
