// Shared plumbing for the end-to-end benchmark: command-line options, the
// metric report and its JSON line, exact order statistics, peak RSS, a
// registry diff over obs::MetricsRegistry, and self time per layer from
// obs::TraceCollector spans.
//
// Every workload fills one Report. Untraced runs fill the end-to-end
// metrics; traced runs (--trace 1) add per-layer metrics, spans recorded
// around the calls into each layer, side passes, and a registry snapshot.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace revbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test-sized inputs (the benchmark's own tests): same code paths, inputs
  // small enough that a whole run takes a few seconds.
  bool tiny = false;
  // Self-test hook: "wrong" makes the workload tamper with one answer
  // before its correctness check, which must then fail.
  std::string inject;
  // Where a traced run writes its spans (created if missing).
  std::string trace_dir = ".bench_build/traces";
  // Worker threads for every parallel stage: min(hardware threads, 4).
  unsigned threads = 4;
};

// Order statistics of one sample set. `tail` is the highest of p99 / p90
// that has at least ten samples beyond it (p50 when even p90 has fewer).
struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
};
Summary Summarize(std::vector<double> samples);
// Exact quantile (nearest rank on a copy); 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// Keeps a computed value observable so the work producing it is not
// optimized away.
void Keep(std::uint64_t value);

// Peak resident set size of this process, MB (VmHWM).
double PeakRssMb();

// Per-run metric sheet. Metric() both records a value and prints it as a
// human-readable line; the last stdout line is the JSON object run.py
// reads.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A free-form line in the human-readable part of the output.
  void Note(const std::string& line);
  // Correctness: a failed check marks the run incorrect and is printed.
  void Check(bool ok, const std::string& what);
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
  std::string Json() const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Prints `label: p50 … tail … (n=…)` for a latency set in the given unit.
void NoteSummary(Report& report, const std::string& label, const Summary& s,
                 const std::string& unit);

// ---- Registry diff ---------------------------------------------------------

// Label-stripped snapshot of the process-wide registry, so per-instance
// instruments ("serve.latency_ns{frontend=3}") fold into one series.
rev::obs::MetricsSnapshot RegistrySnapshot();

// after − before for counters and histograms (buckets, count, sum; max is
// the after value). Gauges are taken from `after`.
class RegistryDelta {
 public:
  RegistryDelta(const rev::obs::MetricsSnapshot& before,
                const rev::obs::MetricsSnapshot& after);
  std::uint64_t Counter(const std::string& name) const;
  rev::obs::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, rev::obs::HistogramSnapshot> histograms_;
};

// ---- Tracing ----------------------------------------------------------------
//
// Spans are obs::Span (src/obs/trace.h), kept in memory by the process-wide
// obs::TraceCollector and written out once at the end of the run. The
// benchmark names its own spans "<layer>.<what>" ("core.crawl_all"); the
// spans src/ records itself ("pipeline.verify", "crawl.fetch", ...) are
// mapped to layers by name. Self time per layer is, over every thread, the
// time during which that layer's span was the innermost open one. Calls
// too frequent to record as spans are folded instead: their summed time
// moves from the enclosing span's layer to the callee's.

// Turns the collector on for the rest of the run. A run traces one stretch
// and never turns it off again, so all spans share one time base.
void StartTracing();
bool Tracing();
// Moves `ns` of self time from `from_layer` to `layer`; no-op while the
// collector is off. Call it inside the enclosing span, on any thread.
void FoldTime(const char* layer, const char* from_layer, std::uint64_t ns);

// Traced-run epilogue shared by all workloads: self time per layer, span
// count, the tracing overhead, and the trace file.
void ReportTrace(Report& report, const Options& options,
                 double untraced_value, double traced_value);

// ---- Workloads ----------------------------------------------------------------

void RunScanIngest(const Options& options, Report& report);
void RunOcspServe(const Options& options, Report& report);
void RunCrlCrawl(const Options& options, Report& report);

}  // namespace revbench
