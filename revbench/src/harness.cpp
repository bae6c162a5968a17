#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string_view>

#include "obs/trace.h"

namespace revbench {

namespace obs = rev::obs;

// ---- Order statistics ---------------------------------------------------------

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank - 1, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(s.n);
  s.p50 = Quantile(samples, 0.5);
  s.tail_pct = 50;
  s.tail = s.p50;
  for (const double pct : {99.0, 90.0}) {
    if (static_cast<double>(s.n) * (1 - pct / 100) >= 10) {
      s.tail_pct = pct;
      s.tail = Quantile(samples, pct / 100);
      break;
    }
  }
  return s;
}

namespace {
volatile std::uint64_t g_sink = 0;
}  // namespace

void Keep(std::uint64_t value) { g_sink = g_sink + value; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- Report --------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("  %-34s %16.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  } else {
    std::printf("check ok: %s\n", what.c_str());
  }
  std::fflush(stdout);
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << (std::isfinite(v.value) ? v.value : 0.0) << ", \"unit\": \""
        << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void NoteSummary(Report& report, const std::string& label, const Summary& s,
                 const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: p50 %.3f %s, p%g %.3f %s, mean %.3f %s (n=%zu)",
                label.c_str(), s.p50, unit.c_str(), s.tail_pct, s.tail,
                unit.c_str(), s.mean, unit.c_str(), s.n);
  report.Note(buf);
}

// ---- Registry diff ----------------------------------------------------------

obs::MetricsSnapshot RegistrySnapshot() {
  return obs::StripLabels(obs::MetricsRegistry::Global().Snapshot());
}

RegistryDelta::RegistryDelta(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& c : before.counters) base[c.name] = c.value;
  for (const auto& c : after.counters) counters_[c.name] = c.value - base[c.name];
  std::map<std::string, obs::HistogramSnapshot> hbase;
  for (const auto& h : before.histograms) hbase[h.name] = h.snapshot;
  for (const auto& h : after.histograms) {
    obs::HistogramSnapshot d = h.snapshot;
    auto it = hbase.find(h.name);
    if (it != hbase.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (std::size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] -= it->second.buckets[i];
      d.min = 0;
    }
    histograms_[h.name] = d;
  }
}

std::uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

obs::HistogramSnapshot RegistryDelta::Histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? obs::HistogramSnapshot{} : it->second;
}

// ---- Tracing -------------------------------------------------------------------

namespace {

// Every layer a span or a folded call is attributed to; "bench" is the
// benchmark's own loop. asn1 is reached only inside x509 and ocsp calls.
constexpr const char* kLayers[] = {"x509", "crypto", "core", "ocsp", "serve",
                                   "net",  "ca",     "crl",  "util", "bench"};

std::mutex g_fold_mu;
std::map<std::string, double> g_folded_ns;  // layer -> signed folded ns

// Layer of a span: the prefix before the first '.', when it names a layer;
// src/'s own span prefixes by the module that records them; otherwise the
// enclosing span's layer.
std::string LayerOf(const char* name, const std::string& parent) {
  const std::string_view full(name);
  if (full == "crawl.fetch") return "net";  // CachingClient::Get + ParseCrl
  const std::string_view prefix = full.substr(0, full.find('.'));
  for (const char* layer : kLayers)
    if (prefix == layer) return layer;
  if (prefix == "pipeline" || prefix == "crawl") return "core";
  if (prefix == "threadpool") return "util";
  return parent;
}

}  // namespace

void StartTracing() {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (collector.enabled()) return;
  collector.Clear();
  collector.Enable(1 << 20);  // events per thread; dropped() counts overflow
}

bool Tracing() { return obs::TraceCollector::Global().enabled(); }

void FoldTime(const char* layer, const char* from_layer, std::uint64_t ns) {
  if (!Tracing()) return;
  std::lock_guard<std::mutex> lock(g_fold_mu);
  g_folded_ns[layer] += static_cast<double>(ns);
  g_folded_ns[from_layer] -= static_cast<double>(ns);
}

namespace {

// Self time per layer, seconds, over every span recorded so far.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> by_thread;
  for (const obs::TraceEvent& e : events) by_thread[e.tid].push_back(&e);
  std::map<std::string, double> self;
  for (auto& [tid, list] : by_thread) {
    // A parent starts no later than its children; depth breaks ties.
    std::sort(list.begin(), list.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->depth < b->depth;
              });
    std::vector<double> self_ns(list.size());
    std::vector<std::string> layer(list.size());
    std::vector<std::size_t> stack;  // open spans, outermost first
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::TraceEvent& e = *list[i];
      while (stack.size() > e.depth) stack.pop_back();
      const bool nested = !stack.empty();
      layer[i] = LayerOf(e.name, nested ? layer[stack.back()] : "bench");
      self_ns[i] = static_cast<double>(e.dur_ns);
      if (nested) self_ns[stack.back()] -= static_cast<double>(e.dur_ns);
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i)
      self[layer[i]] += std::max(0.0, self_ns[i]) * 1e-9;
  }
  std::lock_guard<std::mutex> lock(g_fold_mu);
  for (const auto& [name, ns] : g_folded_ns) self[name] += ns * 1e-9;
  return self;
}

}  // namespace

void ReportTrace(Report& report, const Options& options,
                 double untraced_value, double traced_value) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const std::vector<obs::TraceEvent> events = collector.Snapshot();
  const std::map<std::string, double> self = SelfSecondsByLayer(events);
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    report.Metric(std::string("self_s.") + layer,
                  it == self.end() ? 0.0 : it->second, "s");
  }
  report.Metric("trace.spans", static_cast<double>(events.size()), "count");
  const std::uint64_t dropped = collector.dropped();
  report.Metric("trace.dropped", static_cast<double>(dropped), "count");
  if (dropped != 0)
    report.Note("trace: a ring overflowed; self times cover the newest " +
                std::to_string(events.size()) + " spans only");
  const double overhead =
      untraced_value > 0 ? 100.0 * (traced_value - untraced_value) /
                               untraced_value
                         : 0.0;
  report.Metric("trace.overhead_pct", overhead, "%");
  const std::string stem = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  if (collector.WriteChromeTrace(stem + ".json"))
    report.Note("trace written to " + stem + ".json");
  else
    report.Note("trace export failed: " + stem + ".json");
  std::ofstream reg(stem + "-registry.json");
  if (reg) reg << obs::MetricsRegistry::Global().DumpJson() << "\n";
}

}  // namespace revbench
