// crl_crawl: the §3.2 daily CRL crawl. Setup builds an Ecosystem world at
// REV_SCALE 0.002 and registers the CRL URLs its servers advertise (the
// URLs RevocationCrawler::CollectUrls would find, read straight from the
// simulated internet instead of a scanned pipeline). The world's SimNet
// runs under a seeded net::FaultPlan: timeouts, 5xx bursts and bodies cut
// mid-transfer on every host, so the retry path runs, plus a three-day
// outage of one CA's CRL host, so the stale-serve path runs. The run calls
// RevocationCrawler::CrawlAll once per day over the crawl window.
//
// Bit-flipped bodies are left out of the plan: the crawler validates a body
// only by parsing it, so a flipped serial or date that still parses lands
// in the revocation database and fails the soundness check. `--inject
// corrupt` adds them back and shows that failure.
#include <algorithm>
#include <map>
#include <set>

#include "core/crawler.h"
#include "core/ecosystem.h"
#include "crl/crl.h"
#include "harness.h"
#include "net/fault.h"

namespace revbench {
namespace {

using namespace rev;

constexpr double kScale = 0.002;
// The calibrated world is fixed (the ecosystem's default seed), so every
// seed crawls the same CAs and CRLs; --seed drives the fault plan.
constexpr std::uint64_t kWorldSeed = 20151028;

struct World {
  std::unique_ptr<core::Ecosystem> eco;
  std::unique_ptr<net::FaultPlan> plan;
  std::vector<std::string> urls;
};

World BuildWorld(std::uint64_t seed, double scale, bool corrupt) {
  World w;
  core::EcosystemConfig config;
  config.seed = kWorldSeed;
  config.scale = scale;
  w.eco = core::Ecosystem::Build(config);
  const core::EcosystemConfig& c = w.eco->config();
  std::set<std::string> urls;
  scan::Internet& internet = w.eco->internet();
  for (std::size_t i = 0; i < internet.size(); ++i) {
    const scan::Server& server = internet.server(i);
    if (server.birth > c.study_end ||
        (server.death != 0 && server.death <= c.study_start))
      continue;
    for (const std::string& url : server.leaf->tbs.crl_urls) urls.insert(url);
    for (const x509::CertPtr& cert : server.chain)
      if (cert)
        for (const std::string& url : cert->tbs.crl_urls) urls.insert(url);
  }
  w.urls.assign(urls.begin(), urls.end());

  w.plan = std::make_unique<net::FaultPlan>(seed);
  w.plan->AddRule({.target = {}, .kind = net::FaultKind::kTimeout, .probability = 0.02});
  w.plan->AddRule({.target = {}, .kind = net::FaultKind::kHttpError,
                   .probability = 0.03,
                   .http_status = 503,
                   .retry_after = 5});
  w.plan->AddRule({.target = {}, .kind = net::FaultKind::kTruncate, .probability = 0.02});
  if (corrupt)
    w.plan->AddRule({.target = {}, .kind = net::FaultKind::kCorrupt, .probability = 0.02});
  // One CA's CRL host is down for three days in the middle of the window.
  std::string outage_host;
  for (const core::Ecosystem::CaEntry& entry : w.eco->cas()) {
    if (std::find(w.urls.begin(), w.urls.end(), entry.ca->CrlUrl(0)) !=
        w.urls.end()) {
      outage_host = entry.ca->CrlHost();
      break;
    }
  }
  const util::Timestamp mid = c.crawl_start + (c.study_end - c.crawl_start) / 2;
  w.plan->AddRule({.target = outage_host,
                   .kind = net::FaultKind::kOutage,
                   .start = mid,
                   .end = mid + 3 * util::kSecondsPerDay});
  w.eco->net().SetFaultPlan(w.plan.get());
  return w;
}

// Ground truth from the CAs: every revocation each CA made, keyed the way
// the crawler's database is, plus which URL (CA shard) lists it.
struct Truth {
  struct Rev {
    util::Timestamp revoked_at;
    util::Timestamp not_after;
    x509::ReasonCode reason;
    std::string url;
  };
  std::map<core::RevocationDb::Key, Rev, core::RevocationDb::KeyLess> revs;
};

Truth CollectTruth(const core::Ecosystem& eco) {
  Truth truth;
  for (const core::Ecosystem::CaEntry& entry : eco.cas()) {
    const Bytes name = entry.ca->cert()->tbs.subject.Encode();
    for (const auto& r : entry.ca->CurrentRevocations(0)) {
      truth.revs[{name, r.serial}] = {
          r.revoked_at, r.cert_expiry, r.reason,
          entry.ca->CrlUrl(entry.ca->ShardForSerial(r.serial))};
    }
  }
  return truth;
}

// One crawl window over a fresh world, checked against the CAs.
struct Trial {
  double crawl_s = 0;
  std::vector<double> visit_ms;
  std::size_t entries = 0;
  std::uint64_t unsound = 0, missing = 0, visits = 0, fetch_failures = 0;
  std::uint64_t bytes = 0, stale = 0, faults = 0, first_seen_early = 0;
  std::size_t urls = 0, urls_never_good = 0;
  obs::HistogramSnapshot fetch;
  std::uint64_t cache_hits = 0, retries = 0, gave_up = 0, corrupt = 0;
};

Trial CrawlWindow(World& w, int days, unsigned threads, bool inject_wrong) {
  Trial t;
  const core::EcosystemConfig& c = w.eco->config();
  core::RevocationCrawler crawler(&w.eco->net(), threads);
  for (const std::string& url : w.urls) crawler.AddUrl(url);
  const obs::MetricsSnapshot before = RegistrySnapshot();
  {
    obs::Span window("bench.crawl_window");
    for (int d = 0; d < days; ++d) {
      const util::Timestamp now = c.crawl_start + d * util::kSecondsPerDay;
      obs::Span visit("core.crawl_all");
      const auto t0 = Clock::now();
      crawler.CrawlAll(now);
      const double s = SecondsSince(t0);
      t.crawl_s += s;
      t.visit_ms.push_back(s * 1e3);
    }
  }
  const RegistryDelta delta(before, RegistrySnapshot());

  // Correctness, outside the timed section. Soundness: every database
  // entry is a revocation its CA made, with the CA's time and reason, and
  // it was made before the end of the daily visit that first saw it. The
  // crawler stamps an entry with the visit's start time, while a retried
  // fetch gets its CRL up to minutes later, so a revocation made in between
  // reads as seen seconds before it happened; those are counted, not
  // failed. Completeness: each URL with
  // a good snapshot lists every revocation its CA had in force when that
  // CRL was built; only URLs that never returned a good CRL may miss any.
  const Truth truth = CollectTruth(*w.eco);
  std::vector<std::pair<core::RevocationDb::Key, core::RevocationInfo>>
      entries(crawler.revocations().begin(), crawler.revocations().end());
  if (inject_wrong) {  // self-test hook: tamper with one sound entry
    for (auto& [key, info] : entries) {
      if (truth.revs.count({key.first, key.second}) != 0) {
        info.revoked_at += 1;
        break;
      }
    }
  }
  for (const auto& [key, info] : entries) {
    auto it = truth.revs.find({key.first, key.second});
    if (it == truth.revs.end() || it->second.revoked_at != info.revoked_at ||
        it->second.reason != info.reason ||
        info.revoked_at >= info.first_seen_in_crl + util::kSecondsPerDay)
      ++t.unsound;
    else if (info.revoked_at > info.first_seen_in_crl)
      ++t.first_seen_early;
  }
  for (const std::string& url : w.urls)
    t.urls_never_good += crawler.crawled().count(url) == 0;
  for (const auto& [key, rev] : truth.revs) {
    auto snap = crawler.crawled().find(rev.url);
    if (snap == crawler.crawled().end()) continue;
    const util::Timestamp built = snap->second.this_update;
    if (rev.revoked_at <= built && rev.not_after >= built &&
        crawler.db().Lookup(key.first, key.second) == nullptr)
      ++t.missing;
  }
  t.entries = entries.size();
  t.urls = w.urls.size();
  t.visits = static_cast<std::uint64_t>(days) * w.urls.size();
  t.fetch_failures = crawler.fetch_failures();
  t.bytes = crawler.bytes_downloaded();
  t.stale = crawler.stale_served();
  t.faults = w.plan->total_injected();
  t.fetch = delta.Histogram("crawl.fetch_ns");
  t.cache_hits = delta.Counter("crawl.cache_hits");
  t.retries = delta.Counter("net.retries");
  t.gave_up = delta.Counter("net.fetch_gave_up");
  t.corrupt = delta.Counter("net.corrupt_bodies");
  return t;
}

}  // namespace

void RunCrlCrawl(const Options& options, Report& report) {
  const double scale = options.tiny ? 0.0005 : kScale;
  std::vector<double> setups;
  auto build = [&] {
    const auto t0 = Clock::now();
    World w = BuildWorld(options.seed, scale, options.inject == "corrupt");
    setups.push_back(SecondsSince(t0));
    return w;
  };
  World world;
  for (int k = 0; k < 3; ++k) {
    world = World{};
    world = build();
  }
  // A copy: `world` is rebuilt between trials.
  const core::EcosystemConfig c = world.eco->config();
  const int days = options.tiny
                       ? 20
                       : static_cast<int>((c.study_end - c.crawl_start) /
                                          util::kSecondsPerDay) +
                             1;
  report.Note("workload crl_crawl: scale " + std::to_string(scale) + ", " +
              std::to_string(world.urls.size()) + " CRL URLs, " +
              std::to_string(days) + " daily visits, " +
              std::to_string(options.threads) +
              " crawler threads; fault plan seed " +
              std::to_string(options.seed));

  // Trials, each a crawl window over a fresh world. A traced run first
  // crawls two untraced windows: one on the worker threads, for the
  // tracing overhead, and one on a single crawler thread, for how much the
  // threads overlap (wall on 1 thread / wall on the workers: 1.0 means the
  // crawl is serialized).
  const bool wrong = options.inject == "wrong";
  std::vector<Trial> trials;
  double untraced_s = 0, one_thread_s = 0;
  if (options.trace) {
    untraced_s = CrawlWindow(world, days, options.threads, false).crawl_s;
    world = World{};
    world = build();
    one_thread_s = CrawlWindow(world, days, 1, false).crawl_s;
    world = World{};
    world = build();
    StartTracing();
    trials.push_back(CrawlWindow(world, days, options.threads, wrong));
  } else {
    // A window takes about 8 s on a 4-vCPU VM; the trial count is a
    // function of --seconds alone, so memory and work do not depend on
    // how fast this particular run went.
    const int count = std::max(1, static_cast<int>(options.seconds / 10 + 0.5));
    while (static_cast<int>(trials.size()) < count) {
      if (!trials.empty()) {
        world = World{};
        world = build();
      }
      trials.push_back(CrawlWindow(world, days, options.threads, wrong));
    }
  }
  report.Metric("setup_s", Median(setups), "s");

  std::uint64_t unsound = 0, missing = 0, visits = 0, failures = 0;
  std::vector<double> crawl_s, rate, visit_ms;
  for (const Trial& t : trials) {
    unsound += t.unsound;
    missing += t.missing;
    visits += t.visits;
    failures += t.fetch_failures;
    crawl_s.push_back(t.crawl_s);
    rate.push_back(static_cast<double>(t.visits) / t.crawl_s);
    visit_ms.insert(visit_ms.end(), t.visit_ms.begin(), t.visit_ms.end());
  }
  const Trial& t = trials.back();
  report.Check(unsound == 0,
               std::to_string(t.entries) +
                   " database entries per crawl match a CA revocation (" +
                   std::to_string(unsound) + " over " +
                   std::to_string(trials.size()) + " crawl(s) do not)");
  report.Check(missing == 0,
               "every revocation listed in a good snapshot is in the "
               "database (" + std::to_string(missing) + " missing, " +
                   std::to_string(t.urls_never_good) +
                   " URLs never returned a good CRL)");
  report.Count(visits, unsound + missing);

  const Summary s = Summarize(visit_ms);
  NoteSummary(report, "CrawlAll visit", s, "ms");
  report.Note("trials: " + std::to_string(trials.size()) +
              "; crawl_s is job_s, URL-visits per second is throughput_per_s");
  report.Metric("job_s", Median(crawl_s), "s");
  report.Metric("throughput_per_s", Median(rate), "1/s");
  report.Metric("p50_us", s.p50 * 1e3, "us");
  report.Metric("tail_us", s.tail * 1e3, "us");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("fail_ratio",
                static_cast<double>(failures) / static_cast<double>(visits),
                "ratio");
  if (!options.trace) return;

  report.Metric("core.crawl_all_ms.p50", s.p50, "ms");
  report.Metric("core.crawl_all_ms.p90", Quantile(visit_ms, 0.9), "ms");
  report.Metric("crawl.fetch_ns.p50", t.fetch.Quantile(0.5), "ns");
  report.Metric("crawl.fetch_ns.p99", t.fetch.Quantile(0.99), "ns");
  report.Metric("crawl.overlap", one_thread_s / untraced_s, "ratio");
  report.Metric("crawl.cache_hit_ratio",
                static_cast<double>(t.cache_hits) / static_cast<double>(t.visits),
                "ratio");
  report.Metric("crawl.bytes_downloaded", static_cast<double>(t.bytes), "bytes");
  report.Metric("net.retries", static_cast<double>(t.retries), "count");
  report.Metric("net.fetch_gave_up", static_cast<double>(t.gave_up), "count");
  report.Metric("net.corrupt_bodies", static_cast<double>(t.corrupt), "count");
  report.Metric("net.faults_injected", static_cast<double>(t.faults), "count");
  report.Metric("crawl.stale_served", static_cast<double>(t.stale), "count");
  report.Metric("crawl.first_seen_early", static_cast<double>(t.first_seen_early),
                "count");
  report.Metric("input.crl_count", static_cast<double>(t.urls), "count");
  report.Metric("threads.used", options.threads, "count");

  // Side passes: crl::ParseCrl over the final bodies (each crawled CRL as
  // its CA serves it on the last crawl day), and the CA-side CRL rebuild
  // (CertificateAuthority::GetCrl at a day no CRL is fresh for).
  {
    std::vector<Bytes> bodies;
    for (const core::Ecosystem::CaEntry& entry : world.eco->cas())
      for (int shard = 0; shard < entry.ca->options().num_crl_shards; ++shard)
        if (std::binary_search(world.urls.begin(), world.urls.end(),
                               entry.ca->CrlUrl(shard)))
          bodies.push_back(entry.ca->GetCrl(shard, c.study_end).der);
    obs::Span span("crl.side_parse_crl");
    std::uint64_t entries_parsed = 0;
    const std::uint64_t t0 = NowNs();
    for (int rep = 0; rep < 3; ++rep) {
      for (const Bytes& body : bodies) {
        const auto parsed = crl::ParseCrl(body);
        entries_parsed += parsed ? parsed->tbs.entries.size() : 0;
      }
    }
    const double ns = static_cast<double>(NowNs() - t0);
    report.Metric("crl.parse_ns_per_entry",
                  ns / static_cast<double>(std::max<std::uint64_t>(1, entries_parsed)),
                  "ns");
  }
  {
    obs::Span span("ca.side_crl_rebuild");
    const util::Timestamp fresh = c.study_end + 3 * util::kSecondsPerDay;
    std::size_t rebuilt = 0;
    const std::uint64_t t0 = NowNs();
    for (const core::Ecosystem::CaEntry& entry : world.eco->cas()) {
      for (int shard = 0; shard < entry.ca->options().num_crl_shards; ++shard) {
        if (!std::binary_search(world.urls.begin(), world.urls.end(),
                                entry.ca->CrlUrl(shard)))
          continue;
        Keep(entry.ca->GetCrl(shard, fresh).der.size());
        ++rebuilt;
      }
    }
    const double ns = static_cast<double>(NowNs() - t0);
    report.Metric("ca.crl_rebuild_ms",
                  ns / 1e6 / static_cast<double>(std::max<std::size_t>(1, rebuilt)),
                  "ms");
  }
  ReportTrace(report, options, untraced_s, t.crawl_s);
}

}  // namespace revbench
