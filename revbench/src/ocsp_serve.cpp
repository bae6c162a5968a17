// ocsp_serve: independent OCSP clients as an open loop against
// serve::Frontend. Setup loads a population of serials into four issuers'
// ocsp::Responders, attaches them and precomputes every response with
// RebuildAll, and pre-encodes each request in both wire forms (POST DER
// and the RFC 6960 GET path). The query stream follows a Zipf popularity
// over the population, with a share of never-issued serials.
//
// The run offers fixed rates, one level at a time: a read-only ladder of
// rising rates (the highest rate served without a growing backlog), the
// nominal rate read-only (the end-to-end latency), and the nominal rate
// again while a writer thread revokes a steady stream of serials plus one
// Heartbleed-style burst of popular ones (the publication cost). Sender
// threads issue single requests at their due times and time each one from
// when it was due. Every answer is checked against ground truth after its
// level, outside the timed section.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "crypto/sha256.h"
#include "harness.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "x509/certificate.h"

namespace revbench {
namespace {

using namespace rev;

// Pinned workload parameters (see revbench/README.md).
constexpr util::Timestamp kNow = 1'427'760'000;  // 2015-03-31
constexpr int kIssuers = 4;
// The request mix of bench/bench_serve.cpp (a mature CA's responder): 8 %
// of the population is revoked and 2 % of the queries ask about serials
// the CA never issued. Those are signed on every request (never cached).
constexpr double kInitialRevoked = 0.08;
constexpr double kUnknownShare = 0.02;
constexpr double kGetShare = 0.7;        // GET form; the rest POST
constexpr double kZipfS = 1.0;
constexpr double kNominalQps = 50'000;      // well below the read-only knee
// A level keeps up when the median lateness over its second half stays
// under this: above capacity the backlog, and so the lateness, grows.
constexpr double kBacklogLimitUs = 100;
constexpr double kLadderStep = 1.25;
// The ladder stops at two misses in a row. The generator cannot offer an
// unbounded rate, so misses always come; this cap (x1.25^24 = 211 times
// the start) only stops a broken search, which fails the run.
constexpr int kMaxRungs = 24;
constexpr double kLevelShare = 0.0125;  // of --seconds, per capacity level
constexpr std::size_t kSearches = 3;
constexpr int kNominalParts = 6;
constexpr double kSteadyRevokesPerSec = 20;
constexpr std::size_t kBurst = 100;         // Heartbleed-style burst
constexpr std::size_t kPopular = 10'000; // burst victims come from these ranks
constexpr std::uint32_t kGetBit = 1u << 31;

x509::Serial SerialOf(std::uint32_t id) {
  // Fixed, nonzero, < 0x80 leading byte: survives DER INTEGER round trips.
  x509::Serial serial(8);
  serial[0] = 0x4D;
  for (int b = 1; b < 8; ++b)
    serial[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((static_cast<std::uint64_t>(id) >> (8 * (7 - b))) & 0xFF);
  return serial;
}

struct Population {
  std::size_t serials = 0;   // issued: ids [0, serials)
  std::size_t unknown = 0;   // never issued: ids [serials, serials + unknown)
  std::vector<std::unique_ptr<x509::Certificate>> issuer_certs;
  std::vector<std::unique_ptr<ocsp::Responder>> responders;
  std::unique_ptr<serve::Frontend> frontend;
  std::vector<std::uint8_t> initially_revoked;  // per issued id
  // Pre-encoded requests per id.
  std::vector<std::uint8_t> der;
  std::vector<std::uint64_t> der_off;
  std::string get;
  std::vector<std::uint64_t> get_off;
  // Query stream: id | kGetBit, cycled through level by level.
  std::vector<std::uint32_t> queries;
  // Revocation plan: steady victims (uniform over good serials) and burst
  // victims (popular good serials), consumed in order.
  std::vector<std::uint32_t> steady_victims;
  std::vector<std::uint32_t> burst_victims;
  double rebuild_all_s = 0;

  BytesView Der(std::uint32_t id) const {
    return {der.data() + der_off[id], der_off[id + 1] - der_off[id]};
  }
  std::string_view Get(std::uint32_t id) const {
    return std::string_view(get).substr(get_off[id], get_off[id + 1] - get_off[id]);
  }
};

std::unique_ptr<Population> Setup(std::uint64_t seed, std::size_t serials,
                                  std::size_t stream, unsigned threads) {
  auto pop = std::make_unique<Population>();
  pop->serials = serials;
  pop->unknown = std::max<std::size_t>(1, serials / 50);
  util::Rng rng(seed);
  std::vector<ocsp::CertId> templates;
  for (int i = 0; i < kIssuers; ++i) {
    const crypto::KeyPair key =
        crypto::SimKeyFromLabel("bench-ocsp-issuer:" + std::to_string(i));
    x509::TbsCertificate tbs;
    tbs.serial = x509::Serial{static_cast<std::uint8_t>(0x70 + i)};
    tbs.issuer = tbs.subject =
        x509::Name::Make("Bench OCSP CA " + std::to_string(i + 1), "Bench");
    tbs.not_before = 0;
    tbs.not_after = kNow + 400 * util::kSecondsPerDay;
    tbs.public_key = key.Public();
    tbs.basic_constraints = {true, -1};
    pop->issuer_certs.push_back(
        std::make_unique<x509::Certificate>(x509::SignCertificate(tbs, key)));
    pop->responders.push_back(
        std::make_unique<ocsp::Responder>(*pop->issuer_certs.back(), key));
    templates.push_back(ocsp::MakeCertId(*pop->issuer_certs.back(), {}));
  }
  pop->initially_revoked.assign(serials, 0);
  for (std::uint32_t id = 0; id < serials; ++id) {
    ocsp::Responder& responder = *pop->responders[id % kIssuers];
    const x509::Serial serial = SerialOf(id);
    responder.AddCertificate(serial);
    if (rng.Chance(kInitialRevoked)) {
      responder.Revoke(serial, kNow - 30 * util::kSecondsPerDay,
                       x509::ReasonCode::kKeyCompromise);
      pop->initially_revoked[id] = 1;
    }
  }
  serve::FrontendOptions options;
  options.threads = threads;
  pop->frontend = std::make_unique<serve::Frontend>(options);
  for (auto& responder : pop->responders)
    pop->frontend->AttachResponder(responder.get());
  const auto rebuild_start = Clock::now();
  pop->frontend->RebuildAll(kNow);
  pop->rebuild_all_s = SecondsSince(rebuild_start);

  // Requests, encoded in parallel chunks and concatenated in id order.
  const std::size_t ids = serials + pop->unknown;
  constexpr std::size_t kChunk = 8192;
  const std::size_t chunks = (ids + kChunk - 1) / kChunk;
  std::vector<std::vector<std::uint8_t>> der(chunks);
  std::vector<std::string> get(chunks);
  std::vector<std::vector<std::uint32_t>> der_len(chunks), get_len(chunks);
  util::ThreadPool pool(threads);
  pool.ParallelFor(chunks, [&](std::size_t c) {
    ocsp::OcspRequest request;
    request.cert_ids.resize(1);
    for (std::size_t id = c * kChunk; id < std::min(ids, (c + 1) * kChunk); ++id) {
      request.cert_ids[0] = templates[id % kIssuers];
      request.cert_ids[0].serial = SerialOf(static_cast<std::uint32_t>(id));
      const Bytes encoded = ocsp::EncodeOcspRequest(request);
      der[c].insert(der[c].end(), encoded.begin(), encoded.end());
      der_len[c].push_back(static_cast<std::uint32_t>(encoded.size()));
      const std::string path = ocsp::OcspGetPath(request);
      get[c] += path;
      get_len[c].push_back(static_cast<std::uint32_t>(path.size()));
    }
  });
  pop->der_off.push_back(0);
  pop->get_off.push_back(0);
  for (std::size_t c = 0; c < chunks; ++c) {
    pop->der.insert(pop->der.end(), der[c].begin(), der[c].end());
    pop->get += get[c];
    for (const std::uint32_t n : der_len[c]) pop->der_off.push_back(pop->der_off.back() + n);
    for (const std::uint32_t n : get_len[c]) pop->get_off.push_back(pop->get_off.back() + n);
  }

  // Popularity: Zipf(s = 1) over ranks, ranks shuffled onto ids so that
  // popularity is independent of serial order and shard.
  std::vector<std::uint32_t> by_rank(serials);
  for (std::uint32_t i = 0; i < serials; ++i) by_rank[i] = i;
  for (std::size_t k = serials; k > 1; --k)
    std::swap(by_rank[k - 1], by_rank[rng.NextBelow(k)]);
  const double log_n = std::log(static_cast<double>(serials) + 1);
  pop->queries.resize(stream);
  for (std::uint32_t& q : pop->queries) {
    std::uint32_t id;
    if (rng.Chance(kUnknownShare)) {
      id = static_cast<std::uint32_t>(serials + rng.NextBelow(pop->unknown));
    } else {
      // Continuous Zipf(1) inverse CDF on [1, n + 1).
      const auto rank = static_cast<std::size_t>(
          std::exp(rng.UniformDouble() * log_n) - 1);
      id = by_rank[std::min(rank, serials - 1)];
    }
    q = id | (rng.Chance(kGetShare) ? kGetBit : 0);
  }
  std::vector<std::uint8_t> taken(pop->initially_revoked);
  for (std::size_t r = 0; r < std::min(kPopular, serials); ++r) {
    const std::uint32_t id = by_rank[r];
    if (!taken[id] && rng.Chance(0.5)) {
      pop->burst_victims.push_back(id);
      taken[id] = 1;
    }
  }
  for (std::size_t k = 0; k < serials; ++k) {
    const auto id = static_cast<std::uint32_t>(rng.NextBelow(serials));
    if (!taken[id]) {
      pop->steady_victims.push_back(id);
      taken[id] = 1;
    }
  }
  return pop;
}

// One answered request, kept until the level's check.
struct Answer {
  std::shared_ptr<const Bytes> body;
  std::uint32_t id = 0;
  int http = 0;
  std::uint64_t due = 0, send = 0, done = 0;  // ns since the level start
};

struct RevokeEvent {
  std::uint32_t id = 0;
  std::uint64_t at = 0;  // ns since the level start
  bool burst = false;
};

struct Level {
  double rate = 0;
  double seconds = 0;
  std::vector<double> latency_us;  // from due time
  std::vector<double> late_us;     // send - due
  std::vector<double> call_ns;     // send -> done
  std::vector<double> revoke_ns;
  double burst_s = 0;
  std::vector<double> publish_s;   // steady revocations: Revoke -> published
  std::uint64_t requests = 0, non200 = 0, shed = 0, timeouts = 0;
  std::uint64_t wrong = 0, either = 0, revoked_answers = 0, unknown_queries = 0;
  std::uint64_t burst_queries = 0;
  std::int64_t max_queue_depth = 0;
  double late_end_us = 0;  // median lateness over the second half
  Summary lat;
  bool pass = false;
};

class OpenLoop {
 public:
  OpenLoop(Population& pop, unsigned threads)
      : pop_(pop), senders_(std::max(1u, threads > 2 ? threads - 2 : 1)) {
    revoke_start_.assign(pop.serials, 0);
    revoke_end_.assign(pop.serials, 0);
    for (std::size_t s = 0; s < pop.frontend->options().num_shards; ++s)
      gauges_.push_back(&obs::MetricsRegistry::Global().GetGauge(
          "serve.queue_depth{" + pop.frontend->metrics_label() +
          ",shard=" + std::to_string(s) + "}"));
    status_updates_ = &obs::MetricsRegistry::Global().GetCounter(
        "serve.status_updates{" + pop.frontend->metrics_label() + "}");
    updates_base_ = status_updates_->Value();
  }

  unsigned senders() const { return senders_; }

  // Offers `rate` for `seconds`; returns the level with every answer
  // checked. With `writes`, the writer revokes the steady stream and one
  // burst at mid-level. `inject_wrong` flips one expected answer (self-test).
  Level Run(double rate, double seconds, bool writes, bool inject_wrong) {
    Level level;
    level.rate = rate;
    level.seconds = seconds;
    const auto count = static_cast<std::size_t>(rate * seconds);
    const double period_ns = 1e9 / rate;

    // This level's revocations: a steady stream, plus the burst at the
    // middle of the level.
    std::vector<RevokeEvent> events;
    const auto steady =
        writes ? static_cast<std::size_t>(kSteadyRevokesPerSec * seconds) : 0;
    for (std::size_t k = 0; k < steady && steady_next_ < pop_.steady_victims.size(); ++k)
      events.push_back({pop_.steady_victims[steady_next_++],
                        static_cast<std::uint64_t>(k * 1e9 / kSteadyRevokesPerSec),
                        false});
    const auto mid = static_cast<std::uint64_t>(seconds * 0.5e9);
    if (writes) {
      for (std::size_t k = 0; k < kBurst && burst_next_ < pop_.burst_victims.size(); ++k)
        events.push_back({pop_.burst_victims[burst_next_++], mid, true});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const RevokeEvent& a, const RevokeEvent& b) { return a.at < b.at; });

    std::vector<std::vector<Answer>> answers(senders_);
    const std::uint64_t t0 = NowNs() + 2'000'000;  // threads start first
    std::vector<std::thread> threads;
    for (unsigned j = 0; j < senders_; ++j) {
      threads.emplace_back([&, j] {
        obs::Span span("bench.sender");
        std::vector<Answer>& out = answers[j];
        out.reserve(count / senders_ + 1);
        for (std::size_t k = j; k < count; k += senders_) {
          const std::uint64_t due =
              static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
          std::uint64_t now = NowNs();
          while (now < t0 + due) {
            Pause();
            now = NowNs();
          }
          const std::uint32_t q = pop_.queries[query_next_ + k < pop_.queries.size()
                                                   ? query_next_ + k
                                                   : (query_next_ + k) % pop_.queries.size()];
          const std::uint32_t id = q & ~kGetBit;
          serve::Frontend::ServeResult result =
              (q & kGetBit) != 0 ? pop_.frontend->ServeGetPath(pop_.Get(id), kNow)
                                 : pop_.frontend->Serve(pop_.Der(id), kNow);
          const std::uint64_t done = NowNs();
          out.push_back({std::move(result.body), id, result.http_status, due,
                         now - t0, done - t0});
        }
      });
    }
    // Writer: this thread's revocations, sampling queue depth between them.
    {
      obs::Span span("bench.writer");
      const std::uint64_t end = static_cast<std::uint64_t>(seconds * 1e9);
      std::size_t e = 0;
      std::uint64_t revoke_total = 0;
      while (true) {
        const std::uint64_t now = NowNs();
        if (now >= t0 + end && e == events.size()) break;
        if (e < events.size() && now >= t0 + events[e].at) {
          // Every event due now (a burst is many at once): revoke each,
          // then publish and wait until the frontend has applied them all.
          // A serial counts as revoked from its Revoke() call until that
          // publication; answers in that window may read either way.
          bool burst = false;
          const std::size_t first = e;
          for (; e < events.size() && NowNs() >= t0 + events[e].at; ++e) {
            const RevokeEvent& ev = events[e];
            burst = burst || ev.burst;
            const x509::Serial serial = SerialOf(ev.id);
            const std::uint64_t s = NowNs();
            pop_.responders[ev.id % kIssuers]->Revoke(
                serial, kNow - 60, x509::ReasonCode::kKeyCompromise);
            const std::uint64_t f = NowNs();
            revoke_start_[ev.id] = s;
            revoke_total += f - s;
            level.revoke_ns.push_back(static_cast<double>(f - s));
            ++revocations_;
          }
          pop_.frontend->Flush();
          while (status_updates_->Value() - updates_base_ < revocations_) Pause();
          const std::uint64_t published = NowNs();
          for (std::size_t k = first; k < e; ++k)
            revoke_end_[events[k].id] = published;
          const double publish =
              static_cast<double>(published - revoke_start_[events[first].id]) * 1e-9;
          if (burst)
            level.burst_s += publish;
          else
            level.publish_s.push_back(publish);
          continue;
        }
        // Idle: sample the queue-depth gauges, then sleep until the next
        // event (at most 200 us), leaving the cores to the senders.
        std::int64_t depth = 0;
        for (const obs::Gauge* g : gauges_) depth = std::max(depth, g->Value());
        level.max_queue_depth = std::max(level.max_queue_depth, depth);
        const std::uint64_t next =
            e < events.size() ? t0 + events[e].at : t0 + end;
        const std::uint64_t wake = NowNs();
        if (next > wake)
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::uint64_t>(next - wake, 200'000)));
      }
      FoldTime("ocsp", "bench", revoke_total);
    }
    for (std::thread& t : threads) t.join();
    query_next_ = (query_next_ + count) % pop_.queries.size();

    Check(level, answers, t0, inject_wrong);
    return level;
  }

 private:
  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  // Expected status of `id` for a request sent at `send` and answered at
  // `done` (absolute ns): 0 good, 1 revoked, 2 unknown, 3 either (the
  // request was in flight while its serial was being revoked).
  int Expected(std::uint32_t id, std::uint64_t send, std::uint64_t done) const {
    if (id >= pop_.serials) return 2;
    if (pop_.initially_revoked[id]) return 1;
    const std::uint64_t rs = revoke_start_[id], re = revoke_end_[id];
    if (re != 0 && send > re) return 1;
    if (rs == 0 || done < rs) return 0;
    return 3;
  }

  void Check(Level& level, std::vector<std::vector<Answer>>& answers,
             std::uint64_t t0, bool inject_wrong) {
    std::vector<double> late_tail;
    const auto count = static_cast<std::size_t>(level.rate * level.seconds);
    std::vector<std::uint64_t> wrong(answers.size(), 0), either(answers.size(), 0),
        revoked(answers.size(), 0), bursty(answers.size(), 0);
    util::ThreadPool pool(static_cast<unsigned>(answers.size()));
    pool.ParallelFor(answers.size(), [&](std::size_t j) {
      std::unordered_map<const Bytes*, std::pair<int, Bytes>> parsed;
      for (const Answer& a : answers[j]) {
        if (a.http != 200 || !a.body) continue;
        auto it = parsed.find(a.body.get());
        if (it == parsed.end()) {
          const auto response = ocsp::ParseOcspResponse(*a.body);
          std::pair<int, Bytes> v{-1, {}};
          if (response && response->status == ocsp::ResponseStatus::kSuccessful)
            v = {static_cast<int>(response->single.status),
                 response->single.cert_id.serial};
          it = parsed.emplace(a.body.get(), std::move(v)).first;
        }
        int expect = Expected(a.id, t0 + a.send, t0 + a.done);
        if (inject_wrong && j == 0 && &a == &answers[0].front())
          expect = expect == 0 ? 1 : 0;  // self-test hook
        const int got = it->second.first;
        const bool serial_ok = it->second.second == SerialOf(a.id);
        if (expect == 3) {
          ++either[j];
          if (!serial_ok || got == 2 || got < 0) ++wrong[j];
        } else if (!serial_ok || got != expect) {
          ++wrong[j];
        }
        revoked[j] += got == 1;
        bursty[j] += a.id < pop_.serials && revoke_end_[a.id] != 0 &&
                     t0 + a.send > revoke_end_[a.id];
      }
    });
    for (std::size_t j = 0; j < answers.size(); ++j) {
      level.wrong += wrong[j];
      level.either += either[j];
      level.revoked_answers += revoked[j];
      level.burst_queries += bursty[j];
    }
    level.latency_us.reserve(count);
    level.late_us.reserve(count);
    level.call_ns.reserve(count);
    const std::uint64_t second_half = static_cast<std::uint64_t>(level.seconds * 0.5e9);
    for (const auto& per_sender : answers) {
      for (const Answer& a : per_sender) {
        ++level.requests;
        if (a.http != 200) ++level.non200;
        if (a.http == 503) ++level.shed;
        const double lat = static_cast<double>(a.done - a.due) * 1e-3;
        if (lat > 1e6) ++level.timeouts;  // a second late counts as lost
        level.latency_us.push_back(lat);
        level.late_us.push_back(static_cast<double>(a.send - a.due) * 1e-3);
        level.call_ns.push_back(static_cast<double>(a.done - a.send));
        if (a.due >= second_half) late_tail.push_back(level.late_us.back());
        level.unknown_queries += a.id >= pop_.serials;
      }
    }
    level.late_end_us = Median(late_tail);
    level.lat = Summarize(level.latency_us);
    level.pass = level.shed == 0 && level.non200 == 0 &&
                 level.late_end_us <= kBacklogLimitUs;
  }

  Population& pop_;
  unsigned senders_;
  std::vector<std::uint64_t> revoke_start_, revoke_end_;
  std::vector<const obs::Gauge*> gauges_;
  const obs::Counter* status_updates_ = nullptr;
  std::uint64_t updates_base_ = 0;
  std::uint64_t revocations_ = 0;  // Revoke() calls made so far
  std::size_t query_next_ = 0, steady_next_ = 0, burst_next_ = 0;
};

// Consecutive levels at one rate as one: samples and counts pooled.
Level Merge(std::vector<Level> parts) {
  Level m = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    Level& p = parts[i];
    m.seconds += p.seconds;
    m.latency_us.insert(m.latency_us.end(), p.latency_us.begin(), p.latency_us.end());
    m.late_us.insert(m.late_us.end(), p.late_us.begin(), p.late_us.end());
    m.call_ns.insert(m.call_ns.end(), p.call_ns.begin(), p.call_ns.end());
    m.requests += p.requests;
    m.non200 += p.non200;
    m.shed += p.shed;
    m.timeouts += p.timeouts;
    m.wrong += p.wrong;
    m.either += p.either;
    m.revoked_answers += p.revoked_answers;
    m.unknown_queries += p.unknown_queries;
    m.burst_queries += p.burst_queries;
    m.max_queue_depth = std::max(m.max_queue_depth, p.max_queue_depth);
    m.late_end_us = std::max(m.late_end_us, p.late_end_us);
    m.pass = m.pass && p.pass;
  }
  m.lat = Summarize(m.latency_us);
  return m;
}

void NoteLevel(Report& report, const char* tag, const Level& l) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s %9.0f/s offered, %9.0f/s achieved: latency p50 %.2f us, "
                "p90 %.2f us, p%g %.2f us, p99.9 %.2f us (n=%zu); late p99 "
                "%.2f us, late at end %.2f us "
                "(backlog %.0f requests); shed %llu, wrong %llu, burst %.3f ms "
                "-> %s",
                tag, l.rate, static_cast<double>(l.requests) / l.seconds,
                l.lat.p50, Quantile(l.latency_us, 0.9), l.lat.tail_pct,
                l.lat.tail, Quantile(l.latency_us, 0.999), l.lat.n,
                Quantile(l.late_us, 0.99), l.late_end_us,
                l.late_end_us * 1e-6 * l.rate,
                static_cast<unsigned long long>(l.shed),
                static_cast<unsigned long long>(l.wrong), l.burst_s * 1e3,
                l.pass ? "meets limit" : "misses limit");
  report.Note(buf);
}

}  // namespace

void RunOcspServe(const Options& options, Report& report) {
  const std::size_t serials = options.tiny ? 20'000 : 200'000;
  const std::size_t stream = options.tiny ? 200'000 : 4'000'000;
  report.Note("workload ocsp_serve: " + std::to_string(serials) +
              " serials over " + std::to_string(kIssuers) + " issuers, " +
              std::to_string(options.threads) + " threads");
  std::vector<double> setups, rebuilds;
  std::unique_ptr<Population> pop;
  for (int k = 0; k < 3; ++k) {
    pop.reset();
    const auto t0 = Clock::now();
    pop = Setup(options.seed, serials, stream, options.threads);
    setups.push_back(SecondsSince(t0));
    rebuilds.push_back(pop->rebuild_all_s);
  }
  report.Metric("setup_s", Median(setups), "s");

  OpenLoop loop(*pop, options.threads);
  report.Note("open loop: " + std::to_string(loop.senders()) +
              " sender threads + 1 revocation writer; nominal " +
              std::to_string(static_cast<int>(kNominalQps)) +
              "/s with writes; read-only ladder x" + std::to_string(kLadderStep) +
              " until the backlog grows past " +
              std::to_string(static_cast<int>(kBacklogLimitUs)) +
              " us median lateness");
  const double budget = options.seconds;
  const bool wrong = options.inject == "wrong";
  const obs::MetricsSnapshot reg_start = RegistrySnapshot();

  loop.Run(kNominalQps, 0.03 * budget, false, false);  // warm-up
  // Memory of the loaded, warmed responder, before the levels' own answer
  // buffers (which grow with the offered rate) are allocated.
  const double rss_mb = PeakRssMb();

  // Read-only capacity search. A level passes when it sheds nothing and
  // keeps up (kBacklogLimitUs); the knee is found by backlog growth, not
  // by a tail percentile, because tails here are set by how long the host
  // deschedules a spinning sender (a bare two-thread spin loop on the
  // reference VM sees gaps up to 8 ms). A miss is offered once more. The
  // ladder rises by kLadderStep until two rates in a row miss (a stretch
  // of host contention can fail one rate that the next one passes); three
  // bisection levels then narrow the bracket above the highest pass, and
  // the knee is its geometric midpoint. The search has no time limit, so a
  // faster frontend moves the knee instead of running the ladder out of
  // time. It runs kSearches times, the first from twice the nominal rate
  // and the others from two rungs below the first knee; the maximum rate
  // is the median knee, so one stretch of contention moves one search.
  std::deque<Level> levels;
  const double step_s = kLevelShare * budget;
  auto offer = [&](double rate, const char* tag) -> const Level& {
    obs::Span span("bench.level_ladder");
    for (int attempt = 0; attempt < 2; ++attempt) {
      levels.push_back(loop.Run(rate, step_s, false, false));
      NoteLevel(report, attempt == 0 ? tag : "retry  ", levels.back());
      if (levels.back().pass) break;
    }
    return levels.back();
  };
  auto search = [&](double start) {
    double pass_rate = start / kLadderStep, miss_rate = 0;
    int misses_in_row = 0, rungs = 0;
    for (double rate = start; misses_in_row < 2 && rungs < kMaxRungs;
         rate *= kLadderStep, ++rungs) {
      if (offer(rate, "ladder ").pass) {
        pass_rate = rate;
        miss_rate = 0;
        misses_in_row = 0;
      } else {
        if (miss_rate == 0) miss_rate = rate;
        ++misses_in_row;
      }
    }
    for (int k = 0; k < 3 && miss_rate != 0; ++k) {
      const double mid = std::sqrt(pass_rate * miss_rate);
      (offer(mid, "bisect ").pass ? pass_rate : miss_rate) = mid;
    }
    const bool bracketed = misses_in_row == 2;
    report.Note("search from " + std::to_string(start) + "/s: " +
                (bracketed ? "two misses in a row" : "no miss in the rung cap") +
                " after " + std::to_string(rungs) + " rungs; knee between " +
                std::to_string(pass_rate) + " and " +
                std::to_string(miss_rate) + " /s");
    return bracketed ? std::sqrt(pass_rate * miss_rate) : 0.0;
  };
  // The read-only nominal rate gives the end-to-end latency. It is offered
  // as kNominalParts levels, two before each capacity search, so the parts
  // sample the whole run, and the latencies are medians over the parts: a
  // stretch of host contention moves the parts and the search it overlaps.
  const double part_s = 0.2 * budget / kNominalParts;
  std::vector<Level> nominal_parts;
  std::vector<double> knees;
  while (knees.size() < kSearches) {
    for (int k = 0; k < kNominalParts / static_cast<int>(kSearches); ++k)
      nominal_parts.push_back(loop.Run(kNominalQps, part_s, false,
                                       wrong && nominal_parts.empty()));
    knees.push_back(search(
        knees.empty() ? 2 * kNominalQps
                      : std::max(2 * kNominalQps,
                                 knees.front() / (kLadderStep * kLadderStep))));
  }
  const double max_qps = Median(knees);
  report.Check(*std::min_element(knees.begin(), knees.end()) > 0,
               "every capacity search ended on two misses in a row (" +
                   std::to_string(levels.size()) + " levels, " +
                   std::to_string(static_cast<double>(levels.size()) * step_s) +
                   " s)");
  std::vector<double> part_p50, part_p90;
  for (const Level& part : nominal_parts) {
    part_p50.push_back(part.lat.p50);
    part_p90.push_back(Quantile(part.latency_us, 0.9));
  }
  const Level nominal = Merge(std::move(nominal_parts));
  NoteLevel(report, "nominal", nominal);

  // A traced run offers the read-only stretch once more, traced and in one
  // piece, for the per-layer metrics; the untraced parts above are its twin
  // for the tracing overhead. The writes level below is then traced too.
  std::vector<double> traced_p50;
  Level traced;
  std::optional<RegistryDelta> reg_traced;
  if (options.trace) {
    StartTracing();
    const obs::MetricsSnapshot before = RegistrySnapshot();
    std::vector<Level> parts;
    {
      obs::Span span("bench.level_nominal");
      for (int k = 0; k < kNominalParts; ++k) {
        parts.push_back(loop.Run(kNominalQps, part_s, false, false));
        traced_p50.push_back(parts.back().lat.p50);
      }
    }
    reg_traced.emplace(before, RegistrySnapshot());
    traced = Merge(std::move(parts));
    NoteLevel(report, "traced ", traced);
  }
  Level writes;
  {
    obs::Span span("bench.level_writes");
    writes = loop.Run(kNominalQps, 0.2 * budget, true, false);
  }
  NoteLevel(report, "writes ", writes);
  const RegistryDelta reg_run(reg_start, RegistrySnapshot());

  // Correctness over every level.
  std::uint64_t wrong_total = nominal.wrong + traced.wrong + writes.wrong,
                requests = nominal.requests + traced.requests + writes.requests,
                either = writes.either;
  for (const Level& l : levels) {
    wrong_total += l.wrong;
    requests += l.requests;
    either += l.either;
  }
  const std::uint64_t nominal_failed =
      nominal.non200 + nominal.timeouts + writes.non200 + writes.timeouts;
  report.Check(wrong_total == 0,
               std::to_string(requests) + " answers match ground truth (" +
                   std::to_string(wrong_total) + " wrong, " +
                   std::to_string(either) +
                   " in flight during their serial's revocation)");
  report.Check(nominal_failed == 0,
               "no shed, non-200 or timed-out answer at the nominal rate (" +
                   std::to_string(nominal_failed) + ")");
  report.Count(requests, wrong_total + nominal_failed);

  report.Note("median publish time of the steady revocations is job_s; "
              "max rate served without a growing backlog is throughput_per_s; read-only "
              "nominal latency from due time is p50_us/tail_us");
  report.Metric("job_s", Median(writes.publish_s), "s");
  report.Metric("throughput_per_s", max_qps, "1/s");
  report.Metric("p50_us", Median(part_p50), "us");
  // The tail is p90 from the due time. At microsecond service times, p99
  // (from the due time or of the service time alone) measures how often
  // the host deschedules a sender, and moves 2x between runs of the same
  // code; both p99s are reported per layer.
  report.Metric("tail_us", Median(part_p90), "us");
  report.Metric("peak_rss_mb", rss_mb, "MB");
  report.Metric("fail_ratio",
                static_cast<double>(nominal_failed) /
                    static_cast<double>(nominal.requests + writes.requests),
                "ratio");
  if (!options.trace) return;

  const Summary call = Summarize(traced.call_ns);
  const Summary late = Summarize(traced.late_us);
  NoteSummary(report, "nominal Serve/ServeGetPath call", call, "ns");
  NoteSummary(report, "nominal generator lateness", late, "us");
  report.Metric("serve.call_ns.p50", call.p50, "ns");
  report.Metric("serve.call_ns.p99", Quantile(traced.call_ns, 0.99), "ns");
  report.Metric("gen.late_us.p99", Quantile(traced.late_us, 0.99), "us");
  const obs::HistogramSnapshot lat = reg_traced->Histogram("serve.latency_ns");
  const obs::HistogramSnapshot batch = reg_traced->Histogram("serve.batch_size");
  report.Metric("serve.latency_ns.p50", lat.Quantile(0.5), "ns");
  report.Metric("serve.latency_ns.p99", lat.Quantile(0.99), "ns");
  report.Metric("serve.batch_size.mean", batch.Mean(), "count");
  report.Metric("serve.queue_depth.max",
                static_cast<double>(
                    std::max(traced.max_queue_depth, writes.max_queue_depth)),
                "count");
  const double reqs = static_cast<double>(reg_traced->Counter("serve.requests"));
  report.Metric("serve.cache_hit_ratio",
                static_cast<double>(reg_traced->Counter("serve.cache_hits")) /
                    std::max(1.0, reqs),
                "ratio");
  report.Metric("serve.signed_on_demand",
                static_cast<double>(reg_run.Counter("serve.signed_on_demand")),
                "count");
  report.Metric("serve.status_updates",
                static_cast<double>(reg_run.Counter("serve.status_updates")),
                "count");
  report.Metric("serve.shed", static_cast<double>(reg_run.Counter("serve.shed")),
                "count");
  report.Metric("serve.revoke_ns.p50", Quantile(writes.revoke_ns, 0.5), "ns");
  report.Metric("serve.revoke_ns.p99", Quantile(writes.revoke_ns, 0.99), "ns");
  report.Metric("serve.due_p99_us", Quantile(traced.latency_us, 0.99), "us");
  report.Metric("serve.writes_p50_us", writes.lat.p50, "us");
  report.Metric("serve.writes_p99_us", Quantile(writes.latency_us, 0.99), "us");
  report.Metric("serve.burst_publish_ms", writes.burst_s * 1e3, "ms");
  report.Metric("serve.rebuild_all_s", Median(rebuilds), "s");
  report.Metric("input.zipf_s", kZipfS, "exponent");
  report.Metric("input.revoked_share",
                static_cast<double>(writes.revoked_answers) /
                    static_cast<double>(writes.requests),
                "ratio");
  report.Metric("input.unknown_share",
                static_cast<double>(writes.unknown_queries) /
                    static_cast<double>(writes.requests),
                "ratio");
  report.Metric("input.burst_share",
                static_cast<double>(writes.burst_queries) /
                    static_cast<double>(writes.requests),
                "ratio");
  report.Metric("threads.used", loop.senders() + 1, "count");

  // Side passes: ocsp::ParseOcspRequest and SHA-256 over the same bytes
  // the frontend parses and signs.
  const std::size_t n = std::min<std::size_t>(pop->serials, 200'000);
  {
    obs::Span span("ocsp.side_parse_request");
    std::size_t ok = 0;
    const std::uint64_t t0 = NowNs();
    for (std::uint32_t id = 0; id < n; ++id)
      ok += ocsp::ParseOcspRequest(pop->Der(id)).has_value();
    report.Metric("ocsp.parse_request_ns",
                  static_cast<double>(NowNs() - t0) / static_cast<double>(n), "ns");
    Keep(ok);
  }
  {
    obs::Span span("crypto.side_sha256");
    std::vector<std::shared_ptr<const Bytes>> bodies;
    for (std::uint32_t id = 0; id < std::min<std::size_t>(n, 50'000); ++id)
      bodies.push_back(pop->frontend->Staple(
          pop->responders[id % kIssuers]->issuer_key_hash(), SerialOf(id), kNow));
    std::uint64_t bytes = 0;
    const std::uint64_t t0 = NowNs();
    for (const auto& body : bodies) {
      Keep(crypto::Sha256::Hash(*body)[0]);
      bytes += body->size();
    }
    const double ns = static_cast<double>(NowNs() - t0);
    report.Metric("crypto.sha256_ns", ns / static_cast<double>(bodies.size()), "ns");
    report.Metric("crypto.sha256_mb_per_s", static_cast<double>(bytes) * 1e3 / ns,
                  "MB/s");
  }
  ReportTrace(report, options, Median(part_p50), Median(traced_p50));
}

}  // namespace revbench
