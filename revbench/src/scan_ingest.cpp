// scan_ingest: the §3.1 pipeline fed the way a real scan arrives — DER
// chains (leaf, issuer) through Pipeline::ObserveDer, scan by scan — then
// Finalize() and the Fig. 1/2, Fig. 4, §3 and Table 1 analyses against a
// RevocationDb.
//
// Setup synthesizes every certificate (x509::SignCertificate, fanned out
// over the worker threads with one RNG stream per certificate, so the DER
// is identical at any thread count) and lays out the scans: each leaf is
// advertised from its birth scan to its death scan, so most observations
// are re-sightings; a fixed share of extra observations carry a truncated
// leaf or issuer and must be rejected. The population follows
// bench/bench_paper_scale.cpp, the repo's calibration of the paper's scan
// corpus: its trusted share, birth, lifetime, revocation and death models.
// Each trial ingests the same scans into a fresh Pipeline; the run repeats
// trials until its time is spent and reports medians.
#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <optional>

#include "asn1/oid.h"
#include "ca/ca.h"
#include "core/ca_audit.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/revocation_db.h"
#include "core/timeline.h"
#include "crypto/sha256.h"
#include "harness.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "x509/certificate.h"
#include "x509/view.h"

namespace revbench {
namespace {

using namespace rev;

constexpr int kScans = 8;
// Leaves chaining to a root: the paper's 5.07M Leaf Set out of 38.5M
// unique certificates (bench_paper_scale's REV_PAPER_VALID).
constexpr double kTrustedShare = 0.132;
// Share of each population already advertised at the first scan (the
// pre-study backlog, as in bench_paper_scale); the rest arrives evenly.
constexpr double kBacklogShare = 0.55;
// Revoked leaves whose server keeps advertising them (the paper's
// alive-and-revoked population, as in bench_paper_scale).
constexpr double kAliveRevokedShare = 0.04;
constexpr double kMalformedShare = 0.002; // extra malformed observations
constexpr std::uint32_t kMalformedBit = 1u << 31;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

x509::Serial MakeSerial(int bytes, std::uint8_t tag, std::uint64_t counter) {
  x509::Serial serial(static_cast<std::size_t>(bytes));
  serial[0] = 0x41;
  serial[1] = tag;
  std::uint64_t mix = Mix(counter);
  for (std::size_t i = 2; i + 8 < serial.size(); ++i) {
    serial[i] = static_cast<std::uint8_t>(mix);
    mix >>= 8;
  }
  for (int i = 0; i < 8; ++i)
    serial[serial.size() - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  return serial;
}

// An issuer of leaves: a calibrated CA under a trusted root, or an
// untrusted self-signed device issuer (most scanned certificates chain to
// nothing in the root store).
struct Issuer {
  bool trusted = false;
  std::string ca_name;
  ca::CertificateAuthority* ca = nullptr;  // trusted only
  crypto::KeyPair key;
  x509::Name name;
  Bytes name_der;
  x509::CertPtr cert;
  core::CaSpec spec;
  std::vector<std::size_t> shard_revoked;
  std::vector<std::size_t> shard_weight;
};

struct Leaf {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint16_t issuer = 0;
  std::uint8_t birth = 0;
  std::uint8_t death = 0;
};

struct Dataset {
  x509::CertPool roots;
  std::vector<std::unique_ptr<ca::CertificateAuthority>> owned_cas;
  std::vector<Issuer> issuers;
  std::vector<std::uint8_t> der;  // every leaf DER, back to back
  std::vector<Leaf> leaves;
  std::array<util::Timestamp, kScans> scan_times{};
  // Per scan: leaf indices in arrival order; kMalformedBit marks a
  // malformed copy (odd index: truncated leaf, even: truncated issuer).
  std::array<std::vector<std::uint32_t>, kScans> scans;
  core::RevocationDb db;
  std::vector<core::CrlSizeSample> samples;
  std::map<std::string, std::string> url_to_ca;
  util::Timestamp study_start = 0, study_end = 0;
  // What the generator expects the pipeline to report.
  std::uint64_t observations = 0;     // well-formed
  std::uint64_t malformed = 0;
  std::size_t expect_rows = 0;
  std::size_t expect_leaf_set = 0;
  std::size_t expect_intermediates = 0;

  BytesView LeafDer(std::uint32_t i) const {
    return {der.data() + leaves[i].offset, leaves[i].len};
  }
};

std::unique_ptr<Dataset> Generate(std::uint64_t seed, std::size_t num_leaves,
                                  unsigned threads) {
  auto ds = std::make_unique<Dataset>();
  core::EcosystemConfig times;
  times.ApplyDefaults();
  ds->study_start = times.study_start;
  ds->study_end = times.study_end;
  const std::int64_t step = (times.study_end - times.study_start) / (kScans - 1);
  for (int s = 0; s < kScans; ++s)
    ds->scan_times[static_cast<std::size_t>(s)] = times.study_start + s * step;

  util::Rng rng(seed);
  std::vector<ca::CertificateAuthority*> roots;
  for (int i = 0; i < 3; ++i) {
    ca::CertificateAuthority::Options o;
    o.name = "BenchRoot " + std::to_string(i + 1);
    o.domain = "root" + std::to_string(i + 1) + ".sim";
    auto root = ca::CertificateAuthority::CreateRoot(
        o, rng, util::MakeDate(2006, 1, 1), 25 * 365 * util::kSecondsPerDay);
    ds->roots.Add(root->cert());
    roots.push_back(root.get());
    ds->owned_cas.push_back(std::move(root));
  }
  double trusted_weight = 0;
  for (const core::CaSpec& spec : core::DefaultCaSpecs()) {
    ca::CertificateAuthority::Options o;
    o.name = spec.name;
    std::string domain = spec.name;
    for (char& c : domain) c = static_cast<char>(std::tolower(c));
    o.domain = domain + ".sim";
    o.num_crl_shards = spec.num_crls;
    o.serial_bytes = spec.serial_bytes;
    auto ca = roots[ds->issuers.size() % roots.size()]->CreateIntermediate(
        o, rng, util::MakeDate(2010, 1, 1), 12 * 365 * util::kSecondsPerDay);
    Issuer is;
    is.trusted = true;
    is.ca_name = spec.name;
    is.ca = ca.get();
    is.key = ca->key();
    is.cert = ca->cert();
    is.name = ca->cert()->tbs.subject;
    is.name_der = is.name.Encode();
    is.spec = spec;
    is.shard_revoked.assign(static_cast<std::size_t>(spec.num_crls), 0);
    is.shard_weight.assign(static_cast<std::size_t>(spec.num_crls), 0);
    for (int shard = 0; shard < spec.num_crls; ++shard)
      ds->url_to_ca[ca->CrlUrl(shard)] = spec.name;
    ds->url_to_ca[ca->OcspUrl()] = spec.name;
    trusted_weight += static_cast<double>(spec.paper_certs);
    ds->issuers.push_back(std::move(is));
    ds->owned_cas.push_back(std::move(ca));
  }
  const std::size_t num_trusted = ds->issuers.size();
  for (int i = 0; i < 16; ++i) {
    Issuer is;
    is.key = crypto::SimKeyFromLabel("bench-untrusted:" + std::to_string(i));
    is.name = x509::Name::Make("Device Issuer " + std::to_string(i + 1),
                               "SelfSigned Devices Inc");
    is.name_der = is.name.Encode();
    x509::TbsCertificate tbs;
    tbs.serial = MakeSerial(12, static_cast<std::uint8_t>(0xC0 + i), 1);
    tbs.issuer = tbs.subject = is.name;
    tbs.not_before = util::MakeDate(2009, 1, 1);
    tbs.not_after = tbs.not_before + 15 * 365 * util::kSecondsPerDay;
    tbs.public_key = is.key.Public();
    tbs.basic_constraints.is_ca = true;
    is.cert = std::make_shared<const x509::Certificate>(
        x509::SignCertificate(tbs, is.key));
    ds->issuers.push_back(std::move(is));
  }
  // Cumulative weights for picking a trusted CA by its paper share.
  std::vector<double> cumulative;
  double acc = 0;
  for (std::size_t i = 0; i < num_trusted; ++i) {
    acc += static_cast<double>(ds->issuers[i].spec.paper_certs) / trusted_weight;
    cumulative.push_back(acc);
  }

  const crypto::PublicKey leaf_key =
      crypto::SimKeyFromLabel("bench-leaf").Public();

  // Synthesis: chunks of leaves signed in parallel; each leaf draws from
  // its own RNG stream, so the bytes do not depend on the thread count.
  struct Revocation {
    std::uint32_t leaf;
    util::Timestamp at;
    util::Timestamp first_seen;
    x509::ReasonCode reason;
  };
  // The scan a time falls in: a leaf is last seen at the scan before it
  // expires (or is revoked).
  auto scan_of = [&](util::Timestamp t) {
    if (t <= ds->study_start) return 0;
    return static_cast<int>(std::min<std::int64_t>(
        (t - ds->study_start) / step, kScans - 1));
  };
  constexpr std::size_t kChunk = 4096;
  const std::size_t chunks = (num_leaves + kChunk - 1) / kChunk;
  std::vector<std::vector<std::uint8_t>> chunk_der(chunks);
  std::vector<std::vector<Revocation>> chunk_revs(chunks);
  ds->leaves.resize(num_leaves);
  util::ThreadPool pool(threads);
  pool.ParallelFor(chunks, [&](std::size_t c) {
    x509::TbsCertificate tbs;
    tbs.public_key = leaf_key;
    const std::size_t end = std::min(num_leaves, (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) {
      util::Rng r(Mix(seed ^ Mix(i + 1)));
      Leaf& leaf = ds->leaves[i];
      leaf.birth = static_cast<std::uint8_t>(
          r.Chance(kBacklogShare) ? 0 : 1 + r.NextBelow(kScans - 1));
      const bool trusted = r.Chance(kTrustedShare);
      std::size_t issuer_index;
      if (trusted) {
        const double u = r.UniformDouble();
        issuer_index = static_cast<std::size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin());
        issuer_index = std::min(issuer_index, num_trusted - 1);
      } else {
        issuer_index = num_trusted + r.NextBelow(16);
      }
      leaf.issuer = static_cast<std::uint16_t>(issuer_index);
      const Issuer& is = ds->issuers[issuer_index];
      // Lifetimes: CA-issued leaves mostly 1 year, some 90 days / 2 / 3
      // years; device certificates 1 or 10 years. A leaf first seen at the
      // first scan was issued within one lifetime before it; a later one
      // since the previous scan.
      const double lu = r.UniformDouble();
      const std::int64_t lifetime =
          (trusted ? (lu < 0.08 ? 90 : lu < 0.75 ? 365 : lu < 0.93 ? 730 : 1095)
                   : (lu < 0.5 ? 365 : 3'650)) *
          util::kSecondsPerDay;
      const util::Timestamp born = ds->scan_times[leaf.birth];
      tbs.not_before =
          leaf.birth == 0
              ? r.UniformInt(std::max(times.issuance_start,
                                      born - lifetime + util::kSecondsPerDay),
                             born)
              : r.UniformInt(ds->scan_times[leaf.birth - 1u] + 1, born);
      tbs.not_after = tbs.not_before + lifetime;
      int death = std::max<int>(leaf.birth, scan_of(tbs.not_after));
      tbs.issuer = is.name;
      tbs.crl_urls.clear();
      tbs.ocsp_urls.clear();
      tbs.policies.clear();
      if (trusted) {
        tbs.serial = MakeSerial(is.spec.serial_bytes,
                                static_cast<std::uint8_t>(issuer_index + 1), i);
        std::string cn = std::to_string(i);
        cn.insert(0, 1, 'w').append(".").append(is.ca->options().domain);
        tbs.subject = x509::Name::FromCommonName(cn);
        const bool unrevocable = r.Chance(0.0009);
        if (!unrevocable) {
          tbs.crl_urls.push_back(is.ca->CrlUrl(is.ca->ShardForSerial(tbs.serial)));
          if (tbs.not_before >= is.spec.ocsp_adoption)
            tbs.ocsp_urls.push_back(is.ca->OcspUrl());
        }
        if (r.Chance(0.04)) tbs.policies = {asn1::oids::VerisignEvPolicy()};
        util::Timestamp revoked_at = 0;
        x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
        if (tbs.not_before <= times.heartbleed &&
            times.heartbleed <= tbs.not_after &&
            r.Chance(is.spec.heartbleed_revoke_prob)) {
          revoked_at =
              times.heartbleed + r.UniformInt(0, 45 * util::kSecondsPerDay);
          reason = x509::ReasonCode::kKeyCompromise;
        } else if (r.Chance(std::min(
                       0.9, is.spec.steady_revoke_per_year *
                                static_cast<double>(lifetime) /
                                (365.0 * util::kSecondsPerDay)))) {
          revoked_at = r.UniformInt(tbs.not_before + util::kSecondsPerDay,
                                    tbs.not_after);
          reason = r.Chance(is.spec.crlset_reason_fraction)
                       ? (r.Chance(0.5) ? x509::ReasonCode::kNoReasonCode
                                        : x509::ReasonCode::kKeyCompromise)
                       : x509::ReasonCode::kSuperseded;
        }
        if (revoked_at != 0) {
          revoked_at = std::min(revoked_at, tbs.not_after);
          chunk_revs[c].push_back(
              {static_cast<std::uint32_t>(i), revoked_at,
               std::max(times.crawl_start, revoked_at) +
                   r.UniformInt(0, util::kSecondsPerDay),
               reason});
          // Death: revocation ends advertising, unless the server keeps
          // serving the revoked certificate.
          if (!r.Chance(kAliveRevokedShare))
            death = std::max<int>(leaf.birth,
                                  std::min(death, scan_of(revoked_at)));
        }
      } else {
        tbs.serial = MakeSerial(12, static_cast<std::uint8_t>(issuer_index), i);
        tbs.subject = x509::Name::FromCommonName(
            "device" + std::to_string(i % 100'000) + ".local");
      }
      leaf.death = static_cast<std::uint8_t>(death);
      const x509::Certificate cert = x509::SignCertificate(tbs, is.key);
      leaf.len = static_cast<std::uint32_t>(cert.der.size());
      leaf.offset = chunk_der[c].size();  // rebased below
      chunk_der[c].insert(chunk_der[c].end(), cert.der.begin(), cert.der.end());
    }
  });
  std::size_t total = 0;
  for (const auto& d : chunk_der) total += d.size();
  ds->der.reserve(total);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t base = ds->der.size();
    const std::size_t end = std::min(num_leaves, (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) ds->leaves[i].offset += base;
    ds->der.insert(ds->der.end(), chunk_der[c].begin(), chunk_der[c].end());
    std::vector<std::uint8_t>().swap(chunk_der[c]);
  }

  // Ground truth for the analyses: revocations into the RevocationDb (in
  // leaf order, so the database is seed-determined), per-shard tallies
  // into CRL size samples.
  for (const auto& revs : chunk_revs) {
    for (const Revocation& rev : revs) {
      Issuer& is = ds->issuers[ds->leaves[rev.leaf].issuer];
      const auto view = x509::ParseCertView(ds->LeafDer(rev.leaf));
      const x509::Serial serial(view->serial.begin(), view->serial.end());
      core::RevocationInfo info;
      info.revoked_at = rev.at;
      info.reason = rev.reason;
      info.first_seen_in_crl = rev.first_seen;
      if (ds->db.Insert(is.name_der, serial, info))
        ++is.shard_revoked[static_cast<std::size_t>(is.ca->ShardForSerial(serial))];
    }
  }
  std::vector<bool> issuer_used(ds->issuers.size(), false);
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    const Leaf& leaf = ds->leaves[i];
    Issuer& is = ds->issuers[leaf.issuer];
    issuer_used[leaf.issuer] = true;
    if (is.trusted) {
      ++ds->expect_leaf_set;
      const auto view = x509::ParseCertView(ds->LeafDer(i));
      const x509::Serial serial(view->serial.begin(), view->serial.end());
      ++is.shard_weight[static_cast<std::size_t>(is.ca->ShardForSerial(serial))];
    }
  }
  for (std::size_t i = 0; i < ds->issuers.size(); ++i) {
    if (!issuer_used[i]) continue;
    ++ds->expect_rows;
    if (ds->issuers[i].trusted) ++ds->expect_intermediates;
  }
  ds->expect_rows += num_leaves;
  for (const Issuer& is : ds->issuers) {
    if (!is.trusted) continue;
    for (int shard = 0; shard < is.spec.num_crls; ++shard) {
      core::CrlSizeSample sample;
      sample.url = is.ca->CrlUrl(shard);
      sample.ca_name = is.ca_name;
      sample.entries = is.shard_revoked[static_cast<std::size_t>(shard)];
      sample.bytes = 160 + sample.entries *
                               (22 + static_cast<std::size_t>(is.spec.serial_bytes));
      sample.cert_weight =
          static_cast<double>(is.shard_weight[static_cast<std::size_t>(shard)]);
      ds->samples.push_back(std::move(sample));
    }
  }

  // Scan layout: every leaf in each scan from birth to death, a malformed
  // extra copy for a fixed share, arrival order shuffled per scan.
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    for (int s = ds->leaves[i].birth; s <= ds->leaves[i].death; ++s)
      ds->scans[static_cast<std::size_t>(s)].push_back(i);
  }
  for (int s = 0; s < kScans; ++s) {
    auto& scan = ds->scans[static_cast<std::size_t>(s)];
    util::Rng r(Mix(seed ^ (0x5CA17ull + static_cast<std::uint64_t>(s))));
    ds->observations += scan.size();
    const auto bad = static_cast<std::size_t>(
        std::llround(static_cast<double>(scan.size()) * kMalformedShare));
    for (std::size_t k = 0; k < bad; ++k)
      scan.push_back(scan[r.NextBelow(scan.size())] | kMalformedBit);
    ds->malformed += bad;
    for (std::size_t k = scan.size(); k > 1; --k)
      std::swap(scan[k - 1], scan[r.NextBelow(k)]);
  }
  return ds;
}

struct Trial {
  double study_s = 0;
  double ingest_s = 0;
  std::uint64_t accepted = 0, rejected = 0;
  Summary call_ns;  // over every ObserveDer call
  double new_ns_sum = 0, dup_ns_sum = 0;
  std::uint64_t new_calls = 0, dup_calls = 0;
  double intermediates_s = 0, verify_s = 0;
  double stats_s = 0, timeline_s = 0, adoption_s = 0, table1_s = 0;
  bool invariants = false;
  std::size_t rows = 0, leaf_set = 0, intermediates = 0;
  std::size_t arena = 0, columns = 0, index = 0, interner = 0;
  std::size_t timeline_points = 0, adoption_points = 0, table1_rows = 0;
  std::size_t stats_leaf_set = 0;
};

Trial RunTrial(const Dataset& ds, unsigned threads) {
  Trial t;
  std::vector<double> call_ns;
  call_ns.reserve(ds.observations + ds.malformed);
  core::Pipeline pipeline(ds.roots, threads);
  const auto start = Clock::now();
  for (int s = 0; s < kScans; ++s) {
    obs::Span scan_span("bench.scan");
    std::uint64_t scan_call_ns = 0;
    pipeline.BeginScan(ds.scan_times[static_cast<std::size_t>(s)]);
    for (const std::uint32_t entry : ds.scans[static_cast<std::size_t>(s)]) {
      const std::uint32_t i = entry & ~kMalformedBit;
      BytesView leaf = ds.LeafDer(i);
      BytesView issuer = ds.issuers[ds.leaves[i].issuer].cert->der;
      if ((entry & kMalformedBit) != 0) {
        if (i % 2 == 1)
          leaf = leaf.first(leaf.size() / 2);
        else
          issuer = issuer.first(issuer.size() / 2);
      }
      const BytesView chain[2] = {leaf, issuer};
      const std::size_t rows_before = pipeline.corpus().size();
      const std::uint64_t t0 = NowNs();
      const std::optional<core::CertCorpus::Row> row = pipeline.ObserveDer(chain);
      const std::uint64_t ns = NowNs() - t0;
      const auto dns = static_cast<double>(ns);
      scan_call_ns += ns;
      call_ns.push_back(dns);
      if (!row) {
        ++t.rejected;
      } else if (*row >= rows_before) {
        ++t.accepted;
        ++t.new_calls;
        t.new_ns_sum += dns;
      } else {
        ++t.accepted;
        ++t.dup_calls;
        t.dup_ns_sum += dns;
      }
    }
    pipeline.EndScan();
    FoldTime("core", "bench", scan_call_ns);
  }
  t.ingest_s = SecondsSince(start);
  t.call_ns = Summarize(std::move(call_ns));
  {
    obs::Span span("core.finalize");
    pipeline.Finalize();
  }
  t.intermediates_s = pipeline.intermediate_wall_seconds();
  t.verify_s = pipeline.verify_wall_seconds();
  auto timed = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return SecondsSince(t0);
  };
  core::DatasetStats stats;
  {
    obs::Span span("core.analysis_stats");
    t.stats_s = timed([&] { stats = core::ComputeDatasetStats(pipeline); });
  }
  {
    obs::Span span("core.analysis_timeline");
    t.timeline_s = timed([&] {
      t.timeline_points = core::ComputeRevocationTimeline(
                              pipeline, ds.db, ds.study_start, ds.study_end,
                              14 * util::kSecondsPerDay)
                              .size();
    });
  }
  {
    obs::Span span("core.analysis_adoption");
    t.adoption_s = timed([&] {
      t.adoption_points = core::ComputeRevinfoAdoption(pipeline).size();
    });
  }
  {
    obs::Span span("core.analysis_table1");
    const core::CaNameResolver resolver = [&ds](const std::string& url) {
      auto it = ds.url_to_ca.find(url);
      return it == ds.url_to_ca.end() ? std::string() : it->second;
    };
    t.table1_s = timed([&] {
      t.table1_rows =
          core::ComputeTable1(ds.samples, pipeline, ds.db, resolver).size();
    });
  }
  t.study_s = SecondsSince(start);

  // Correctness inputs and memory accounting, outside the timed section.
  const core::CertCorpus& corpus = pipeline.corpus();
  t.invariants = corpus.CheckInvariants();
  t.rows = corpus.size();
  t.leaf_set = pipeline.LeafSet().size();
  t.intermediates = pipeline.IntermediateSet().size();
  t.stats_leaf_set = stats.leaf_set;
  t.arena = corpus.arena_bytes();
  t.columns = corpus.column_bytes();
  t.index = corpus.index_bytes();
  t.interner = corpus.interner_bytes();
  return t;
}

// Side passes: the layers ObserveDer reaches internally, replayed over the
// same DER through their own public functions.
void SidePasses(const Dataset& ds, unsigned threads, Report& report) {
  const std::size_t n = std::min<std::size_t>(ds.leaves.size(), 200'000);
  {
    obs::Span span("x509.side_parse_view");
    std::size_t ok = 0;
    const std::uint64_t t0 = NowNs();
    for (std::uint32_t i = 0; i < n; ++i)
      ok += x509::ParseCertView(ds.LeafDer(i)).has_value();
    const double ns = static_cast<double>(NowNs() - t0);
    report.Metric("x509.parse_view_ns", ns / static_cast<double>(n), "ns");
    if (ok != n) report.Check(false, "side pass: every leaf view-parses");
  }
  {
    obs::Span span("crypto.side_sha256");
    std::uint64_t bytes = 0;
    std::uint8_t sink = 0;
    const std::uint64_t t0 = NowNs();
    for (std::uint32_t i = 0; i < n; ++i) {
      const BytesView der = ds.LeafDer(i);
      sink ^= crypto::Sha256::Hash(der)[0];
      bytes += der.size();
    }
    const double ns = static_cast<double>(NowNs() - t0);
    report.Metric("crypto.sha256_ns", ns / static_cast<double>(n), "ns");
    report.Metric("crypto.sha256_mb_per_s",
                  static_cast<double>(bytes) / 1e6 / (ns * 1e-9), "MB/s");
    Keep(sink);
  }
  {
    // util::ThreadPool task latency, on Finalize's shape: contiguous row
    // chunks hashed in parallel.
    obs::Span span("util.side_threadpool");
    util::ThreadPool pool(threads);
    constexpr std::size_t kTask = 512;
    const std::size_t tasks = (n + kTask - 1) / kTask;
    std::vector<double> task_ns(tasks);
    pool.ParallelFor(tasks, [&](std::size_t k) {
      const std::uint64_t t0 = NowNs();
      std::uint8_t sink = 0;
      for (std::size_t i = k * kTask; i < std::min(n, (k + 1) * kTask); ++i)
        sink ^= crypto::Sha256::Hash(ds.LeafDer(static_cast<std::uint32_t>(i)))[0];
      Keep(sink);
      task_ns[k] = static_cast<double>(NowNs() - t0);
    });
    report.Metric("util.threadpool.task_ns.p99", Quantile(task_ns, 0.99), "ns");
  }
}

}  // namespace

void RunScanIngest(const Options& options, Report& report) {
  const std::size_t num_leaves = options.tiny ? 3'000 : 100'000;
  report.Note("workload scan_ingest: " + std::to_string(num_leaves) +
              " unique leaves over " + std::to_string(kScans) + " scans, " +
              std::to_string(options.threads) + " threads");

  // Setup, repeated: the median is setup_s; the last dataset is measured.
  std::vector<double> setups;
  std::unique_ptr<Dataset> ds;
  for (int k = 0; k < 3; ++k) {
    ds.reset();
    const auto t0 = Clock::now();
    ds = Generate(options.seed, num_leaves, options.threads);
    setups.push_back(SecondsSince(t0));
  }
  report.Metric("setup_s", Median(setups), "s");

  const double unique = static_cast<double>(num_leaves);
  const double obs = static_cast<double>(ds->observations);
  report.Note("input: " + std::to_string(ds->observations) +
              " observations, " + std::to_string(ds->malformed) +
              " malformed, " + std::to_string(ds->der.size() >> 20) +
              " MiB leaf DER, " + std::to_string(ds->db.size()) +
              " revocations, " + std::to_string(ds->samples.size()) + " CRLs");

  // Trials until the time is spent. A traced run spends the first half
  // untraced and the second traced, so the tracing overhead is measured in
  // one process; the collector, once on, stays on.
  std::vector<Trial> trials;
  std::vector<double> untraced_study, traced_study;
  const auto run_start = Clock::now();
  double last = 0;
  while (trials.empty() || (options.trace && traced_study.empty()) ||
         SecondsSince(run_start) + last <= options.seconds) {
    if (options.trace && !untraced_study.empty() &&
        SecondsSince(run_start) + last > 0.5 * options.seconds)
      StartTracing();
    const bool traced = Tracing();
    const auto t0 = Clock::now();
    trials.push_back(RunTrial(*ds, options.threads));
    last = SecondsSince(t0);
    (traced ? traced_study : untraced_study).push_back(trials.back().study_s);
  }
  const Trial& t = trials.back();

  // Correctness, outside every timed section.
  std::uint64_t wrong = 0;
  for (Trial& trial : trials) {
    if (options.inject == "wrong") ++trial.rejected;  // self-test hook
    const bool ok = trial.invariants && trial.rows == ds->expect_rows &&
                    trial.leaf_set == ds->expect_leaf_set &&
                    trial.stats_leaf_set == ds->expect_leaf_set &&
                    trial.intermediates == ds->expect_intermediates &&
                    trial.rejected == ds->malformed &&
                    trial.accepted == ds->observations &&
                    trial.timeline_points > 0 && trial.adoption_points > 0 &&
                    trial.table1_rows > 0;
    wrong += ok ? 0 : std::max<std::uint64_t>(
                          1, trial.rejected > ds->malformed
                                 ? trial.rejected - ds->malformed
                                 : ds->malformed - trial.rejected);
    report.Count(ds->observations + ds->malformed, 0);
  }
  report.Check(t.invariants, "CertCorpus::CheckInvariants()");
  report.Check(t.rows == ds->expect_rows,
               "corpus rows " + std::to_string(t.rows) + " == generated " +
                   std::to_string(ds->expect_rows));
  report.Check(t.leaf_set == ds->expect_leaf_set &&
                   t.stats_leaf_set == ds->expect_leaf_set,
               "Leaf Set " + std::to_string(t.leaf_set) + " == generated " +
                   std::to_string(ds->expect_leaf_set));
  report.Check(t.intermediates == ds->expect_intermediates,
               "Intermediate Set " + std::to_string(t.intermediates) +
                   " == generated " + std::to_string(ds->expect_intermediates));
  report.Check(wrong == 0 && t.rejected == ds->malformed,
               "rejected " + std::to_string(t.rejected) + " == injected " +
                   std::to_string(ds->malformed) + " in every trial");
  report.Count(0, wrong);

  std::vector<double> study, ingest_rate, p50, tail;
  for (const Trial& trial : trials) {
    study.push_back(trial.study_s);
    ingest_rate.push_back(static_cast<double>(trial.accepted + trial.rejected) /
                          trial.ingest_s);
    p50.push_back(trial.call_ns.p50 / 1e3);
    tail.push_back(trial.call_ns.tail / 1e3);
  }
  NoteSummary(report, "ObserveDer call (last trial)", t.call_ns, "ns");
  std::string per_trial;
  for (const double s : study) per_trial.append(" ").append(std::to_string(s));
  report.Note("study_s per trial:" + per_trial);
  report.Note("trials: " + std::to_string(trials.size()) +
              "; study_s is job_s, ingest_obs_per_s is throughput_per_s");
  report.Metric("job_s", Median(study), "s");
  report.Metric("throughput_per_s", Median(ingest_rate), "1/s");
  report.Metric("p50_us", Median(p50), "us");
  report.Metric("tail_us", Median(tail), "us");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("fail_ratio",
                static_cast<double>(report.failed()) /
                    static_cast<double>(report.attempted()),
                "ratio");
  if (!options.trace) return;

  // Per-layer metrics (traced run).
  report.Metric("core.observe_der.new_ns",
                t.new_ns_sum / static_cast<double>(std::max<std::uint64_t>(1, t.new_calls)),
                "ns");
  report.Metric("core.observe_der.dup_ns",
                t.dup_ns_sum / static_cast<double>(std::max<std::uint64_t>(1, t.dup_calls)),
                "ns");
  report.Metric("core.corpus.dedup_ratio",
                static_cast<double>(t.dup_calls) / static_cast<double>(t.accepted),
                "ratio");
  report.Metric("core.observe_der.rejected", static_cast<double>(t.rejected),
                "count");
  report.Metric("core.finalize.intermediates_s", t.intermediates_s, "s");
  report.Metric("core.finalize.verify_s", t.verify_s, "s");
  report.Metric("core.analysis.stats_s", t.stats_s, "s");
  report.Metric("core.analysis.timeline_s", t.timeline_s, "s");
  report.Metric("core.analysis.adoption_s", t.adoption_s, "s");
  report.Metric("core.analysis.table1_s", t.table1_s, "s");
  report.Metric("core.corpus.arena_mb", static_cast<double>(t.arena) / 1048576.0, "MB");
  report.Metric("core.corpus.column_mb", static_cast<double>(t.columns) / 1048576.0, "MB");
  report.Metric("core.corpus.index_mb", static_cast<double>(t.index) / 1048576.0, "MB");
  report.Metric("core.corpus.interner_mb", static_cast<double>(t.interner) / 1048576.0, "MB");
  report.Metric("input.dedup_ratio", 1.0 - unique / obs, "ratio");
  report.Metric("input.malformed", static_cast<double>(ds->malformed), "count");
  report.Metric("threads.used", options.threads, "count");
  SidePasses(*ds, options.threads, report);
  ReportTrace(report, options, Median(untraced_study), Median(traced_study));
}

}  // namespace revbench
