// Microbenchmarks for the library's hot kernels (google-benchmark): hashing,
// signing, DER encode/parse for certificates and CRLs, revocation lookups,
// and the full browser-visit loop.
#include <benchmark/benchmark.h>

#include "asn1/writer.h"
#include "browser/profiles.h"
#include "browser/testsuite.h"
#include "ca/ca.h"
#include "crl/crl.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "ocsp/ocsp.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "x509/certificate.h"

using namespace rev;

namespace {

constexpr util::Timestamp kNow = 1'427'760'000;
constexpr std::int64_t kDay = util::kSecondsPerDay;

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xAB);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

void BM_SimSign(benchmark::State& state) {
  const crypto::KeyPair key = crypto::SimKeyFromLabel("bench");
  Bytes message(256, 0x42);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::Sign(key, message));
}
BENCHMARK(BM_SimSign);

void BM_RsaSign512(benchmark::State& state) {
  util::Rng rng(1);
  const crypto::RsaPrivateKey key = crypto::RsaGenerateKey(rng, 512);
  Bytes message(256, 0x42);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::RsaSign(key, message));
}
BENCHMARK(BM_RsaSign512);

void BM_RsaVerify512(benchmark::State& state) {
  util::Rng rng(2);
  const crypto::RsaPrivateKey key = crypto::RsaGenerateKey(rng, 512);
  Bytes message(256, 0x42);
  const Bytes signature = crypto::RsaSign(key, message);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::RsaVerify(key.pub, message, signature));
}
BENCHMARK(BM_RsaVerify512);

x509::Certificate BenchCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial(16, 0x5A);
  tbs.issuer = x509::Name::Make("Bench CA", "Bench");
  tbs.subject = x509::Name::FromCommonName("www.bench.sim");
  tbs.not_before = kNow - 30 * kDay;
  tbs.not_after = kNow + 335 * kDay;
  tbs.public_key = crypto::SimKeyFromLabel("leaf").Public();
  tbs.crl_urls = {"http://crl.bench.sim/crl0.crl"};
  tbs.ocsp_urls = {"http://ocsp.bench.sim/"};
  tbs.dns_names = {"www.bench.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("ca"));
}

void BM_CertificateSign(benchmark::State& state) {
  const crypto::KeyPair key = crypto::SimKeyFromLabel("ca");
  x509::TbsCertificate tbs = BenchCert().tbs;
  for (auto _ : state)
    benchmark::DoNotOptimize(x509::SignCertificate(tbs, key));
}
BENCHMARK(BM_CertificateSign);

void BM_CertificateParse(benchmark::State& state) {
  const Bytes der = BenchCert().der;
  for (auto _ : state)
    benchmark::DoNotOptimize(x509::ParseCertificate(der));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(der.size()));
}
BENCHMARK(BM_CertificateParse);

crl::Crl BenchCrl(std::size_t entries) {
  util::Rng rng(3);
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::Make("Bench CA", "Bench");
  tbs.this_update = kNow;
  tbs.next_update = kNow + kDay;
  for (std::size_t i = 0; i < entries; ++i) {
    x509::Serial serial(16);
    rng.Fill(serial.data(), serial.size());
    tbs.entries.push_back(crl::CrlEntry{std::move(serial), kNow - 1000,
                                        x509::ReasonCode::kNoReasonCode});
  }
  return crl::SignCrl(tbs, crypto::SimKeyFromLabel("ca"));
}

void BM_CrlEncode(benchmark::State& state) {
  const crl::Crl crl = BenchCrl(static_cast<std::size_t>(state.range(0)));
  const crypto::KeyPair key = crypto::SimKeyFromLabel("ca");
  for (auto _ : state)
    benchmark::DoNotOptimize(crl::SignCrl(crl.tbs, key));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 1 M entries is the size order of the Apple WWDR CRL (§5.2), the largest
// list a CA reissues in the daily crawl.
BENCHMARK(BM_CrlEncode)
    ->Arg(100)
    ->Arg(10'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

// The X.509 Time formatter under every CRL entry and certificate validity:
// a spread of UTCTime instants plus one GeneralizedTime in eight.
void BM_EncodeTime(benchmark::State& state) {
  std::vector<util::Timestamp> times;
  util::Rng rng(4);
  for (int i = 0; i < 1024; ++i) {
    times.push_back(i % 8 == 0 ? util::MakeDate(2050, 1, 1) +
                                     static_cast<util::Timestamp>(
                                         rng.NextBelow(100 * 365 * kDay))
                               : kNow - static_cast<util::Timestamp>(
                                            rng.NextBelow(3'000 * kDay)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asn1::EncodeTime(times[i++ & 1023]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EncodeTime);

void BM_CrlParse(benchmark::State& state) {
  const Bytes der = BenchCrl(static_cast<std::size_t>(state.range(0))).der;
  for (auto _ : state)
    benchmark::DoNotOptimize(crl::ParseCrl(der));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CrlParse)->Arg(100)->Arg(10'000);

void BM_CrlIndexLookup(benchmark::State& state) {
  const crl::Crl crl = BenchCrl(10'000);
  const crl::CrlIndex index(crl);
  const x509::Serial& present = crl.tbs.entries[5'000].serial;
  for (auto _ : state)
    benchmark::DoNotOptimize(index.IsRevoked(present));
}
BENCHMARK(BM_CrlIndexLookup);

void BM_OcspRoundTrip(benchmark::State& state) {
  const x509::Certificate issuer = BenchCert();
  ocsp::SingleResponse single;
  single.cert_id = ocsp::MakeCertId(issuer, x509::Serial{0x42});
  single.status = ocsp::CertStatus::kGood;
  single.this_update = kNow;
  single.next_update = kNow + 4 * kDay;
  const crypto::KeyPair key = crypto::SimKeyFromLabel("ca");
  for (auto _ : state) {
    const ocsp::OcspResponse response = ocsp::SignOcspResponse(single, kNow, key);
    benchmark::DoNotOptimize(ocsp::ParseOcspResponse(response.der));
  }
}
BENCHMARK(BM_OcspRoundTrip);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  // The unit of Finalize()/CrawlAll() fan-out: dispatch 4096 CRL-parse-sized
  // work items through a pool of `range(0)` workers. Compare against the
  // /1 row (inline serial path) for dispatch overhead and speedup.
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const Bytes der = BenchCrl(100).der;
  for (auto _ : state) {
    pool.ParallelFor(4096, [&](std::size_t) {
      benchmark::DoNotOptimize(crl::ParseCrl(der));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4)->Arg(8);

void BM_BrowserVisit(benchmark::State& state) {
  // Full provision + visit of one test case (the unit of the 244-case
  // suite); dominated by the per-test PKI setup.
  browser::TestCase test;
  test.num_intermediates = 1;
  test.protocol = browser::RevProtocol::kBoth;
  const browser::Policy& policy =
      browser::FindProfile("IE 11", "Windows 10")->policy;
  for (auto _ : state)
    benchmark::DoNotOptimize(browser::RunCase(test, policy, 9, kNow));
}
BENCHMARK(BM_BrowserVisit);

}  // namespace

BENCHMARK_MAIN();
