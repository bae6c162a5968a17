// Certificate Authority model tests: issuance, revocation, CRL maintenance
// (sharding, re-issue, expiry-based entry dropping), OCSP wiring, and the
// simulated-network endpoints.
#include <gtest/gtest.h>

#include "ca/ca.h"
#include "crl/crl.h"
#include "crypto/sha256.h"
#include "net/simnet.h"
#include "obs/metrics.h"
#include "ocsp/ocsp.h"
#include "util/hex.h"
#include "util/rng.h"

namespace rev::ca {
namespace {

constexpr util::Timestamp kNow = 1'400'000'000;
constexpr std::int64_t kDay = util::kSecondsPerDay;
constexpr std::int64_t kYear = 365 * kDay;

std::unique_ptr<CertificateAuthority> MakeRoot(util::Rng& rng,
                                               int shards = 1) {
  CertificateAuthority::Options options;
  options.name = "TestRoot";
  options.domain = "testroot.sim";
  options.num_crl_shards = shards;
  return CertificateAuthority::CreateRoot(options, rng, kNow - 5 * kYear);
}

TEST(Ca, RootSelfSigned) {
  util::Rng rng(1);
  auto root = MakeRoot(rng);
  const x509::CertPtr& cert = root->cert();
  EXPECT_TRUE(cert->IsCa());
  EXPECT_TRUE(cert->IsSelfIssued());
  EXPECT_TRUE(x509::VerifyCertificateSignature(*cert, root->key().Public()));
  // Roots carry no revocation pointers (§3.2 note 9).
  EXPECT_TRUE(cert->Unrevocable());
}

TEST(Ca, IntermediateSignedByParent) {
  util::Rng rng(2);
  auto root = MakeRoot(rng);
  CertificateAuthority::Options options;
  options.name = "TestInt";
  options.domain = "testint.sim";
  auto intermediate = root->CreateIntermediate(options, rng, kNow - kYear);
  const x509::CertPtr& cert = intermediate->cert();
  EXPECT_TRUE(cert->IsCa());
  EXPECT_EQ(cert->tbs.issuer, root->cert()->tbs.subject);
  EXPECT_TRUE(x509::VerifyCertificateSignature(*cert, root->key().Public()));
  EXPECT_FALSE(cert->tbs.crl_urls.empty());
  EXPECT_FALSE(cert->tbs.ocsp_urls.empty());
  // The parent can revoke it.
  EXPECT_TRUE(root->Revoke(cert->tbs.serial, kNow, x509::ReasonCode::kCaCompromise));
}

TEST(Ca, IssueLeafFields) {
  util::Rng rng(3);
  auto root = MakeRoot(rng);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "www.example.sim";
  issue.ev = true;
  issue.not_before = kNow - 10 * kDay;
  issue.lifetime_seconds = kYear;
  const x509::CertPtr leaf = root->Issue(issue, rng);
  EXPECT_EQ(leaf->tbs.subject.CommonName(), "www.example.sim");
  EXPECT_TRUE(leaf->IsEv());
  EXPECT_FALSE(leaf->IsCa());
  EXPECT_EQ(leaf->tbs.not_after, issue.not_before + kYear);
  EXPECT_TRUE(x509::VerifyCertificateSignature(*leaf, root->key().Public()));
  EXPECT_EQ(leaf->tbs.crl_urls.size(), 1u);
  EXPECT_EQ(leaf->tbs.ocsp_urls.size(), 1u);
  EXPECT_EQ(root->issued_count(), 1u);
  // Parseable end to end.
  EXPECT_TRUE(x509::ParseCertificate(leaf->der));
}

TEST(Ca, IssueWithoutRevocationInfo) {
  util::Rng rng(4);
  auto root = MakeRoot(rng);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "bare.sim";
  issue.include_crl_url = false;
  issue.include_ocsp_url = false;
  issue.not_before = kNow;
  const x509::CertPtr leaf = root->Issue(issue, rng);
  EXPECT_TRUE(leaf->Unrevocable());
}

TEST(Ca, SerialsUniqueAndSized) {
  util::Rng rng(5);
  auto root = MakeRoot(rng);
  std::set<x509::Serial> serials;
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "x.sim";
  issue.not_before = kNow;
  for (int i = 0; i < 200; ++i) {
    const x509::CertPtr leaf = root->Issue(issue, rng);
    EXPECT_EQ(leaf->tbs.serial.size(), 16u);  // default serial_bytes
    EXPECT_TRUE(serials.insert(leaf->tbs.serial).second);
  }
}

TEST(Ca, RevocationFlow) {
  util::Rng rng(6);
  auto root = MakeRoot(rng);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "r.sim";
  issue.not_before = kNow - kDay;
  const x509::CertPtr leaf = root->Issue(issue, rng);

  EXPECT_FALSE(root->IsRevoked(leaf->tbs.serial));
  EXPECT_TRUE(root->Revoke(leaf->tbs.serial, kNow,
                           x509::ReasonCode::kKeyCompromise));
  EXPECT_TRUE(root->IsRevoked(leaf->tbs.serial));
  EXPECT_EQ(root->revoked_count(), 1u);
  // Idempotent.
  EXPECT_TRUE(root->Revoke(leaf->tbs.serial, kNow + 1,
                           x509::ReasonCode::kSuperseded));
  EXPECT_EQ(root->revoked_count(), 1u);
  // Unknown serial refused.
  EXPECT_FALSE(root->Revoke(x509::Serial{1, 2, 3}, kNow,
                            x509::ReasonCode::kUnspecified));

  // The CRL now carries it.
  const crl::Crl& crl = root->GetCrl(0, kNow + 1);
  const crl::CrlIndex index(crl);
  EXPECT_TRUE(index.IsRevoked(leaf->tbs.serial));
  EXPECT_TRUE(crl::VerifyCrlSignature(crl, root->key().Public()));

  // And the OCSP responder agrees.
  const ocsp::OcspResponse status =
      root->responder().StatusFor(leaf->tbs.serial, kNow + 1);
  EXPECT_EQ(status.single.status, ocsp::CertStatus::kRevoked);
}

TEST(Ca, CrlReissuedAfterExpiry) {
  util::Rng rng(7);
  auto root = MakeRoot(rng);
  const crl::Crl& first = root->GetCrl(0, kNow);
  const util::Timestamp first_update = first.tbs.this_update;
  const std::int64_t first_number = first.tbs.crl_number;
  // Within validity: same CRL.
  EXPECT_EQ(root->GetCrl(0, kNow + 3600).tbs.this_update, first_update);
  // Past nextUpdate: re-issued with a higher CRL number.
  const crl::Crl& second = root->GetCrl(0, kNow + 2 * kDay);
  EXPECT_GT(second.tbs.this_update, first_update);
  EXPECT_GT(second.tbs.crl_number, first_number);
}

TEST(Ca, CrlDropsExpiredCertEntries) {
  util::Rng rng(8);
  auto root = MakeRoot(rng);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "short.sim";
  issue.not_before = kNow - 30 * kDay;
  issue.lifetime_seconds = 60 * kDay;  // expires kNow + 30d
  const x509::CertPtr leaf = root->Issue(issue, rng);
  root->Revoke(leaf->tbs.serial, kNow, x509::ReasonCode::kKeyCompromise);

  EXPECT_TRUE(crl::CrlIndex(root->GetCrl(0, kNow + kDay)).IsRevoked(leaf->tbs.serial));
  // After the certificate expires, the entry is dropped (Fig. 8 driver).
  EXPECT_FALSE(
      crl::CrlIndex(root->GetCrl(0, kNow + 40 * kDay)).IsRevoked(leaf->tbs.serial));
}

TEST(Ca, ShardingPartitionsSerials) {
  util::Rng rng(9);
  auto root = MakeRoot(rng, /*shards=*/8);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "s.sim";
  issue.not_before = kNow;
  std::map<int, int> shard_counts;
  for (int i = 0; i < 400; ++i) {
    const x509::CertPtr leaf = root->Issue(issue, rng);
    const int shard = root->ShardForSerial(leaf->tbs.serial);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    ++shard_counts[shard];
    // The cert's CRL URL names its shard.
    EXPECT_EQ(leaf->tbs.crl_urls[0], root->CrlUrl(shard));
    root->Revoke(leaf->tbs.serial, kNow, x509::ReasonCode::kUnspecified);
  }
  // Uniform hashing: every shard used.
  EXPECT_EQ(shard_counts.size(), 8u);

  // Each revocation appears in exactly its shard's CRL.
  std::size_t total = 0;
  for (int shard = 0; shard < 8; ++shard)
    total += root->GetCrl(shard, kNow + 1).tbs.entries.size();
  EXPECT_EQ(total, 400u);
}

TEST(Ca, SkewedShardWeights) {
  util::Rng rng(10);
  auto root = MakeRoot(rng, /*shards=*/4);
  root->SetShardWeights({0.97, 0.01, 0.01, 0.01});
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "w.sim";
  issue.not_before = kNow;
  int shard0 = 0;
  for (int i = 0; i < 300; ++i) {
    const x509::CertPtr leaf = root->Issue(issue, rng);
    if (root->ShardForSerial(leaf->tbs.serial) == 0) ++shard0;
  }
  EXPECT_GT(shard0, 250);
}

// Reweighting after revocations exist re-buckets them: every shard's CRL
// must then list exactly the revoked, unexpired serials that now hash to
// it, with their own revocation time and reason.
TEST(Ca, ReweightRebucketsExistingRevocations) {
  util::Rng rng(12);
  auto root = MakeRoot(rng, /*shards=*/4);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "rb.sim";
  issue.not_before = kNow - 30 * kDay;
  for (int i = 0; i < 400; ++i) {
    issue.lifetime_seconds = (i % 5 == 0 ? 40 : 400) * kDay;
    const x509::CertPtr leaf = root->Issue(issue, rng);
    ASSERT_TRUE(root->Revoke(leaf->tbs.serial, kNow - i * 60,
                             i % 2 ? x509::ReasonCode::kKeyCompromise
                                   : x509::ReasonCode::kSuperseded));
  }
  root->AddSyntheticRevocations(300, rng, kNow - 100 * kDay, kNow,
                                kNow + 5 * kDay, kNow + kYear,
                                x509::ReasonCode::kCessationOfOperation);
  for (int shard = 0; shard < 4; ++shard) root->GetCrl(shard, kNow);
  root->SetShardWeights({0.7, 0.2, 0.05, 0.05});

  const util::Timestamp at = kNow + 20 * kDay;  // a fifth of leaves expired
  std::vector<std::map<x509::Serial, CertificateAuthority::RevocationRecord>>
      expected(4);
  const auto current = root->CurrentRevocations(at);
  for (const auto& record : current)
    expected[static_cast<std::size_t>(root->ShardForSerial(record.serial))]
        .emplace(record.serial, record);
  std::size_t total = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const crl::Crl& crl = root->GetCrl(shard, at);
    const auto& want = expected[static_cast<std::size_t>(shard)];
    EXPECT_EQ(crl.tbs.entries.size(), want.size()) << "shard " << shard;
    for (const crl::CrlEntry& entry : crl.tbs.entries) {
      const auto it = want.find(entry.serial);
      ASSERT_NE(it, want.end()) << "shard " << shard;
      EXPECT_EQ(entry.revocation_date, it->second.revoked_at);
      EXPECT_EQ(entry.reason, it->second.reason);
    }
    total += crl.tbs.entries.size();
  }
  EXPECT_EQ(total, current.size());
  EXPECT_LT(current.size(), 700u);  // expiry dropped some
  EXPECT_GT(expected[0].size(), expected[3].size());  // the weights took
}

TEST(Ca, SyntheticRevocationsPopulateCrl) {
  util::Rng rng(11);
  auto root = MakeRoot(rng);
  root->AddSyntheticRevocations(500, rng, kNow - 100 * kDay, kNow,
                                kNow + kYear, kNow + 2 * kYear,
                                x509::ReasonCode::kNoReasonCode);
  EXPECT_EQ(root->revoked_count(), 500u);
  EXPECT_EQ(root->GetCrl(0, kNow).tbs.entries.size(), 500u);
  EXPECT_EQ(root->CurrentRevocations(kNow).size(), 500u);
  // All expire after study end, so none drop yet.
  EXPECT_EQ(root->GetCrl(0, kNow + 300 * kDay).tbs.entries.size(), 500u);
}

TEST(Ca, HttpEndpoints) {
  util::Rng rng(12);
  auto root = MakeRoot(rng, /*shards=*/2);
  net::SimNet net;
  root->RegisterEndpoints(&net);

  CertificateAuthority::IssueOptions issue;
  issue.common_name = "net.sim";
  issue.not_before = kNow - kDay;
  const x509::CertPtr leaf = root->Issue(issue, rng);
  root->Revoke(leaf->tbs.serial, kNow, x509::ReasonCode::kKeyCompromise);

  // CRL over "HTTP".
  const int shard = root->ShardForSerial(leaf->tbs.serial);
  const net::FetchResult crl_fetch = net.Get(root->CrlUrl(shard), kNow + 1);
  ASSERT_TRUE(crl_fetch.ok());
  auto crl = crl::ParseCrl(crl_fetch.response.body);
  ASSERT_TRUE(crl);
  EXPECT_TRUE(crl::CrlIndex(*crl).IsRevoked(leaf->tbs.serial));
  EXPECT_GT(crl_fetch.response.max_age, 0);

  // Unknown path 404s.
  EXPECT_EQ(net.Get("http://" + root->CrlHost() + "/nope.crl", kNow).response.status,
            404);

  // OCSP over "HTTP".
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(*root->cert(), leaf->tbs.serial)};
  const net::FetchResult ocsp_fetch =
      net.Post(root->OcspUrl(), ocsp::EncodeOcspRequest(request), kNow + 1);
  ASSERT_TRUE(ocsp_fetch.ok());
  auto response = ocsp::ParseOcspResponse(ocsp_fetch.response.body);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->single.status, ocsp::CertStatus::kRevoked);
}

TEST(Ca, OcspGetEndpoint) {
  util::Rng rng(14);
  auto root = MakeRoot(rng);
  net::SimNet net;
  root->RegisterEndpoints(&net);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "get.sim";
  issue.not_before = kNow - kDay;
  const x509::CertPtr leaf = root->Issue(issue, rng);

  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(*root->cert(), leaf->tbs.serial)};
  std::string url = root->OcspUrl();
  url.pop_back();  // drop trailing '/'
  const net::FetchResult fetch =
      net.Get(url + ocsp::OcspGetPath(request), kNow);
  ASSERT_TRUE(fetch.ok());
  auto response = ocsp::ParseOcspResponse(fetch.response.body);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->single.status, ocsp::CertStatus::kGood);

  // Malformed GET paths get a malformed-request error.
  const net::FetchResult bad = net.Get(root->OcspUrl() + "zzz!!", kNow);
  ASSERT_TRUE(bad.ok());
  auto bad_response = ocsp::ParseOcspResponse(bad.response.body);
  ASSERT_TRUE(bad_response);
  EXPECT_EQ(bad_response->status, ocsp::ResponseStatus::kMalformedRequest);
}

TEST(Ca, ExpiryLookup) {
  util::Rng rng(13);
  auto root = MakeRoot(rng);
  CertificateAuthority::IssueOptions issue;
  issue.common_name = "e.sim";
  issue.not_before = kNow;
  issue.lifetime_seconds = kYear;
  const x509::CertPtr leaf = root->Issue(issue, rng);
  EXPECT_EQ(root->ExpiryOf(leaf->tbs.serial), kNow + kYear);
  EXPECT_EQ(root->ExpiryOf(x509::Serial{9, 9}), 0);
}

// Every reissue lands in the registry: one ca.crl_reissues tick, its entry
// count in ca.crl_entries_encoded and one ca.crl_reissue_ns sample. A CRL
// served while fresh records nothing.
TEST(Ca, ReissueMetrics) {
  util::Rng rng(13);
  auto root = MakeRoot(rng);
  root->AddSyntheticRevocations(250, rng, kNow - 10 * kDay, kNow - kDay,
                                kNow + kYear, kNow + 2 * kYear,
                                x509::ReasonCode::kNoReasonCode);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& reissues = reg.GetCounter("ca.crl_reissues");
  obs::Counter& entries = reg.GetCounter("ca.crl_entries_encoded");
  obs::Histogram& reissue_ns = reg.GetHistogram("ca.crl_reissue_ns");
  const std::uint64_t reissues0 = reissues.Value();
  const std::uint64_t entries0 = entries.Value();
  const std::uint64_t samples0 = reissue_ns.Count();

  EXPECT_EQ(root->GetCrl(0, kNow).tbs.entries.size(), 250u);
  root->GetCrl(0, kNow + 3600);  // fresh: no reissue
  EXPECT_EQ(reissues.Value() - reissues0, 1u);
  EXPECT_EQ(entries.Value() - entries0, 250u);
  EXPECT_EQ(reissue_ns.Count() - samples0, 1u);

  root->GetCrl(0, kNow + 2 * kDay);
  EXPECT_EQ(reissues.Value() - reissues0, 2u);
  EXPECT_EQ(entries.Value() - entries0, 500u);
  EXPECT_EQ(reissue_ns.Count() - samples0, 2u);
}

// A seeded four-shard CA reissued daily for 60 days: the SHA-256 over every
// CRL it serves pins the encoder's bytes through real rebuilds (expiry
// drops, future-dated revocations coming due, revocations mid-window),
// recorded from the vector-per-entry encoder that preceded the sized
// TBSCertList writer.
TEST(CaGolden, DailyReissueDigest) {
  util::Rng rng(60);
  auto root = MakeRoot(rng, /*shards=*/4);
  root->SetShardWeights({6, 3, 1, 1});
  std::vector<x509::CertPtr> leaves;
  for (int i = 0; i < 600; ++i) {
    CertificateAuthority::IssueOptions issue;
    issue.common_name = "golden" + std::to_string(i) + ".sim";
    issue.not_before =
        kNow - static_cast<util::Timestamp>(rng.NextBelow(300)) * kDay;
    issue.lifetime_seconds =
        (90 + static_cast<std::int64_t>(rng.NextBelow(400))) * kDay;
    leaves.push_back(root->Issue(issue, rng));
  }
  // Half revoked up front (some dated inside the window), spread over every
  // reason code.
  using x509::ReasonCode;
  const ReasonCode kReasons[] = {
      ReasonCode::kNoReasonCode,       ReasonCode::kUnspecified,
      ReasonCode::kKeyCompromise,      ReasonCode::kCaCompromise,
      ReasonCode::kAffiliationChanged, ReasonCode::kSuperseded,
      ReasonCode::kCessationOfOperation, ReasonCode::kCertificateHold,
      ReasonCode::kRemoveFromCrl,      ReasonCode::kPrivilegeWithdrawn,
      ReasonCode::kAaCompromise};
  for (std::size_t i = 0; i < leaves.size(); i += 2) {
    const util::Timestamp when =
        kNow - 100 * kDay +
        static_cast<util::Timestamp>(rng.NextBelow(150 * kDay));
    root->Revoke(leaves[i]->tbs.serial, when, kReasons[rng.NextBelow(11)]);
  }
  root->AddSyntheticRevocations(3000, rng, kNow - 200 * kDay, kNow + 30 * kDay,
                                kNow + 10 * kDay, kNow + 2 * kYear,
                                x509::ReasonCode::kNoReasonCode);

  crypto::Sha256 hasher;
  std::size_t total_bytes = 0;
  std::size_t leaf = 1;
  for (int day = 0; day < 60; ++day) {
    // One second past the previous nextUpdate, so every shard is reissued.
    const util::Timestamp now = kNow + day * (kDay + 1);
    if (day % 5 == 4) {
      for (int k = 0; k < 10 && leaf < leaves.size(); ++k, leaf += 2)
        root->Revoke(leaves[leaf]->tbs.serial, now - 600,
                     x509::ReasonCode::kSuperseded);
    }
    for (int shard = 0; shard < 4; ++shard) {
      const crl::Crl& crl = root->GetCrl(shard, now);
      ASSERT_EQ(crl.tbs.this_update, now);
      hasher.Update(crl.der);
      total_bytes += crl.der.size();
    }
  }
  EXPECT_EQ(total_bytes, 6670654u);
  EXPECT_EQ(util::HexEncode(hasher.Finish()), "0bf23603b468f082011cfb9a74345b093bd8033d710e7db4330214bab185401c");
}

}  // namespace
}  // namespace rev::ca
