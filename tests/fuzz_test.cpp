// Mutation-fuzz tests: random byte-level corruption of valid DER artifacts
// must never crash, hang, or over-read — parsers either reject the input or
// produce a structurally valid object whose signature check then fails.
// (The paper's pipeline parses millions of certificates harvested from the
// open internet; parser robustness is a correctness requirement, not a
// nicety.)
#include <gtest/gtest.h>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "cascade/cascade.h"
#include "cascade/delta.h"
#include "core/pipeline.h"
#include "crl/crl.h"
#include "crlset/crlset.h"
#include "obs/metrics.h"
#include "ocsp/ocsp.h"
#include "util/hex.h"
#include "util/rng.h"
#include "x509/certificate.h"
#include "x509/view.h"

namespace rev {
namespace {

constexpr util::Timestamp kNow = 1'420'000'000;

Bytes ValidCertDer(const std::string& cn = "www.fuzz.sim") {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x01, 0x02, 0x03};
  tbs.issuer = x509::Name::Make("Fuzz CA", "Fuzz");
  tbs.subject = x509::Name::FromCommonName(cn);
  tbs.not_before = kNow - 1000;
  tbs.not_after = kNow + 1000;
  tbs.public_key = crypto::SimKeyFromLabel("fuzz-leaf").Public();
  tbs.crl_urls = {"http://crl.fuzz.sim/a.crl"};
  tbs.ocsp_urls = {"http://ocsp.fuzz.sim/"};
  tbs.dns_names = {"www.fuzz.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;
  tbs.policies = {asn1::oids::VerisignEvPolicy()};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("fuzz-ca")).der;
}

Bytes ValidCrlDer() {
  util::Rng rng(4242);
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::Make("Fuzz CA", "Fuzz");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 3;
  for (int i = 0; i < 30; ++i) {
    x509::Serial serial(16);
    rng.Fill(serial.data(), serial.size());
    tbs.entries.push_back(crl::CrlEntry{std::move(serial), kNow - 100,
                                        i % 2 ? x509::ReasonCode::kKeyCompromise
                                              : x509::ReasonCode::kNoReasonCode});
  }
  return crl::SignCrl(tbs, crypto::SimKeyFromLabel("fuzz-ca")).der;
}

Bytes ValidOcspDer() {
  ocsp::SingleResponse single;
  single.cert_id.issuer_name_hash = Bytes(32, 0x11);
  single.cert_id.issuer_key_hash = Bytes(32, 0x22);
  single.cert_id.serial = x509::Serial{0x09};
  single.status = ocsp::CertStatus::kRevoked;
  single.revocation_time = kNow - 100;
  single.reason = x509::ReasonCode::kKeyCompromise;
  single.this_update = kNow;
  single.next_update = kNow + util::kSecondsPerDay;
  return ocsp::SignOcspResponse(single, kNow, crypto::SimKeyFromLabel("fuzz-ca"))
      .der;
}

enum class Mutation { kFlipBit, kSetByte, kTruncate, kExtend, kSwapRange };

Bytes Mutate(const Bytes& input, util::Rng& rng) {
  Bytes out = input;
  const int num_mutations = 1 + static_cast<int>(rng.NextBelow(4));
  for (int m = 0; m < num_mutations && !out.empty(); ++m) {
    switch (static_cast<Mutation>(rng.NextBelow(5))) {
      case Mutation::kFlipBit: {
        const std::size_t pos = rng.NextBelow(out.size());
        out[pos] ^= static_cast<std::uint8_t>(1u << rng.NextBelow(8));
        break;
      }
      case Mutation::kSetByte: {
        const std::size_t pos = rng.NextBelow(out.size());
        out[pos] = static_cast<std::uint8_t>(rng.Next());
        break;
      }
      case Mutation::kTruncate:
        out.resize(rng.NextBelow(out.size()) + 1);
        break;
      case Mutation::kExtend: {
        Bytes extra(1 + rng.NextBelow(16));
        rng.Fill(extra.data(), extra.size());
        Append(out, extra);
        break;
      }
      case Mutation::kSwapRange: {
        const std::size_t a = rng.NextBelow(out.size());
        const std::size_t b = rng.NextBelow(out.size());
        std::swap(out[a], out[b]);
        break;
      }
    }
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, CertificateParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const Bytes valid = ValidCertDer();
  const crypto::PublicKey ca_key = crypto::SimKeyFromLabel("fuzz-ca").Public();
  int parsed_ok = 0;
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto cert = x509::ParseCertificate(mutated);
    if (!cert) continue;
    ++parsed_ok;
    // Anything that still parses must carry the original signed bytes to
    // verify — i.e. the mutation missed the TBS or the signature, not both.
    if (x509::VerifyCertificateSignature(*cert, ca_key)) {
      EXPECT_EQ(cert->tbs_der,
                x509::EncodeTbs(cert->tbs, cert->sig_type));
    }
    // Accessors never crash on parsed-but-mutated objects.
    (void)cert->IsEv();
    (void)cert->IsCa();
    (void)cert->Fingerprint();
    (void)cert->Unrevocable();
  }
  // Some mutations (e.g. in the signature bits) must still parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST_P(FuzzSeeds, CrlParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  const Bytes valid = ValidCrlDer();
  const crypto::PublicKey ca_key = crypto::SimKeyFromLabel("fuzz-ca").Public();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto crl = crl::ParseCrl(mutated);
    if (!crl) continue;
    // A parse that still verifies re-encodes to exactly the signed bytes.
    if (crl::VerifyCrlSignature(*crl, ca_key)) {
      EXPECT_EQ(crl::EncodeTbsCrl(crl->tbs, crl->sig_type), crl->tbs_der);
    }
    const crl::CrlIndex index(*crl);
    (void)index.IsRevoked(x509::Serial{1, 2, 3});
    (void)crl->IsExpired(kNow);
  }
}

// The raw child TLVs of a constructed TLV.
std::vector<Bytes> Children(BytesView tlv) {
  asn1::Reader outer(tlv);
  std::uint8_t tag = 0;
  BytesView content;
  EXPECT_TRUE(outer.ReadTlv(&tag, &content));
  asn1::Reader inner(content);
  std::vector<Bytes> children;
  BytesView child;
  while (inner.ReadRawTlv(&child)) children.emplace_back(child.begin(), child.end());
  return children;
}

// Appends `tlv` inside a CRL, rewriting every enclosing length: after the
// crlEntryExtensions of revokedCertificates entry `entry`, or, for
// entry < 0, after the TBSCertList's crlExtensions.
Bytes AppendTlvInsideCrl(BytesView crl_der, int entry, const Bytes& tlv) {
  std::vector<Bytes> crl = Children(crl_der);  // tbs, algorithm, signature
  std::vector<Bytes> tbs = Children(crl[0]);
  if (entry < 0) {
    tbs.push_back(tlv);
  } else {
    // version, signature, issuer, thisUpdate, nextUpdate, entries, [0].
    std::vector<Bytes> entries = Children(tbs[5]);
    std::vector<Bytes> fields = Children(entries[static_cast<std::size_t>(entry)]);
    EXPECT_EQ(fields.size(), 3u);  // serial, date, crlEntryExtensions
    fields.push_back(tlv);
    entries[static_cast<std::size_t>(entry)] = asn1::EncodeSequence(fields);
    tbs[5] = asn1::EncodeSequence(entries);
  }
  crl[0] = asn1::EncodeSequence(tbs);
  return asn1::EncodeSequence(crl);
}

TEST_P(FuzzSeeds, CrlParserRejectsTrailingTlvs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 3);
  const Bytes valid = ValidCrlDer();
  ASSERT_TRUE(crl::ParseCrl(valid));
  for (int i = 0; i < 50; ++i) {
    // Any low tag number (both classes, primitive or constructed) with up
    // to 40 random content bytes: well-formed as a TLV, so only the
    // end-of-sequence checks can reject it.
    std::uint8_t tag = static_cast<std::uint8_t>(rng.NextBelow(256));
    if ((tag & 0x1F) == 0x1F) tag ^= 0x01;
    Bytes content(rng.NextBelow(41));
    rng.Fill(content.data(), content.size());
    const Bytes tlv = asn1::Tlv(tag, content);
    // Odd entries carry a CRLReason extension (ValidCrlDer).
    const int entry = 2 * static_cast<int>(rng.NextBelow(15)) + 1;
    EXPECT_FALSE(crl::ParseCrl(AppendTlvInsideCrl(valid, entry, tlv)))
        << "entry " << entry << ": " << util::HexEncode(tlv);
    EXPECT_FALSE(crl::ParseCrl(AppendTlvInsideCrl(valid, -1, tlv)))
        << util::HexEncode(tlv);
  }
}

TEST_P(FuzzSeeds, OcspParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 3);
  const Bytes valid = ValidOcspDer();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto response = ocsp::ParseOcspResponse(mutated);
    if (response && response->status == ocsp::ResponseStatus::kSuccessful) {
      (void)ocsp::CertStatusName(response->single.status);
    }
  }
}

TEST_P(FuzzSeeds, CrlSetDeserializeNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 4);
  crlset::CrlSet set;
  set.sequence = 1;
  for (int i = 0; i < 10; ++i) {
    Bytes parent(32);
    rng.Fill(parent.data(), parent.size());
    x509::Serial serial(16);
    rng.Fill(serial.data(), serial.size());
    set.AddEntry(parent, serial);
  }
  const Bytes valid = set.Serialize();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto decoded = crlset::CrlSet::Deserialize(mutated);
    if (decoded) (void)decoded->NumEntries();
  }
}

TEST_P(FuzzSeeds, CascadeDeserializeNeverCrashesOrMisAnswers) {
  // The cascade blob is checksum-sealed: a mutated blob either fails
  // Deserialize or (mutation landed outside the sealed region — impossible
  // here, the whole blob is sealed) decodes to the identical cascade. Either
  // way a client can never be handed a filter that answers "revoked"
  // wrongly because of wire damage.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 49979687 + 6);
  std::vector<Bytes> revoked, not_revoked;
  for (int i = 0; i < 1'000; ++i) {
    Bytes issuer(16), serial(12);
    rng.Fill(issuer.data(), issuer.size());
    rng.Fill(serial.data(), serial.size());
    (i < 40 ? revoked : not_revoked)
        .push_back(cascade::CertKey(issuer, serial));
  }
  cascade::FilterCascade original =
      cascade::FilterCascade::Build(revoked, not_revoked);
  original.sequence = 9;
  const Bytes valid = original.Serialize();
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto decoded = cascade::FilterCascade::Deserialize(mutated);
    if (!decoded) continue;
    ++accepted;
    // Accepted implies byte-identical content (the checksum pins it), so
    // every query answer matches the original.
    ASSERT_TRUE(*decoded == original);
    for (const Bytes& key : revoked) ASSERT_TRUE(decoded->IsRevoked(key));
  }
  // Mutations essentially never preserve the checksum; the only accepted
  // blobs are byte-identical ones (Mutate does compose into a no-op now
  // and then — same-position swaps, double bit flips).
  EXPECT_LT(accepted, 40);
}

TEST_P(FuzzSeeds, DeltaDeserializeNeverCrashesOrMisAnswers) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 86028121 + 7);
  cascade::CascadeDelta delta;
  delta.from_sequence = 4;
  delta.to_sequence = 5;
  for (int i = 0; i < 30; ++i) {
    Bytes key(32);
    rng.Fill(key.data(), key.size());
    (i % 3 ? delta.added : delta.removed).push_back(std::move(key));
  }
  const Bytes valid_delta = delta.Serialize();

  cascade::UpdateResponse response;
  response.kind = cascade::UpdateResponse::Kind::kDeltas;
  response.deltas = {delta};
  const Bytes valid_response = response.Serialize();

  for (int i = 0; i < 400; ++i) {
    auto mutated_delta = cascade::CascadeDelta::Deserialize(Mutate(valid_delta, rng));
    if (mutated_delta) ASSERT_EQ(*mutated_delta, delta);

    auto mutated_response =
        cascade::UpdateResponse::Deserialize(Mutate(valid_response, rng));
    if (mutated_response) {
      ASSERT_EQ(mutated_response->kind, cascade::UpdateResponse::Kind::kDeltas);
      ASSERT_EQ(mutated_response->deltas.size(), 1u);
      ASSERT_EQ(mutated_response->deltas[0], delta);
    }
  }
}

TEST_P(FuzzSeeds, PureGarbageRejected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843 + 5);
  for (int i = 0; i < 200; ++i) {
    Bytes garbage(rng.NextBelow(600));
    rng.Fill(garbage.data(), garbage.size());
    // Random bytes essentially never form a valid signed object.
    auto cert = x509::ParseCertificate(garbage);
    if (cert) {
      EXPECT_FALSE(x509::VerifyCertificateSignature(
          *cert, crypto::SimKeyFromLabel("fuzz-ca").Public()));
    }
    (void)crl::ParseCrl(garbage);
    (void)ocsp::ParseOcspResponse(garbage);
    (void)ocsp::ParseOcspRequest(garbage);
    (void)crlset::CrlSet::Deserialize(garbage);
    EXPECT_FALSE(cascade::FilterCascade::Deserialize(garbage));
    EXPECT_FALSE(cascade::CascadeDelta::Deserialize(garbage));
    EXPECT_FALSE(cascade::UpdateResponse::Deserialize(garbage));
  }
}

// Mutated/truncated DER through both streaming corpus entries (raw DER and
// parsed certificates): a rejected observation must leave the columnar
// store bit-identical — no partial interning, no fold, no arena corruption
// — and count once in pipeline.observations_rejected. CheckInvariants()
// re-derives every fingerprint from the arena and re-probes the index, so
// it would catch a torn row immediately.
TEST_P(FuzzSeeds, StreamingIngestRejectsWithoutCorpusCorruption) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48611 + 3);
  const Bytes valid = ValidCertDer();
  const obs::Counter& rejected_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "pipeline.observations_rejected");
  const std::uint64_t rejected_before = rejected_counter.Value();
  std::uint64_t rejected = 0;

  core::Pipeline pipeline{x509::CertPool{}};
  pipeline.BeginScan(kNow);
  // Seed with one good row so rejection has a store to corrupt.
  const BytesView valid_view(valid);
  ASSERT_TRUE(pipeline.ObserveDer({&valid_view, 1}).has_value());

  const core::CertCorpus& corpus = pipeline.corpus();
  std::size_t accepted = 1;
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = Mutate(valid, rng);
    if (rng.NextBelow(4) == 0)  // also exercise hard truncation
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    const std::size_t size_before = corpus.size();
    const BytesView view(mutated);
    const auto row = pipeline.ObserveDer({&view, 1});
    if (row.has_value()) {
      ++accepted;  // structurally valid mutant (e.g. unsigned-field tweak)
    } else {
      ++rejected;
      ASSERT_EQ(corpus.size(), size_before);
    }
    ASSERT_TRUE(corpus.CheckInvariants()) << "after mutant " << i;
  }
  EXPECT_GE(corpus.size(), 1u);
  EXPECT_LE(corpus.size(), accepted);

  // Multi-element chains are all-or-nothing, through both entries: one bad
  // element rejects the whole observation even when the other is pristine,
  // whether already interned (`valid`) or new (`fresh`). For the parsed-
  // certificate entry the bad element is a hand-built Certificate whose DER
  // does not view-parse.
  const Bytes fresh = ValidCertDer("fresh.fuzz.sim");
  const Bytes truncated(valid.begin(), valid.begin() + valid.size() / 2);
  x509::Certificate hand_built = *x509::ParseCertificate(valid);
  hand_built.der = truncated;
  ASSERT_FALSE(x509::ParseCertView(hand_built.der).has_value());
  const x509::CertPtr bad =
      std::make_shared<const x509::Certificate>(std::move(hand_built));
  const std::size_t size_before = corpus.size();
  const std::uint64_t observations_before = corpus.observations(0);
  for (const Bytes* pristine : {&valid, &fresh}) {
    const BytesView der_chain[2] = {BytesView(*pristine), BytesView(truncated)};
    EXPECT_FALSE(pipeline.ObserveDer(der_chain).has_value());
    const x509::CertPtr cert_chain[2] = {
        std::make_shared<const x509::Certificate>(
            *x509::ParseCertificate(*pristine)),
        bad};
    EXPECT_FALSE(pipeline.Observe(cert_chain).has_value());
    rejected += 2;
  }
  EXPECT_FALSE(pipeline.Observe({&bad, 1}).has_value());
  ++rejected;
  EXPECT_EQ(corpus.size(), size_before);
  EXPECT_EQ(corpus.observations(0), observations_before);
  EXPECT_TRUE(corpus.CheckInvariants());
  EXPECT_EQ(rejected_counter.Value() - rejected_before, rejected);

  // Accepted observations leave the counter alone.
  const x509::CertPtr good =
      std::make_shared<const x509::Certificate>(*x509::ParseCertificate(valid));
  EXPECT_TRUE(pipeline.Observe({&good, 1}).has_value());
  EXPECT_EQ(rejected_counter.Value() - rejected_before, rejected);
  pipeline.EndScan();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 8));

}  // namespace
}  // namespace rev
