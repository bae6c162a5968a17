// CRL tests: round-trips, signatures, entry semantics, index lookups, and
// size behavior (the ~38 bytes/entry linearity of Fig. 5).
#include <gtest/gtest.h>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "crl/crl.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "x509/spki.h"

namespace rev::crl {
namespace {

constexpr util::Timestamp kNow = 1'400'000'000;

crypto::KeyPair TestKey(std::string_view label) {
  return crypto::SimKeyFromLabel(label);
}

x509::Serial RandomSerial(util::Rng& rng, int len) {
  x509::Serial s(static_cast<std::size_t>(len));
  rng.Fill(s.data(), s.size());
  if (s[0] == 0) s[0] = 1;
  return s;
}

TbsCrl MakeTbs(std::size_t entries, util::Rng& rng, int serial_len = 16) {
  TbsCrl tbs;
  tbs.issuer = x509::Name::Make("CRL Test CA", "Test");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 7;
  for (std::size_t i = 0; i < entries; ++i) {
    CrlEntry entry;
    entry.serial = RandomSerial(rng, serial_len);
    entry.revocation_date = kNow - static_cast<util::Timestamp>(rng.NextBelow(10'000'000));
    entry.reason = (i % 3 == 0) ? x509::ReasonCode::kKeyCompromise
                                : x509::ReasonCode::kNoReasonCode;
    tbs.entries.push_back(std::move(entry));
  }
  return tbs;
}

TEST(Crl, SignParseRoundTrip) {
  util::Rng rng(1);
  const crypto::KeyPair key = TestKey("crlca");
  const Crl crl = SignCrl(MakeTbs(10, rng), key);

  auto parsed = ParseCrl(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tbs.issuer, crl.tbs.issuer);
  EXPECT_EQ(parsed->tbs.this_update, crl.tbs.this_update);
  EXPECT_EQ(parsed->tbs.next_update, crl.tbs.next_update);
  EXPECT_EQ(parsed->tbs.crl_number, 7);
  ASSERT_EQ(parsed->tbs.entries.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(parsed->tbs.entries[i].serial, crl.tbs.entries[i].serial);
    EXPECT_EQ(parsed->tbs.entries[i].revocation_date,
              crl.tbs.entries[i].revocation_date);
    EXPECT_EQ(parsed->tbs.entries[i].reason, crl.tbs.entries[i].reason);
  }
}

TEST(Crl, EmptyCrl) {
  util::Rng rng(2);
  const Crl crl = SignCrl(MakeTbs(0, rng), TestKey("k"));
  auto parsed = ParseCrl(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->tbs.entries.empty());
  // Tiny CRLs are well under 900 bytes (the raw-median observation, §5.2).
  EXPECT_LT(crl.SizeBytes(), 900u);
}

TEST(Crl, OptionalFieldsOmitted) {
  util::Rng rng(3);
  TbsCrl tbs = MakeTbs(1, rng);
  tbs.next_update = 0;
  tbs.crl_number = -1;
  const Crl crl = SignCrl(tbs, TestKey("k"));
  auto parsed = ParseCrl(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tbs.next_update, 0);
  EXPECT_EQ(parsed->tbs.crl_number, -1);
}

TEST(Crl, SignatureVerification) {
  util::Rng rng(4);
  const crypto::KeyPair key = TestKey("signer");
  const Crl crl = SignCrl(MakeTbs(5, rng), key);
  EXPECT_TRUE(VerifyCrlSignature(crl, key.Public()));
  EXPECT_FALSE(VerifyCrlSignature(crl, TestKey("other").Public()));

  auto parsed = ParseCrl(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(VerifyCrlSignature(*parsed, key.Public()));
}

TEST(Crl, TamperedEntryFailsSignature) {
  util::Rng rng(5);
  const crypto::KeyPair key = TestKey("signer2");
  Crl crl = SignCrl(MakeTbs(5, rng), key);
  Bytes tampered = crl.der;
  tampered[40] ^= 0xFF;
  auto parsed = ParseCrl(tampered);
  if (parsed) {
    EXPECT_FALSE(VerifyCrlSignature(*parsed, key.Public()));
  }
}

TEST(Crl, Expiry) {
  util::Rng rng(6);
  const Crl crl = SignCrl(MakeTbs(1, rng), TestKey("k"));
  EXPECT_FALSE(crl.IsExpired(kNow));
  EXPECT_FALSE(crl.IsExpired(kNow + util::kSecondsPerDay));
  EXPECT_TRUE(crl.IsExpired(kNow + util::kSecondsPerDay + 1));
}

TEST(Crl, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseCrl(Bytes{}));
  EXPECT_FALSE(ParseCrl(Bytes{0x30, 0x01, 0x00}));
  util::Rng rng(7);
  Bytes der = SignCrl(MakeTbs(3, rng), TestKey("k")).der;
  der.resize(der.size() - 10);
  EXPECT_FALSE(ParseCrl(der));
}

// A one-entry CRL assembled field by field, with `entry_tail` appended
// after the entry's last field and `tbs_tail` after the TBSCertList's.
Bytes HandBuiltCrl(BytesView entry_tail, BytesView tbs_tail,
                   bool with_extensions = true) {
  const crypto::KeyPair key = TestKey("hand");
  std::vector<Bytes> entry = {asn1::EncodeIntegerUnsigned(Bytes{0x42}),
                              asn1::EncodeTime(kNow - 60)};
  if (with_extensions) {
    entry.push_back(x509::EncodeExtensionList(
        {x509::MakeCrlReason(x509::ReasonCode::kKeyCompromise)}));
  }
  Bytes entry_content = asn1::Concat(entry);
  Append(entry_content, entry_tail);
  std::vector<Bytes> fields = {
      asn1::EncodeInteger(1), x509::EncodeSignatureAlgorithm(key.type),
      x509::Name::Make("Hand CA", "Hand").Encode(), asn1::EncodeTime(kNow),
      asn1::EncodeTime(kNow + util::kSecondsPerDay),
      asn1::EncodeSequence({asn1::Tlv(asn1::kTagSequence, entry_content)})};
  if (with_extensions) {
    fields.push_back(asn1::EncodeContextExplicit(
        0, x509::EncodeExtensionList({x509::MakeCrlNumber(9)})));
  }
  Bytes tbs_content = asn1::Concat(fields);
  Append(tbs_content, tbs_tail);
  const Bytes tbs = asn1::Tlv(asn1::kTagSequence, tbs_content);
  return asn1::EncodeSequence({tbs, x509::EncodeSignatureAlgorithm(key.type),
                               asn1::EncodeBitString(crypto::Sign(key, tbs))});
}

TEST(Crl, HandBuiltCrlMatchesEncoder) {
  for (bool with_extensions : {true, false}) {
    const Bytes der = HandBuiltCrl({}, {}, with_extensions);
    auto parsed = ParseCrl(der);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(SignCrl(parsed->tbs, TestKey("hand")).der, der);
    EXPECT_EQ(EncodeTbsCrl(parsed->tbs, parsed->sig_type), parsed->tbs_der);
  }
}

// The parser used to skip whatever followed an entry's crlEntryExtensions
// and the TBSCertList's crlExtensions, accepting CRLs whose re-encoding
// differs from their bytes.
TEST(Crl, ParseRejectsTrailingTlvs) {
  const std::vector<Bytes> tails = {
      asn1::EncodeNull(), asn1::EncodeOctetString(Bytes{1, 2, 3}),
      asn1::EncodeTime(kNow),
      x509::EncodeExtensionList(
          {x509::MakeCrlReason(x509::ReasonCode::kSuperseded)}),
      asn1::EncodeContextExplicit(
          0, x509::EncodeExtensionList({x509::MakeCrlNumber(10)}))};
  for (const Bytes& tail : tails) {
    SCOPED_TRACE(util::HexEncode(tail));
    EXPECT_FALSE(ParseCrl(HandBuiltCrl(tail, {})));
    EXPECT_FALSE(ParseCrl(HandBuiltCrl({}, tail)));
    // Without the optional extensions, the tail follows revocationDate and
    // the revokedCertificates list instead.
    if (tail[0] != asn1::kTagSequence && tail[0] != 0xA0) {
      EXPECT_FALSE(ParseCrl(HandBuiltCrl(tail, {}, false)));
      EXPECT_FALSE(ParseCrl(HandBuiltCrl({}, tail, false)));
    }
  }
}

TEST(Crl, DescribeRendering) {
  util::Rng rng(12);
  const Crl crl = SignCrl(MakeTbs(25, rng), TestKey("k"));
  const std::string text = DescribeCrl(crl, 5);
  EXPECT_NE(text.find("CRL Test CA"), std::string::npos);
  EXPECT_NE(text.find("entries     : 25"), std::string::npos);
  EXPECT_NE(text.find("... 20 more"), std::string::npos);
}

TEST(CrlIndex, LookupSemantics) {
  util::Rng rng(8);
  const Crl crl = SignCrl(MakeTbs(100, rng), TestKey("k"));
  const CrlIndex index(crl);
  EXPECT_EQ(index.size(), 100u);
  for (const CrlEntry& entry : crl.tbs.entries) {
    const CrlEntry* found = index.Lookup(entry.serial);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->revocation_date, entry.revocation_date);
    EXPECT_TRUE(index.IsRevoked(entry.serial));
  }
  EXPECT_FALSE(index.IsRevoked(RandomSerial(rng, 16)));
  EXPECT_EQ(index.Lookup(x509::Serial{}), nullptr);
}

TEST(CrlIndex, EmptyIndex) {
  CrlIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.IsRevoked(x509::Serial{1, 2, 3}));
}

// Fig. 5 property: size grows linearly with entries, ~tens of bytes each.
TEST(Crl, SizeLinearInEntries) {
  util::Rng rng(9);
  std::vector<double> xs, ys;
  for (std::size_t n : {10u, 100u, 500u, 1000u, 5000u}) {
    const Crl crl = SignCrl(MakeTbs(n, rng), TestKey("k"));
    xs.push_back(static_cast<double>(n));
    ys.push_back(static_cast<double>(crl.SizeBytes()));
  }
  const util::LinearFit fit = util::FitLine(xs, ys);
  EXPECT_GT(fit.r, 0.999);
  // Our 16-byte serials + times + occasional reason put each entry in the
  // same ballpark as the paper's 38-byte average.
  EXPECT_GT(fit.slope, 25.0);
  EXPECT_LT(fit.slope, 60.0);
}

// Serial-length policy shifts per-entry size (the Fig. 5 variance).
TEST(Crl, SerialLengthAffectsSize) {
  util::Rng rng(10);
  const Crl small = SignCrl(MakeTbs(1000, rng, 8), TestKey("k"));
  const Crl large = SignCrl(MakeTbs(1000, rng, 21), TestKey("k"));
  EXPECT_GT(large.SizeBytes(), small.SizeBytes() + 10'000u);
}

TEST(Crl, LargeCrlRoundTrip) {
  util::Rng rng(11);
  const Crl crl = SignCrl(MakeTbs(20'000, rng), TestKey("k"));
  auto parsed = ParseCrl(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tbs.entries.size(), 20'000u);
  EXPECT_GT(crl.SizeBytes(), 500'000u);
}


// ------------------------------------------------------------- golden ----
//
// SHA-256 digests of signed CRL DER, recorded from the vector-per-entry
// encoder that preceded the sized TBSCertList writer. Any byte the encoder
// changes shows up here.

std::string DerDigest(const TbsCrl& tbs) {
  return util::HexEncode(
      crypto::Sha256Bytes(SignCrl(tbs, TestKey("golden")).der));
}

TbsCrl GoldenBase() {
  TbsCrl tbs;
  tbs.issuer = x509::Name::Make("Golden CA", "Golden");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 42;
  return tbs;
}

void AddEntry(TbsCrl& tbs, x509::Serial serial, util::Timestamp when,
              x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode) {
  tbs.entries.push_back(CrlEntry{std::move(serial), when, reason});
}

TEST(CrlGolden, EmptyCrl) {
  EXPECT_EQ(DerDigest(GoldenBase()), "7d85d692637e9caf9b1230a885c007f51d598c6552e6ddbd4d8b2359af9a267a");
}

TEST(CrlGolden, OptionalFieldsOmitted) {
  TbsCrl tbs = GoldenBase();
  tbs.next_update = 0;
  tbs.crl_number = -1;
  EXPECT_EQ(DerDigest(tbs), "1762f4c61bd7c44713b3578650e96fc07005b5afc6e0971aba1be3d642f4ea04");
  AddEntry(tbs, {0x01, 0x02, 0x03}, kNow - 1000);
  AddEntry(tbs, {0x44}, kNow - 2000, x509::ReasonCode::kSuperseded);
  EXPECT_EQ(DerDigest(tbs), "9a134342e4b0890460f39bfe8f2ca264c071fe5077a4b230320f49cfe1f45ee8");
}

TEST(CrlGolden, CrlNumbers) {
  std::vector<std::string> digests;
  for (std::int64_t number : {std::int64_t{0}, std::int64_t{127},
                              std::int64_t{128}, std::int64_t{1} << 40}) {
    TbsCrl tbs = GoldenBase();
    tbs.crl_number = number;
    AddEntry(tbs, {0x0A, 0x0B}, kNow - 60);
    digests.push_back(DerDigest(tbs));
  }
  EXPECT_EQ(digests, (std::vector<std::string>{
      "35fc5a23b23578ad4025846951fe349fc64abc6fb2f73941a73b2fa5d77e5878",
      "991a80dc7129a8098241d0f7b1bc7f06c1857043e9f5e0713c0619e5be7a30ba",
      "0ba59d9178d0d770f3977b1824c507539549f8eadec883e59da1a04670ce5111",
      "312af49213691afca539696bae8c09524dc8e7436aa4cd5f52a3c3aa2766b540"}));
}

TEST(CrlGolden, SerialEdgeCases) {
  TbsCrl tbs = GoldenBase();
  const util::Timestamp when = kNow - 3600;
  AddEntry(tbs, {0x00, 0x00, 0x12}, when);        // leading zero bytes
  AddEntry(tbs, {0x00, 0x00, 0x00}, when);        // all zeros
  AddEntry(tbs, {}, when);                        // empty magnitude
  AddEntry(tbs, {0x80}, when);                    // top bit: 0x00 pad
  AddEntry(tbs, {0x00, 0x80, 0x01}, when);        // stripped, then padded
  AddEntry(tbs, {0x7F, 0xFF}, when);              // top bit clear
  AddEntry(tbs, x509::Serial(20, 0xFF), when);    // 20 bytes, padded to 21
  AddEntry(tbs, x509::Serial(127, 0x5A), when);   // INTEGER in long form
  AddEntry(tbs, x509::Serial(130, 0xA5), when);   // entry SEQUENCE long form
  EXPECT_EQ(DerDigest(tbs), "fc9e63720029617ea9d9c9ab6e6b3b60efabda80eebbe42610ff6a9ec4088774");
}

TEST(CrlGolden, EveryReasonCode) {
  using x509::ReasonCode;
  TbsCrl tbs = GoldenBase();
  std::uint8_t i = 1;
  for (ReasonCode reason :
       {ReasonCode::kNoReasonCode, ReasonCode::kUnspecified,
        ReasonCode::kKeyCompromise, ReasonCode::kCaCompromise,
        ReasonCode::kAffiliationChanged, ReasonCode::kSuperseded,
        ReasonCode::kCessationOfOperation, ReasonCode::kCertificateHold,
        ReasonCode::kRemoveFromCrl, ReasonCode::kPrivilegeWithdrawn,
        ReasonCode::kAaCompromise}) {
    AddEntry(tbs, {0x10, i}, kNow - i * 100, reason);
    ++i;
  }
  EXPECT_EQ(DerDigest(tbs), "cb277545b04678a716f68b41f029d89888e727de877f8096d7ab2c290812a919");
}

TEST(CrlGolden, UtcVersusGeneralizedTime) {
  const util::Timestamp y1949 = util::MakeDate(1950, 1, 1) - 1;
  const util::Timestamp y1950 = util::MakeDate(1950, 1, 1);
  const util::Timestamp y2049 = util::MakeDate(2050, 1, 1) - 1;
  const util::Timestamp y2050 = util::MakeDate(2050, 1, 1);
  TbsCrl tbs = GoldenBase();
  AddEntry(tbs, {0x01}, y1949);
  AddEntry(tbs, {0x02}, y1950);
  AddEntry(tbs, {0x03}, y2049);
  AddEntry(tbs, {0x04}, y2050);
  AddEntry(tbs, {0x05}, util::MakeDate(1949, 6, 15) + 45296);
  AddEntry(tbs, {0x06}, util::MakeDate(2050, 7, 4) + 86399);
  AddEntry(tbs, {0x07}, util::MakeDate(1970, 1, 1));
  EXPECT_EQ(DerDigest(tbs), "7a8617a6a0d91514617d056c472685f5b53416a8364f2d299d0fcff1b9b26a7f");
  // thisUpdate/nextUpdate on either side of the switch too.
  tbs.this_update = y2049;
  tbs.next_update = y2050;
  EXPECT_EQ(DerDigest(tbs), "6195a6390f78f5fa2c4dd200afa370270af69882a4bf4bd1f3d37aadb43ec948");
  tbs.this_update = y1949;
  tbs.next_update = y1950;
  EXPECT_EQ(DerDigest(tbs), "0376c20835244daba900782701f9d77063c61b02963fb697b95a5c7fe4b87cf8");
}

// Returns the length octet that follows the tag of the revokedCertificates
// SEQUENCE (0x81..0x83 for the long forms).
std::uint8_t EntriesLengthOctet(const Crl& crl) {
  asn1::Reader top{BytesView(crl.tbs_der)};
  asn1::Reader tbs;
  EXPECT_TRUE(top.ReadSequence(&tbs));
  BytesView skipped;
  // version, signature, issuer, thisUpdate, nextUpdate.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tbs.ReadRawTlv(&skipped));
  BytesView entries;
  EXPECT_TRUE(tbs.ReadRawTlv(&entries));
  return entries.size() > 1 ? entries[1] : 0;
}

TEST(CrlGolden, EntriesSequenceLengthForms) {
  struct Case {
    std::size_t entries;
    std::uint8_t length_octet;
  };
  std::vector<std::string> digests;
  for (const Case& c : {Case{3, 0x6A}, Case{5, 0x81}, Case{120, 0x82},
                        Case{2500, 0x83}}) {
    util::Rng rng(500 + c.entries);
    TbsCrl tbs = GoldenBase();
    for (std::size_t i = 0; i < c.entries; ++i) {
      AddEntry(tbs, RandomSerial(rng, 16),
               kNow - static_cast<util::Timestamp>(rng.NextBelow(10'000'000)),
               (c.entries > 5 && i % 4 == 0) ? x509::ReasonCode::kKeyCompromise
                                             : x509::ReasonCode::kNoReasonCode);
    }
    const Crl crl = SignCrl(tbs, TestKey("golden"));
    EXPECT_EQ(EntriesLengthOctet(crl), c.length_octet) << c.entries;
    digests.push_back(util::HexEncode(crypto::Sha256Bytes(crl.der)));
  }
  EXPECT_EQ(digests, (std::vector<std::string>{
      "e3942bf2f383913b62520876db70f712e272170ae979ef4995ba9396e2d827d7",
      "456306c9bdb7132c6be2af2a3f6403beac14796d51bdac1786ac904c1c9de349",
      "28e710da9806852f689797daf8c37a30cec0881959f9447ed964006cb71f2cf5",
      "69d48e61e4357a5a7560095bd4b697acf80f16b59a14215bb15a38ff06608a20"}));
}

}  // namespace
}  // namespace rev::crl
