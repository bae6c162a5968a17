// DER encode/decode tests: known encodings, round-trip properties, and
// strictness (rejection of non-minimal/truncated forms).
#include <gtest/gtest.h>

#include <algorithm>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/hex.h"
#include "util/rng.h"

namespace rev::asn1 {
namespace {

using util::HexEncode;

// ------------------------------------------------------------- writer ----

TEST(Writer, KnownIntegerEncodings) {
  EXPECT_EQ(HexEncode(EncodeInteger(0)), "020100");
  EXPECT_EQ(HexEncode(EncodeInteger(1)), "020101");
  EXPECT_EQ(HexEncode(EncodeInteger(127)), "02017f");
  EXPECT_EQ(HexEncode(EncodeInteger(128)), "02020080");
  EXPECT_EQ(HexEncode(EncodeInteger(256)), "02020100");
  EXPECT_EQ(HexEncode(EncodeInteger(-1)), "0201ff");
  EXPECT_EQ(HexEncode(EncodeInteger(-128)), "020180");
  EXPECT_EQ(HexEncode(EncodeInteger(-129)), "0202ff7f");
}

TEST(Writer, KnownBoolean) {
  EXPECT_EQ(HexEncode(EncodeBoolean(true)), "0101ff");
  EXPECT_EQ(HexEncode(EncodeBoolean(false)), "010100");
}

TEST(Writer, KnownNull) { EXPECT_EQ(HexEncode(EncodeNull()), "0500"); }

TEST(Writer, KnownOid) {
  // sha256WithRSAEncryption = 1.2.840.113549.1.1.11
  EXPECT_EQ(HexEncode(EncodeOid(oids::Sha256WithRsa())),
            "06092a864886f70d01010b");
}

TEST(Writer, LongFormLength) {
  const Bytes content(200, 0xAB);
  const Bytes tlv = EncodeOctetString(content);
  EXPECT_EQ(tlv[0], 0x04);
  EXPECT_EQ(tlv[1], 0x81);  // long form, 1 length byte
  EXPECT_EQ(tlv[2], 200);
  EXPECT_EQ(tlv.size(), 203u);

  const Bytes big(70000, 0x00);
  const Bytes big_tlv = EncodeOctetString(big);
  EXPECT_EQ(big_tlv[1], 0x83);  // 3 length bytes
  EXPECT_EQ(HeaderSize(70000), 5u);
}

TEST(Writer, IntegerUnsignedPadding) {
  // High bit set => 0x00 prepended.
  EXPECT_EQ(HexEncode(EncodeIntegerUnsigned(Bytes{0x80})), "02020080");
  EXPECT_EQ(HexEncode(EncodeIntegerUnsigned(Bytes{0x7F})), "02017f");
  // Leading zeros stripped.
  EXPECT_EQ(HexEncode(EncodeIntegerUnsigned(Bytes{0x00, 0x00, 0x12})),
            "020112");
  // Zero encodes as one byte.
  EXPECT_EQ(HexEncode(EncodeIntegerUnsigned(Bytes{})), "020100");
  EXPECT_EQ(HexEncode(EncodeIntegerUnsigned(Bytes{0x00})), "020100");
}

TEST(Writer, TimeChoosesUtcVsGeneralized) {
  // 2014 => UTCTime (tag 0x17); 2050 => GeneralizedTime (tag 0x18).
  EXPECT_EQ(EncodeTime(util::MakeDate(2014, 4, 8))[0], 0x17);
  EXPECT_EQ(EncodeTime(util::MakeDate(2050, 1, 1))[0], 0x18);
  EXPECT_EQ(EncodeTime(util::MakeDate(1949, 12, 31))[0], 0x18);
}

// Exact Time encodings, recorded from the snprintf-based formatter that
// preceded the digit writer. Years outside [0, 9999] keep printf's "%04d"
// shape (a sign, or a fifth digit).
TEST(Writer, KnownTimeEncodings) {
  const util::Timestamp t = util::MakeDate(2014, 4, 8) + 3723;  // 01:02:03
  EXPECT_EQ(HexEncode(EncodeTime(t)), "170d3134303430383031303230335a");
  EXPECT_EQ(HexEncode(EncodeUtcTime(t)), "170d3134303430383031303230335a");
  EXPECT_EQ(HexEncode(EncodeGeneralizedTime(t)), "180f32303134303430383031303230335a");
  EXPECT_EQ(HexEncode(EncodeTime(util::MakeDate(1950, 1, 1) - 1)), "180f31393439313233313233353935395a");
  EXPECT_EQ(HexEncode(EncodeTime(util::MakeDate(2049, 12, 31) + 86399)),
            "170d3439313233313233353935395a");
  EXPECT_EQ(HexEncode(EncodeTime(util::MakeDate(1, 2, 3))), "180f30303031303230333030303030305a");
  EXPECT_EQ(HexEncode(EncodeTime(util::MakeDate(10000, 1, 1))), "18103130303030303130313030303030305a");
  EXPECT_EQ(HexEncode(EncodeTime(util::MakeDate(-1, 12, 31))), "180f2d303031313233313030303030305a");
  EXPECT_EQ(HexEncode(EncodeUtcTime(util::MakeDate(2107, 5, 6))), "170d3037303530363030303030305a");
  EXPECT_EQ(HexEncode(EncodeUtcTime(util::MakeDate(-5, 5, 6))), "170d2d35303530363030303030305a");
}

// Each Append* primitive writes exactly its Encode* twin's bytes, and its
// *Size function predicts them.
TEST(Writer, AppendHeaderMatchesTlv) {
  for (std::size_t n : {0u, 1u, 127u, 128u, 255u, 256u, 65'535u, 65'536u,
                        1u << 24}) {
    const Bytes tlv = Tlv(kTagSequence, Bytes(n, 0x5A));
    Bytes header = {0xEE};
    AppendHeader(header, kTagSequence, n);
    ASSERT_EQ(header.size(), 1 + HeaderSize(n)) << n;
    EXPECT_TRUE(std::equal(header.begin() + 1, header.end(), tlv.begin()))
        << n;
  }
}

TEST(Writer, AppendIntegerUnsignedMatchesEncode) {
  util::Rng rng(31);
  std::vector<Bytes> magnitudes = {{},           {0x00},       {0x00, 0x00},
                                   {0x80},       {0x00, 0x80}, {0x7F, 0xFF},
                                   Bytes(130, 0xC3)};
  for (int i = 0; i < 200; ++i) {
    Bytes m(rng.NextBelow(24));
    rng.Fill(m.data(), m.size());
    if (!m.empty() && i % 3 == 0) m[0] = 0;
    magnitudes.push_back(std::move(m));
  }
  for (const Bytes& m : magnitudes) {
    Bytes out = {0xEE};
    AppendIntegerUnsigned(out, m);
    EXPECT_EQ(Bytes(out.begin() + 1, out.end()), EncodeIntegerUnsigned(m));
    EXPECT_EQ(IntegerUnsignedSize(m), out.size() - 1);
  }
}

// TimeSize answers from the timestamp alone inside [0000, 10000); the
// instants where UTCTime/GeneralizedTime and four-digit years switch are
// checked on both sides.
TEST(Writer, TimeSizeMatchesEncoding) {
  std::vector<util::Timestamp> times;
  for (util::Timestamp edge :
       {util::MakeDate(1950, 1, 1), util::MakeDate(2050, 1, 1),
        util::MakeDate(0, 1, 1), util::MakeDate(10000, 1, 1),
        util::MakeDate(1970, 1, 1), util::MakeDate(-10000, 1, 1),
        util::MakeDate(100000, 1, 1)}) {
    for (util::Timestamp d = -2; d <= 2; ++d) times.push_back(edge + d);
  }
  util::Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    times.push_back(util::MakeDate(1900, 1, 1) +
                    static_cast<util::Timestamp>(
                        rng.NextBelow(250ull * 365 * util::kSecondsPerDay)));
  }
  for (util::Timestamp ts : times) {
    const Bytes der = EncodeTime(ts);
    Bytes out = {0xEE};
    AppendTime(out, ts);
    EXPECT_EQ(Bytes(out.begin() + 1, out.end()), der) << ts;
    EXPECT_EQ(TimeSize(ts), der.size()) << ts;
  }
}

TEST(Writer, ContextTags) {
  EXPECT_EQ(ContextTag(0, false), 0x80);
  EXPECT_EQ(ContextTag(0, true), 0xA0);
  EXPECT_EQ(ContextTag(3, true), 0xA3);
  EXPECT_EQ(ContextTag(6, false), 0x86);
}

// ---------------------------------------------------------------- oid ----

TEST(Oid, ParseAndToString) {
  auto oid = Oid::Parse("1.2.840.113549.1.1.11");
  ASSERT_TRUE(oid);
  EXPECT_EQ(*oid, oids::Sha256WithRsa());
  EXPECT_EQ(oid->ToString(), "1.2.840.113549.1.1.11");
}

TEST(Oid, ParseRejectsMalformed) {
  EXPECT_FALSE(Oid::Parse(""));
  EXPECT_FALSE(Oid::Parse("1"));
  EXPECT_FALSE(Oid::Parse("1..2"));
  EXPECT_FALSE(Oid::Parse("1.2."));
  EXPECT_FALSE(Oid::Parse(".1.2"));
  EXPECT_FALSE(Oid::Parse("3.1"));    // first component > 2
  EXPECT_FALSE(Oid::Parse("1.40"));   // second >= 40 under arc 1
  EXPECT_FALSE(Oid::Parse("1.2.x"));
}

TEST(Oid, ContentRoundTrip) {
  for (const char* s : {"1.2.840.113549.1.1.11", "2.5.29.31", "0.9.2342",
                        "2.16.840.1.113733.1.7.23.6", "1.3.6.1.4.1.55555.1.1",
                        "2.999.1"}) {
    auto oid = Oid::Parse(s);
    ASSERT_TRUE(oid) << s;
    auto decoded = Oid::DecodeContent(oid->EncodeContent());
    ASSERT_TRUE(decoded) << s;
    EXPECT_EQ(*decoded, *oid) << s;
  }
}

TEST(Oid, DecodeRejectsNonMinimal) {
  // 0x80 leading continuation octet is forbidden.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{0x2A, 0x80, 0x01}));
  // Truncated multi-byte component.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{0x2A, 0x86}));
  // Empty.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{}));
}

// ------------------------------------------------------------- reader ----

TEST(Reader, ReadTaggedSequence) {
  const Bytes der = EncodeSequence({EncodeInteger(42), EncodeBoolean(true)});
  Reader r{BytesView(der)};
  Reader seq;
  ASSERT_TRUE(r.ReadSequence(&seq));
  EXPECT_TRUE(r.Empty());
  std::int64_t v;
  bool b;
  ASSERT_TRUE(seq.ReadInteger(&v));
  ASSERT_TRUE(seq.ReadBoolean(&b));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(b);
  EXPECT_TRUE(seq.Empty());
}

TEST(Reader, IntegerRoundTripProperty) {
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.Next()) >>
                           rng.NextBelow(64);
    const Bytes der = EncodeInteger(v);
    Reader r{BytesView(der)};
    std::int64_t decoded;
    ASSERT_TRUE(r.ReadInteger(&decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(Reader, IntegerUnsignedRoundTrip) {
  util::Rng rng(2);
  for (int len : {1, 2, 8, 20, 49}) {
    Bytes magnitude(static_cast<std::size_t>(len));
    rng.Fill(magnitude.data(), magnitude.size());
    if (magnitude[0] == 0) magnitude[0] = 0x7F;
    const Bytes der = EncodeIntegerUnsigned(magnitude);
    Reader r{BytesView(der)};
    Bytes decoded;
    ASSERT_TRUE(r.ReadIntegerUnsigned(&decoded));
    EXPECT_EQ(decoded, magnitude);
  }
}

TEST(Reader, RejectsNegativeForUnsigned) {
  const Bytes der = EncodeInteger(-5);
  Reader r{BytesView(der)};
  Bytes decoded;
  EXPECT_FALSE(r.ReadIntegerUnsigned(&decoded));
}

TEST(Reader, RejectsNonMinimalInteger) {
  // 0x00 0x01 is a non-minimal encoding of 1.
  const Bytes bad = {0x02, 0x02, 0x00, 0x01};
  Reader r{BytesView(bad)};
  std::int64_t v;
  EXPECT_FALSE(r.ReadInteger(&v));
  // 0xFF 0xFF is a non-minimal encoding of -1.
  const Bytes bad2 = {0x02, 0x02, 0xFF, 0xFF};
  Reader r2{BytesView(bad2)};
  EXPECT_FALSE(r2.ReadInteger(&v));
}

TEST(Reader, RejectsNonMinimalLength) {
  // Long-form length for a value that fits short form.
  const Bytes bad = {0x04, 0x81, 0x03, 0x01, 0x02, 0x03};
  Reader r{BytesView(bad)};
  BytesView content;
  EXPECT_FALSE(r.ReadOctetString(&content));
}

TEST(Reader, RejectsTruncated) {
  const Bytes der = EncodeOctetString(Bytes(100, 0x42));
  for (std::size_t cut : {1u, 2u, 50u, 101u}) {
    Reader r{BytesView(der.data(), der.size() - cut)};
    BytesView content;
    EXPECT_FALSE(r.ReadOctetString(&content)) << "cut " << cut;
  }
}

TEST(Reader, RejectsBadBooleanContent) {
  const Bytes bad = {0x01, 0x01, 0x42};  // DER requires 0x00 or 0xFF
  Reader r{BytesView(bad)};
  bool b;
  EXPECT_FALSE(r.ReadBoolean(&b));
}

TEST(Reader, BitStringUnusedBits) {
  const Bytes content = {0xAB, 0xCD};
  const Bytes der = EncodeBitString(content, 4);
  Reader r{BytesView(der)};
  BytesView decoded;
  unsigned unused = 0;
  ASSERT_TRUE(r.ReadBitString(&decoded, &unused));
  EXPECT_EQ(unused, 4u);
  EXPECT_EQ(Bytes(decoded.begin(), decoded.end()), content);
  // Unused bits > 7 rejected.
  const Bytes bad = {0x03, 0x02, 0x08, 0xFF};
  Reader r2{BytesView(bad)};
  EXPECT_FALSE(r2.ReadBitString(&decoded, &unused));
}

TEST(Reader, TimeRoundTrip) {
  for (util::Timestamp ts :
       {util::MakeDate(1970, 1, 1), util::MakeDate(2014, 4, 8) + 8000,
        util::MakeDate(2049, 12, 31), util::MakeDate(2050, 1, 1),
        util::MakeDate(2099, 6, 15) + 12345}) {
    const Bytes der = EncodeTime(ts);
    Reader r{BytesView(der)};
    util::Timestamp decoded;
    ASSERT_TRUE(r.ReadTime(&decoded)) << ts;
    EXPECT_EQ(decoded, ts);
  }
}

TEST(Reader, UtcTimeSlidingWindow) {
  // 490101000000Z -> 2049; 500101000000Z -> 1950.
  const Bytes y49 = Tlv(kTagUtcTime, ToBytes("490101000000Z"));
  const Bytes y50 = Tlv(kTagUtcTime, ToBytes("500101000000Z"));
  Reader r1{BytesView(y49)}, r2{BytesView(y50)};
  util::Timestamp t1, t2;
  ASSERT_TRUE(r1.ReadTime(&t1));
  ASSERT_TRUE(r2.ReadTime(&t2));
  EXPECT_EQ(util::ToCivil(t1).year, 2049);
  EXPECT_EQ(util::ToCivil(t2).year, 1950);
}

TEST(Reader, RejectsBadTime) {
  for (const char* bad : {"990231000000Z",  // Feb 31
                          "991301000000Z",  // month 13
                          "990101250000Z",  // hour 25
                          "990101000000",   // missing Z
                          "9901010000Z"}) { // too short
    const Bytes der = Tlv(kTagUtcTime, ToBytes(bad));
    Reader r{BytesView(der)};
    util::Timestamp ts;
    EXPECT_FALSE(r.ReadTime(&ts)) << bad;
  }
}

TEST(Reader, ContextTags) {
  const Bytes inner = EncodeInteger(7);
  const Bytes explicit_tag = EncodeContextExplicit(3, inner);
  Reader r{BytesView(explicit_tag)};
  EXPECT_TRUE(r.NextIsContext(3));
  EXPECT_FALSE(r.NextIsContext(2));
  Reader content;
  ASSERT_TRUE(r.ReadContextExplicit(3, &content));
  std::int64_t v;
  ASSERT_TRUE(content.ReadInteger(&v));
  EXPECT_EQ(v, 7);

  const Bytes primitive = EncodeContextPrimitive(6, ToBytes("http://x/"));
  Reader r2{BytesView(primitive)};
  BytesView uri;
  ASSERT_TRUE(r2.ReadContextPrimitive(6, &uri));
  EXPECT_EQ(ToString(uri), "http://x/");
}

TEST(Reader, ReadRawTlvPreservesBytes) {
  const Bytes seq = EncodeSequence({EncodeInteger(1), EncodeNull()});
  const Bytes wrapper = EncodeSequence({seq, EncodeBoolean(false)});
  Reader r{BytesView(wrapper)};
  Reader outer;
  ASSERT_TRUE(r.ReadSequence(&outer));
  BytesView raw;
  ASSERT_TRUE(outer.ReadRawTlv(&raw));
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), seq);
  bool b;
  ASSERT_TRUE(outer.ReadBoolean(&b));
}

TEST(Reader, StringTypes) {
  const Bytes utf8 = EncodeUtf8String("héllo");
  const Bytes printable = EncodePrintableString("hello");
  const Bytes ia5 = EncodeIa5String("http://example.com");
  std::string s;
  Reader r1{BytesView(utf8)};
  ASSERT_TRUE(r1.ReadAnyString(&s));
  EXPECT_EQ(s, "héllo");
  Reader r2{BytesView(printable)};
  ASSERT_TRUE(r2.ReadAnyString(&s));
  EXPECT_EQ(s, "hello");
  Reader r3{BytesView(ia5)};
  ASSERT_TRUE(r3.ReadAnyString(&s));
  EXPECT_EQ(s, "http://example.com");
  // Wrong type rejected by tagged read.
  Reader r4{BytesView(utf8)};
  EXPECT_FALSE(r4.ReadStringTagged(kTagPrintableString, &s));
}

TEST(Reader, EnumeratedRoundTrip) {
  const Bytes der = EncodeEnumerated(4);  // superseded reason code
  Reader r{BytesView(der)};
  std::int64_t v;
  ASSERT_TRUE(r.ReadEnumerated(&v));
  EXPECT_EQ(v, 4);
}

// Nested structure round-trip property: build random trees and re-read.
class NestedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NestedRoundTrip, RandomTrees) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  // Build a random SEQUENCE of primitives, possibly nested one level.
  std::vector<Bytes> children;
  const int n = 1 + static_cast<int>(rng.NextBelow(6));
  std::vector<int> kinds;
  for (int i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng.NextBelow(4));
    kinds.push_back(kind);
    switch (kind) {
      case 0:
        children.push_back(EncodeInteger(static_cast<std::int64_t>(rng.Next())));
        break;
      case 1:
        children.push_back(EncodeBoolean(rng.Chance(0.5)));
        break;
      case 2: {
        Bytes blob(rng.NextBelow(300));
        rng.Fill(blob.data(), blob.size());
        children.push_back(EncodeOctetString(blob));
        break;
      }
      case 3:
        children.push_back(
            EncodeSequence({EncodeNull(), EncodeInteger(7)}));
        break;
    }
  }
  const Bytes der = EncodeSequence(children);
  Reader top{BytesView(der)};
  Reader seq;
  ASSERT_TRUE(top.ReadSequence(&seq));
  for (int i = 0; i < n; ++i) {
    switch (kinds[static_cast<std::size_t>(i)]) {
      case 0: {
        std::int64_t v;
        ASSERT_TRUE(seq.ReadInteger(&v));
        break;
      }
      case 1: {
        bool b;
        ASSERT_TRUE(seq.ReadBoolean(&b));
        break;
      }
      case 2: {
        BytesView blob;
        ASSERT_TRUE(seq.ReadOctetString(&blob));
        break;
      }
      case 3: {
        Reader inner;
        ASSERT_TRUE(seq.ReadSequence(&inner));
        ASSERT_TRUE(inner.ReadNull());
        std::int64_t v;
        ASSERT_TRUE(inner.ReadInteger(&v));
        EXPECT_EQ(v, 7);
        break;
      }
    }
  }
  EXPECT_TRUE(seq.Empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedRoundTrip, ::testing::Range(0, 20));

}  // namespace
}  // namespace rev::asn1
