#include "asn1/writer.h"

#include <cassert>

namespace rev::asn1 {

std::uint8_t ContextTag(unsigned n, bool constructed) {
  assert(n < 31);
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

std::size_t HeaderSize(std::size_t content_len) {
  if (content_len < 0x80) return 2;
  std::size_t len_bytes = 0;
  for (std::size_t v = content_len; v; v >>= 8) ++len_bytes;
  return 2 + len_bytes;
}

void AppendHeader(Bytes& out, std::uint8_t tag, std::size_t content_len) {
  std::uint8_t header[2 + sizeof(std::size_t)];
  const std::size_t size = HeaderSize(content_len);
  header[0] = tag;
  if (size == 2) {
    header[1] = static_cast<std::uint8_t>(content_len);
  } else {
    header[1] = static_cast<std::uint8_t>(0x80 | (size - 2));
    for (std::size_t i = size - 1; i >= 2; --i, content_len >>= 8)
      header[i] = static_cast<std::uint8_t>(content_len & 0xFF);
  }
  out.insert(out.end(), header, header + size);
}

Bytes Tlv(std::uint8_t tag, BytesView content) {
  Bytes out;
  out.reserve(HeaderSize(content.size()) + content.size());
  AppendHeader(out, tag, content.size());
  Append(out, content);
  return out;
}

Bytes EncodeBoolean(bool value) {
  const std::uint8_t content = value ? 0xFF : 0x00;
  return Tlv(kTagBoolean, BytesView(&content, 1));
}

namespace {
Bytes IntegerContent(std::int64_t value) {
  // Two's-complement, minimal length.
  Bytes content;
  bool more = true;
  while (more) {
    const std::uint8_t byte = static_cast<std::uint8_t>(value & 0xFF);
    value >>= 8;
    // Finished when remaining bits are a pure sign extension of this byte.
    more = !((value == 0 && !(byte & 0x80)) || (value == -1 && (byte & 0x80)));
    content.push_back(byte);
  }
  // Bytes were collected little-endian; reverse.
  return Bytes(content.rbegin(), content.rend());
}
}  // namespace

Bytes EncodeInteger(std::int64_t value) {
  return Tlv(kTagInteger, IntegerContent(value));
}

namespace {

// A big-endian magnitude without its leading zero bytes.
BytesView Significant(BytesView magnitude_be) {
  std::size_t skip = 0;
  while (skip < magnitude_be.size() && magnitude_be[skip] == 0) ++skip;
  return magnitude_be.subspan(skip);
}

// INTEGER content length: zero is one 0x00 byte, and a set top bit gets a
// 0x00 pad so the value stays positive.
std::size_t UnsignedContentSize(BytesView significant) {
  return significant.empty() ? 1 : significant.size() + (significant[0] >> 7);
}

}  // namespace

std::size_t IntegerUnsignedSize(BytesView magnitude_be) {
  const std::size_t n = UnsignedContentSize(Significant(magnitude_be));
  return HeaderSize(n) + n;
}

void AppendIntegerUnsigned(Bytes& out, BytesView magnitude_be) {
  const BytesView digits = Significant(magnitude_be);
  AppendHeader(out, kTagInteger, UnsignedContentSize(digits));
  if (digits.empty() || (digits[0] & 0x80)) out.push_back(0x00);
  Append(out, digits);
}

Bytes EncodeIntegerUnsigned(BytesView magnitude_be) {
  Bytes out;
  out.reserve(IntegerUnsignedSize(magnitude_be));
  AppendIntegerUnsigned(out, magnitude_be);
  return out;
}

Bytes EncodeEnumerated(std::int64_t value) {
  return Tlv(kTagEnumerated, IntegerContent(value));
}

Bytes EncodeNull() { return Tlv(kTagNull, {}); }

Bytes EncodeOid(const Oid& oid) { return Tlv(kTagOid, oid.EncodeContent()); }

Bytes EncodeOctetString(BytesView content) {
  return Tlv(kTagOctetString, content);
}

Bytes EncodeBitString(BytesView content, unsigned unused_bits) {
  Bytes inner;
  inner.reserve(content.size() + 1);
  inner.push_back(static_cast<std::uint8_t>(unused_bits));
  Append(inner, content);
  return Tlv(kTagBitString, inner);
}

Bytes EncodeUtf8String(std::string_view s) {
  return Tlv(kTagUtf8String, ToBytes(s));
}

Bytes EncodePrintableString(std::string_view s) {
  return Tlv(kTagPrintableString, ToBytes(s));
}

Bytes EncodeIa5String(std::string_view s) {
  return Tlv(kTagIa5String, ToBytes(s));
}

namespace {

// X.509 Time is UTCTime for [1950-01-01, 2050-01-01) and GeneralizedTime
// otherwise, whose year has four digits in [0000-01-01, 10000-01-01).
// (Unix seconds; the Writer.TimeSize* tests pin each boundary.)
constexpr util::Timestamp kUtcTimeFirst = -631'152'000;
constexpr util::Timestamp kUtcTimeEnd = 2'524'608'000;
constexpr util::Timestamp kFourDigitYearFirst = -62'167'219'200;
constexpr util::Timestamp kFourDigitYearEnd = 253'402'300'800;

// Tag, length, a year of up to 11 characters ("-2147483648"),
// MMDDHHMMSS and 'Z'.
constexpr std::size_t kMaxTimeTlv = 2 + 11 + 10 + 1;

// Writes printf("%0*d", width, value): zero-padded, the sign counting
// toward the width. Returns the end of the text.
std::uint8_t* PutDecimal(std::uint8_t* p, std::int64_t value, int width) {
  std::uint64_t magnitude = value < 0 ? 0 - static_cast<std::uint64_t>(value)
                                      : static_cast<std::uint64_t>(value);
  std::uint8_t digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<std::uint8_t>('0' + magnitude % 10);
    magnitude /= 10;
  } while (magnitude != 0);
  if (value < 0) {
    *p++ = '-';
    --width;
  }
  for (int i = n; i < width; ++i) *p++ = '0';
  while (n > 0) *p++ = digits[--n];
  return p;
}

// The one X.509 Time formatter: writes the whole UTCTime (YYMMDDHHMMSSZ)
// or GeneralizedTime (YYYYMMDDHHMMSSZ) TLV into `tlv` and returns its size.
std::size_t FormatTime(std::uint8_t* tlv, std::uint8_t tag,
                       const util::CivilTime& ct) {
  std::uint8_t* p = tlv + 2;
  p = tag == kTagUtcTime ? PutDecimal(p, ct.year % 100, 2)
                         : PutDecimal(p, ct.year, 4);
  for (int field : {ct.month, ct.day, ct.hour, ct.minute, ct.second}) {
    *p++ = static_cast<std::uint8_t>('0' + field / 10);
    *p++ = static_cast<std::uint8_t>('0' + field % 10);
  }
  *p++ = 'Z';
  const auto size = static_cast<std::size_t>(p - tlv);
  tlv[0] = tag;
  tlv[1] = static_cast<std::uint8_t>(size - 2);
  return size;
}

void AppendTimeAs(Bytes& out, std::uint8_t tag, const util::CivilTime& ct) {
  std::uint8_t tlv[kMaxTimeTlv];
  out.insert(out.end(), tlv, tlv + FormatTime(tlv, tag, ct));
}

}  // namespace

void AppendTime(Bytes& out, util::Timestamp ts) {
  const util::CivilTime ct = util::ToCivil(ts);
  AppendTimeAs(out,
               (ct.year >= 1950 && ct.year <= 2049) ? kTagUtcTime
                                                    : kTagGeneralizedTime,
               ct);
}

std::size_t TimeSize(util::Timestamp ts) {
  if (ts >= kUtcTimeFirst && ts < kUtcTimeEnd) return 15;
  if (ts >= kFourDigitYearFirst && ts < kFourDigitYearEnd) return 17;
  std::uint8_t tlv[kMaxTimeTlv];
  return FormatTime(tlv, kTagGeneralizedTime, util::ToCivil(ts));
}

Bytes EncodeTime(util::Timestamp ts) {
  Bytes out;
  AppendTime(out, ts);
  return out;
}

Bytes EncodeUtcTime(util::Timestamp ts) {
  Bytes out;
  AppendTimeAs(out, kTagUtcTime, util::ToCivil(ts));
  return out;
}

Bytes EncodeGeneralizedTime(util::Timestamp ts) {
  Bytes out;
  AppendTimeAs(out, kTagGeneralizedTime, util::ToCivil(ts));
  return out;
}

Bytes Concat(const std::vector<Bytes>& parts) {
  std::size_t total = 0;
  for (const Bytes& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& p : parts) Append(out, p);
  return out;
}

Bytes EncodeSequence(const std::vector<Bytes>& children) {
  return Tlv(kTagSequence, Concat(children));
}

Bytes EncodeSet(const std::vector<Bytes>& children) {
  return Tlv(kTagSet, Concat(children));
}

Bytes EncodeContextExplicit(unsigned n, BytesView child_tlv) {
  return Tlv(ContextTag(n, /*constructed=*/true), child_tlv);
}

Bytes EncodeContextPrimitive(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/false), content);
}

Bytes EncodeContextConstructed(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/true), content);
}

}  // namespace rev::asn1
