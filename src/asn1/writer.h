// DER encoding (the strict, canonical subset of BER used by X.509).
//
// Each Encode* function returns a complete TLV as a byte vector; composite
// values are built by concatenating child encodings into a SEQUENCE/SET
// wrapper. Hot encoders (a CRL's revokedCertificates) use the Append*
// primitives instead: each has a *Size twin returning exactly the bytes it
// appends, so a caller sums the sizes, reserves once and writes in place.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "asn1/oid.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::asn1 {

// Universal tag numbers (with constructed bit where applicable).
inline constexpr std::uint8_t kTagBoolean = 0x01;
inline constexpr std::uint8_t kTagInteger = 0x02;
inline constexpr std::uint8_t kTagBitString = 0x03;
inline constexpr std::uint8_t kTagOctetString = 0x04;
inline constexpr std::uint8_t kTagNull = 0x05;
inline constexpr std::uint8_t kTagOid = 0x06;
inline constexpr std::uint8_t kTagEnumerated = 0x0A;
inline constexpr std::uint8_t kTagUtf8String = 0x0C;
inline constexpr std::uint8_t kTagPrintableString = 0x13;
inline constexpr std::uint8_t kTagIa5String = 0x16;
inline constexpr std::uint8_t kTagUtcTime = 0x17;
inline constexpr std::uint8_t kTagGeneralizedTime = 0x18;
inline constexpr std::uint8_t kTagSequence = 0x30;
inline constexpr std::uint8_t kTagSet = 0x31;

// Context-specific tag helpers.
// Primitive/implicit: [n] content. Constructed/explicit: [n] { inner-TLV }.
std::uint8_t ContextTag(unsigned n, bool constructed);

// Core TLV assembly: tag byte + DER definite length + content.
Bytes Tlv(std::uint8_t tag, BytesView content);

// Appends a TLV header: tag byte + DER definite length of `content_len`.
void AppendHeader(Bytes& out, std::uint8_t tag, std::size_t content_len);
// Number of bytes AppendHeader() writes (Tlv() minus its content).
std::size_t HeaderSize(std::size_t content_len);

// Appends EncodeTime(ts) / EncodeIntegerUnsigned(magnitude_be).
void AppendTime(Bytes& out, util::Timestamp ts);
std::size_t TimeSize(util::Timestamp ts);
void AppendIntegerUnsigned(Bytes& out, BytesView magnitude_be);
std::size_t IntegerUnsignedSize(BytesView magnitude_be);

Bytes EncodeBoolean(bool value);
Bytes EncodeInteger(std::int64_t value);
// Unsigned magnitude (big-endian) as INTEGER; prepends 0x00 when the top bit
// is set, encodes zero as a single 0x00. Used for serials and RSA values.
Bytes EncodeIntegerUnsigned(BytesView magnitude_be);
Bytes EncodeEnumerated(std::int64_t value);
Bytes EncodeNull();
Bytes EncodeOid(const Oid& oid);
Bytes EncodeOctetString(BytesView content);
Bytes EncodeBitString(BytesView content, unsigned unused_bits = 0);
Bytes EncodeUtf8String(std::string_view s);
Bytes EncodePrintableString(std::string_view s);
Bytes EncodeIa5String(std::string_view s);

// X.509 Time: UTCTime for years in [1950, 2049], GeneralizedTime otherwise.
Bytes EncodeTime(util::Timestamp ts);
Bytes EncodeUtcTime(util::Timestamp ts);
Bytes EncodeGeneralizedTime(util::Timestamp ts);

// SEQUENCE/SET from already-encoded children, concatenated in order.
Bytes EncodeSequence(const std::vector<Bytes>& children);
Bytes EncodeSet(const std::vector<Bytes>& children);

// Explicitly tagged: [n] { child }. Constructed.
Bytes EncodeContextExplicit(unsigned n, BytesView child_tlv);
// Implicitly tagged primitive: [n] with raw content octets.
Bytes EncodeContextPrimitive(unsigned n, BytesView content);
// Implicitly tagged constructed: [n] with concatenated child TLVs as content.
Bytes EncodeContextConstructed(unsigned n, BytesView content);

// Concatenates TLVs (content of a SEQUENCE under construction).
Bytes Concat(const std::vector<Bytes>& parts);

}  // namespace rev::asn1
