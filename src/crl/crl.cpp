#include "crl/crl.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/stats.h"
#include "x509/spki.h"

namespace rev::crl {

namespace {

// The crlEntryExtensions of an entry: a one-extension list carrying its
// CRLReason, or nothing for kNoReasonCode. Encoded once per reason code
// (every int8 value, so an out-of-range code encodes as it always did).
BytesView ReasonExtensions(x509::ReasonCode reason) {
  static const std::vector<Bytes> table = [] {
    std::vector<Bytes> encoded(256);
    for (int code = -128; code < 128; ++code) {
      const auto rc = static_cast<x509::ReasonCode>(code);
      if (rc == x509::ReasonCode::kNoReasonCode) continue;
      encoded[static_cast<std::uint8_t>(code)] =
          x509::EncodeExtensionList({x509::MakeCrlReason(rc)});
    }
    return encoded;
  }();
  return table[static_cast<std::uint8_t>(reason)];
}

// Content length of one revokedCertificates entry SEQUENCE.
std::size_t EntryContentSize(const CrlEntry& entry) {
  return asn1::IntegerUnsignedSize(entry.serial) +
         asn1::TimeSize(entry.revocation_date) +
         ReasonExtensions(entry.reason).size();
}

}  // namespace

// Two passes: sum every entry's length, reserve the whole TBS once, then
// write each entry straight into it.
Bytes EncodeTbsCrl(const TbsCrl& tbs, crypto::KeyType sig_type) {
  const Bytes version = asn1::EncodeInteger(1);  // v2
  const Bytes signature = x509::EncodeSignatureAlgorithm(sig_type);
  const Bytes issuer = tbs.issuer.Encode();
  const Bytes extensions =
      tbs.crl_number < 0
          ? Bytes{}
          : asn1::EncodeContextExplicit(
                0, x509::EncodeExtensionList(
                       {x509::MakeCrlNumber(tbs.crl_number)}));

  std::size_t entries_len = 0;
  for (const CrlEntry& e : tbs.entries) {
    const std::size_t n = EntryContentSize(e);
    entries_len += asn1::HeaderSize(n) + n;
  }
  const std::size_t len =
      version.size() + signature.size() + issuer.size() +
      asn1::TimeSize(tbs.this_update) +
      (tbs.next_update != 0 ? asn1::TimeSize(tbs.next_update) : 0) +
      (tbs.entries.empty() ? 0 : asn1::HeaderSize(entries_len) + entries_len) +
      extensions.size();

  Bytes out;
  out.reserve(asn1::HeaderSize(len) + len);
  asn1::AppendHeader(out, asn1::kTagSequence, len);
  Append(out, version);
  Append(out, signature);
  Append(out, issuer);
  asn1::AppendTime(out, tbs.this_update);
  if (tbs.next_update != 0) asn1::AppendTime(out, tbs.next_update);
  if (!tbs.entries.empty()) {
    asn1::AppendHeader(out, asn1::kTagSequence, entries_len);
    for (const CrlEntry& e : tbs.entries) {
      asn1::AppendHeader(out, asn1::kTagSequence, EntryContentSize(e));
      asn1::AppendIntegerUnsigned(out, e.serial);
      asn1::AppendTime(out, e.revocation_date);
      Append(out, ReasonExtensions(e.reason));
    }
  }
  Append(out, extensions);
  assert(out.size() == asn1::HeaderSize(len) + len);
  return out;
}

Crl SignCrl(TbsCrl tbs, const crypto::KeyPair& issuer_key) {
  Crl crl;
  crl.sig_type = issuer_key.type;
  crl.tbs_der = EncodeTbsCrl(tbs, issuer_key.type);
  crl.tbs = std::move(tbs);
  crl.signature = crypto::Sign(issuer_key, crl.tbs_der);
  const Bytes algorithm = x509::EncodeSignatureAlgorithm(issuer_key.type);
  const Bytes signature = asn1::EncodeBitString(crl.signature);
  const std::size_t len =
      crl.tbs_der.size() + algorithm.size() + signature.size();
  crl.der.reserve(asn1::HeaderSize(len) + len);
  asn1::AppendHeader(crl.der, asn1::kTagSequence, len);
  Append(crl.der, crl.tbs_der);
  Append(crl.der, algorithm);
  Append(crl.der, signature);
  return crl;
}

std::optional<Crl> ParseCrl(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader crl_seq;
  if (!top.ReadSequence(&crl_seq) || !top.Empty()) return std::nullopt;

  Crl crl;
  crl.der.assign(der.begin(), der.end());

  BytesView tbs_raw;
  {
    asn1::Reader probe = crl_seq;
    if (!probe.ReadRawTlv(&tbs_raw)) return std::nullopt;
    crl_seq = probe;
  }
  crl.tbs_der.assign(tbs_raw.begin(), tbs_raw.end());

  asn1::Reader tbs(tbs_raw);
  asn1::Reader tbs_seq;
  if (!tbs.ReadSequence(&tbs_seq)) return std::nullopt;

  std::int64_t version;
  if (!tbs_seq.ReadInteger(&version) || version != 1) return std::nullopt;

  auto inner_sig_type = x509::DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type) return std::nullopt;

  auto issuer = x509::Name::Decode(tbs_seq);
  if (!issuer) return std::nullopt;
  crl.tbs.issuer = *std::move(issuer);

  if (!tbs_seq.ReadTime(&crl.tbs.this_update)) return std::nullopt;

  // nextUpdate is OPTIONAL: present iff next TLV is a time type.
  if (tbs_seq.NextIs(asn1::kTagUtcTime) ||
      tbs_seq.NextIs(asn1::kTagGeneralizedTime)) {
    if (!tbs_seq.ReadTime(&crl.tbs.next_update)) return std::nullopt;
  }

  if (tbs_seq.NextIs(asn1::kTagSequence)) {
    asn1::Reader entries;
    if (!tbs_seq.ReadSequence(&entries)) return std::nullopt;
    while (!entries.Empty()) {
      asn1::Reader entry_seq;
      if (!entries.ReadSequence(&entry_seq)) return std::nullopt;
      CrlEntry entry;
      if (!entry_seq.ReadIntegerUnsigned(&entry.serial) ||
          !entry_seq.ReadTime(&entry.revocation_date))
        return std::nullopt;
      if (entry_seq.NextIs(asn1::kTagSequence)) {
        auto exts = x509::DecodeExtensionList(entry_seq);
        if (!exts) return std::nullopt;
        for (const x509::Extension& ext : *exts) {
          if (ext.oid == asn1::oids::CrlReason()) {
            auto reason = x509::ParseCrlReason(ext.value);
            if (!reason) return std::nullopt;
            entry.reason = *reason;
          }
        }
      }
      // Nothing may follow crlEntryExtensions: a parse that skipped it
      // would accept a CRL whose re-encoding differs from its bytes.
      if (!entry_seq.Empty()) return std::nullopt;
      crl.tbs.entries.push_back(std::move(entry));
    }
  }

  if (tbs_seq.NextIsContext(0)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(0, &ext_wrapper)) return std::nullopt;
    auto exts = x509::DecodeExtensionList(ext_wrapper);
    if (!exts) return std::nullopt;
    for (const x509::Extension& ext : *exts) {
      if (ext.oid == asn1::oids::CrlNumber()) {
        auto number = x509::ParseCrlNumber(ext.value);
        if (!number) return std::nullopt;
        crl.tbs.crl_number = *number;
      }
    }
  }
  // Likewise nothing after crlExtensions, the TBSCertList's last field.
  if (!tbs_seq.Empty()) return std::nullopt;

  auto outer_sig_type = x509::DecodeSignatureAlgorithm(crl_seq);
  if (!outer_sig_type || *outer_sig_type != *inner_sig_type)
    return std::nullopt;
  crl.sig_type = *outer_sig_type;

  BytesView sig_bits;
  unsigned unused = 0;
  if (!crl_seq.ReadBitString(&sig_bits, &unused) || unused != 0)
    return std::nullopt;
  crl.signature.assign(sig_bits.begin(), sig_bits.end());
  if (!crl_seq.Empty()) return std::nullopt;
  return crl;
}

bool VerifyCrlSignature(const Crl& crl, const crypto::PublicKey& issuer_key) {
  if (issuer_key.type != crl.sig_type) return false;
  return crypto::Verify(issuer_key, crl.tbs_der, crl.signature);
}

CrlIndex::CrlIndex(const Crl& crl) : entries_(crl.tbs.entries) {
  std::sort(entries_.begin(), entries_.end(),
            [](const CrlEntry& a, const CrlEntry& b) {
              return a.serial < b.serial;
            });
}

const CrlEntry* CrlIndex::Lookup(const x509::Serial& serial) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), serial,
                             [](const CrlEntry& e, const x509::Serial& s) {
                               return e.serial < s;
                             });
  if (it == entries_.end() || it->serial != serial) return nullptr;
  return &*it;
}

std::string DescribeCrl(const Crl& crl, std::size_t max_entries) {
  std::ostringstream out;
  out << "CRL:\n";
  out << "  issuer      : " << crl.tbs.issuer.ToString() << "\n";
  out << "  this update : " << util::FormatDateTime(crl.tbs.this_update) << "\n";
  if (crl.tbs.next_update != 0)
    out << "  next update : " << util::FormatDateTime(crl.tbs.next_update)
        << "\n";
  if (crl.tbs.crl_number >= 0)
    out << "  CRL number  : " << crl.tbs.crl_number << "\n";
  out << "  entries     : " << crl.tbs.entries.size() << "\n";
  out << "  size        : "
      << util::HumanBytes(static_cast<double>(crl.SizeBytes())) << "\n";
  std::size_t shown = 0;
  for (const CrlEntry& entry : crl.tbs.entries) {
    if (shown++ >= max_entries) {
      out << "    ... " << (crl.tbs.entries.size() - max_entries) << " more\n";
      break;
    }
    out << "    " << x509::SerialToString(entry.serial) << "  revoked "
        << util::FormatDate(entry.revocation_date) << "  "
        << x509::ReasonCodeName(entry.reason) << "\n";
  }
  return out.str();
}

}  // namespace rev::crl
