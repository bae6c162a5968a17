// Certificate Revocation Lists (RFC 5280 §5): construction, DER
// encode/decode, signature verification, and an indexed lookup view.
//
// CRL byte sizes in this library are *measured from real DER encodings*,
// which is what makes the Fig. 5 / Fig. 6 size reproductions meaningful.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/certificate.h"
#include "x509/extensions.h"
#include "x509/name.h"

namespace rev::crl {

struct CrlEntry {
  x509::Serial serial;
  util::Timestamp revocation_date = 0;
  // kNoReasonCode encodes "no crlEntryExtensions at all" — the common case
  // the paper observes (§4.2: the vast majority of revocations carry no
  // reason code).
  x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
};

// The to-be-signed fields of a CRL.
struct TbsCrl {
  x509::Name issuer;
  util::Timestamp this_update = 0;
  util::Timestamp next_update = 0;  // 0 = omit
  std::vector<CrlEntry> entries;
  std::int64_t crl_number = -1;  // -1 = omit
};

class Crl {
 public:
  TbsCrl tbs;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  Bytes tbs_der;
  Bytes signature;
  Bytes der;

  std::size_t SizeBytes() const { return der.size(); }

  // True once `t` passes nextUpdate (clients must re-fetch; §2.2).
  bool IsExpired(util::Timestamp t) const {
    return tbs.next_update != 0 && t > tbs.next_update;
  }
};

// DER of the TBSCertList that SignCrl signs.
Bytes EncodeTbsCrl(const TbsCrl& tbs, crypto::KeyType sig_type);

// Encodes and signs `tbs`, which the returned Crl takes over (pass an
// rvalue to avoid copying the entries).
Crl SignCrl(TbsCrl tbs, const crypto::KeyPair& issuer_key);
std::optional<Crl> ParseCrl(BytesView der);
bool VerifyCrlSignature(const Crl& crl, const crypto::PublicKey& issuer_key);

// Sorted lookup index over a CRL's entries (CRLs can hold millions of
// serials; linear scans are unacceptable in the crawler hot path).
class CrlIndex {
 public:
  CrlIndex() = default;
  explicit CrlIndex(const Crl& crl);

  // Returns the matching entry, or nullptr.
  const CrlEntry* Lookup(const x509::Serial& serial) const;
  bool IsRevoked(const x509::Serial& serial) const {
    return Lookup(serial) != nullptr;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<CrlEntry> entries_;  // sorted by serial
};

// Human-readable rendering: header plus the first `max_entries` entries.
std::string DescribeCrl(const Crl& crl, std::size_t max_entries = 10);

}  // namespace rev::crl
