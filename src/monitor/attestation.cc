// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/attestation.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "src/crypto/encode.h"

namespace tyche {

namespace {

constexpr uint64_t kReportMagic = 0x5459434841545431ULL;    // "TYCHATT1"
constexpr uint64_t kIdentityMagic = 0x545943484d4f4e31ULL;  // "TYCHMON1"

// Wire sizes: the report's fixed fields (magic, domain, nonce, sealed,
// measurement, claim count, report digest, s, e, r) and one claim's six
// u64s; the identity's fixed fields and one PCR value.
constexpr size_t kReportFixedBytes = 4 * 8 + 32 + 8 + 32 + 8 + 32 + 8;
constexpr size_t kClaimWireBytes = 6 * 8;
constexpr size_t kIdentityFixedBytes = 3 * 8 + 2 * 32 + 3 * 8 + 32 + 8 + 32;

class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  Result<uint64_t> U64() {
    if (pos_ + 8 > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated wire data");
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  Result<Digest> ReadDigest() {
    if (pos_ + 32 > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated digest");
    }
    Digest digest;
    std::copy(bytes_.begin() + static_cast<long>(pos_),
              bytes_.begin() + static_cast<long>(pos_) + 32, digest.bytes.begin());
    pos_ += 32;
    return digest;
  }

  // Bytes after the last field: no digest or signature covers them.
  Status ExpectEnd() const {
    if (pos_ != bytes_.size()) {
      return Error(ErrorCode::kInvalidArgument, "trailing bytes after the last field");
    }
    return OkStatus();
  }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<uint8_t> SerializeAttestation(const DomainAttestation& report) {
  std::vector<uint8_t> out(kReportFixedBytes + report.resources.size() * kClaimWireBytes);
  uint8_t* at = Put(out.data(), kReportMagic);
  at = Put(Put(Put(at, uint64_t{report.domain}), report.nonce), uint64_t{report.sealed});
  at = Put(PutDigest(at, report.measurement), uint64_t{report.resources.size()});
  for (const ResourceClaim& claim : report.resources) {
    at = Put(Put(at, static_cast<uint64_t>(claim.kind)), claim.range.base);
    at = Put(Put(at, claim.range.size), claim.unit);
    at = Put(Put(at, uint64_t{claim.perms.mask}), uint64_t{claim.ref_count});
  }
  at = Put(PutDigest(at, report.report_digest), report.signature.s);
  Put(PutDigest(at, report.signature.e), report.signature.r);
  return out;
}

Result<DomainAttestation> DeserializeAttestation(std::span<const uint8_t> bytes) {
  WireReader reader(bytes);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t magic, reader.U64());
  if (magic != kReportMagic) {
    return Error(ErrorCode::kInvalidArgument, "not an attestation report");
  }
  DomainAttestation report;
  TYCHE_ASSIGN_OR_RETURN(const uint64_t domain, reader.U64());
  report.domain = static_cast<uint32_t>(domain);
  TYCHE_ASSIGN_OR_RETURN(report.nonce, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t sealed, reader.U64());
  report.sealed = sealed != 0;
  TYCHE_ASSIGN_OR_RETURN(report.measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > 1u << 20) {
    return Error(ErrorCode::kInvalidArgument, "implausible resource count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    ResourceClaim claim;
    TYCHE_ASSIGN_OR_RETURN(const uint64_t kind, reader.U64());
    if (kind > static_cast<uint64_t>(ResourceKind::kDomain)) {
      return Error(ErrorCode::kInvalidArgument, "bad resource kind");
    }
    claim.kind = static_cast<ResourceKind>(kind);
    TYCHE_ASSIGN_OR_RETURN(claim.range.base, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(claim.range.size, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(claim.unit, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(const uint64_t perms, reader.U64());
    claim.perms = Perms(static_cast<uint8_t>(perms));
    TYCHE_ASSIGN_OR_RETURN(const uint64_t ref_count, reader.U64());
    claim.ref_count = static_cast<uint32_t>(ref_count);
    report.resources.push_back(claim);
  }
  TYCHE_ASSIGN_OR_RETURN(report.report_digest, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(report.signature.s, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(report.signature.e, reader.ReadDigest());
  // Commitment for batch verification, appended to the report wire format.
  TYCHE_ASSIGN_OR_RETURN(report.signature.r, reader.U64());
  TYCHE_RETURN_IF_ERROR(reader.ExpectEnd());
  return report;
}

std::vector<uint8_t> SerializeMonitorIdentity(const MonitorIdentity& identity) {
  const TpmQuote& quote = identity.boot_quote;
  std::vector<uint8_t> out(kIdentityFixedBytes + quote.pcr_values.size() * 32);
  uint8_t* at = Put(Put(Put(out.data(), kIdentityMagic), identity.tpm_key.y),
                    identity.monitor_key.y);
  at = PutDigest(PutDigest(at, identity.firmware_measurement), identity.monitor_measurement);
  at = Put(Put(Put(at, quote.nonce), uint64_t{quote.pcr_mask}),
           uint64_t{quote.pcr_values.size()});
  for (const Digest& value : quote.pcr_values) {
    at = PutDigest(at, value);
  }
  at = Put(PutDigest(at, quote.quote_digest), quote.signature.s);
  PutDigest(at, quote.signature.e);
  return out;
}

Result<MonitorIdentity> DeserializeMonitorIdentity(std::span<const uint8_t> bytes) {
  WireReader reader(bytes);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t magic, reader.U64());
  if (magic != kIdentityMagic) {
    return Error(ErrorCode::kInvalidArgument, "not a monitor identity");
  }
  MonitorIdentity identity;
  TYCHE_ASSIGN_OR_RETURN(identity.tpm_key.y, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.monitor_key.y, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.firmware_measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.monitor_measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.nonce, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t mask, reader.U64());
  identity.boot_quote.pcr_mask = static_cast<uint32_t>(mask);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > Tpm::kNumPcrs) {
    return Error(ErrorCode::kInvalidArgument, "implausible PCR count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    TYCHE_ASSIGN_OR_RETURN(const Digest value, reader.ReadDigest());
    identity.boot_quote.pcr_values.push_back(value);
  }
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.quote_digest, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.signature.s, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.signature.e, reader.ReadDigest());
  TYCHE_RETURN_IF_ERROR(reader.ExpectEnd());
  return identity;
}

Digest DomainAttestation::ComputeDigest() const {
  // One contiguous encoding of the digested fields, hashed once: a tag, the
  // header, then each claim's kind, base, size, unit, perms and ref count.
  constexpr std::string_view kTag = "tyche-domain-attestation-v1";
  constexpr size_t kHeaderBytes = kTag.size() + 4 + 8 + 1 + 32 + 8;
  constexpr size_t kClaimBytes = 1 + 8 + 8 + 8 + 1 + 4;
  constexpr size_t kInlineClaims = 32;
  uint8_t inline_buf[kHeaderBytes + kInlineClaims * kClaimBytes];
  std::vector<uint8_t> heap_buf;
  uint8_t* buf = inline_buf;
  const size_t size = kHeaderBytes + resources.size() * kClaimBytes;
  if (resources.size() > kInlineClaims) {
    heap_buf.resize(size);
    buf = heap_buf.data();
  }
  uint8_t* at = std::copy(kTag.begin(), kTag.end(), buf);
  at = Put(Put(Put(at, domain), nonce), static_cast<uint8_t>(sealed ? 1 : 0));
  at = Put(PutDigest(at, measurement), uint64_t{resources.size()});
  for (const ResourceClaim& claim : resources) {
    at = Put(Put(at, static_cast<uint8_t>(claim.kind)), claim.range.base);
    at = Put(Put(Put(at, claim.range.size), claim.unit), claim.perms.mask);
    at = Put(at, claim.ref_count);
  }
  return Sha256::Hash(std::span<const uint8_t>(buf, size));
}

Digest HashPublicKey(const SchnorrPublicKey& key) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-pubkey-v1"));
  ctx.UpdateValue(key.y);
  return ctx.Finalize();
}

}  // namespace tyche
