// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/migration.h"

#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "src/monitor/audit.h"
#include "src/support/fault_hook.h"
#include "src/support/log.h"
#include "src/support/snapshot.h"

namespace tyche {
namespace {

// Payload container tags (outer) and state-image tags (inner). The state
// image is its own TYSN container so the payload digest -- what both handoff
// records bind -- covers exactly the state being adopted, independent of the
// journal and signature riding alongside.
constexpr uint32_t kPayloadState = 1;
constexpr uint32_t kPayloadJournal = 2;
constexpr uint32_t kPayloadMeta = 3;
constexpr uint32_t kStateDomain = 1;
constexpr uint32_t kStateCaps = 2;
constexpr uint32_t kStatePages = 3;

// One serialized capability of the migrating domain.
struct PayloadCap {
  ResourceKind kind = ResourceKind::kMemory;
  AddrRange range;
  uint64_t unit = 0;
  Perms perms;
  CapRights rights;
  RevocationPolicy policy;
};

// The destination OS's (domain 0's) capability a payload cap is granted
// from: the first memory cap covering its range, or the newest cap on its
// unit. kInvalidCap when it holds none.
CapId CoveringCap(const CapabilityEngine& engine, const PayloadCap& cap) {
  if (cap.kind != ResourceKind::kMemory) {
    return engine.FindUnit(/*domain=*/0, cap.kind, cap.unit);
  }
  for (const Capability* own : engine.DomainCaps(0)) {
    if (own->kind == ResourceKind::kMemory && own->range.base <= cap.range.base &&
        !own->range.Wraps() && cap.range.end() <= own->range.end()) {
      return own->id;
    }
  }
  return kInvalidCap;
}

struct PayloadImage {
  uint32_t source_domain = 0;
  std::string name;
  uint64_t entry_point = 0;
  bool entry_point_set = false;
  Digest measurement;
  bool scrub_on_exit = false;
  std::vector<PayloadCap> caps;
  std::vector<std::pair<uint64_t, std::string>> pages;  // base -> content
};

// The statement the source signs: its measured identity vouches that THIS
// state image describes THIS domain. Domain-bound so a payload cannot be
// replayed as a different domain's state.
Digest BindingDigest(const Digest& payload_digest, uint32_t domain) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-migration-v1"));
  ctx.Update(std::span<const uint8_t>(payload_digest.bytes));
  ctx.UpdateValue(domain);
  return ctx.Finalize();
}

}  // namespace

// Friend of Monitor: the staged-commit protocol needs the same private
// access Recover() has (engine swap, domain table, journal builders).
class MigrationInternal {
 public:
  // Everything the destination stages before anything live changes. The
  // journal records are NOT appended here -- they land at commit, after the
  // source's kMigrateOut, so an aborted migration leaves no trace of an
  // adoption that never happened.
  struct StagedAdoption {
    DomainId new_id = kInvalidDomain;
    CapabilityEngine engine;  // dest pre-state + adoption mutations
    TrustDomain adopted;
    CapId handle_cap = kInvalidCap;
    // The grants from the destination OS (domain 0), in payload order.
    std::vector<std::pair<Delegation, DelegationOutcome>> grants;
    std::vector<std::pair<uint64_t, std::string>> pages;
  };

  static Result<MigrationReport> Run(Monitor* source, Monitor* dest, DomainId domain,
                                     const MigrationCarrier& carrier,
                                     const SchnorrPublicKey& source_key);

  static void FreezeForTest(Monitor* monitor, DomainId domain) {
    monitor->frozen_.insert(domain);
  }
  static void UnfreezeForTest(Monitor* monitor, DomainId domain) {
    monitor->frozen_.erase(domain);
  }

 private:
  static Status Freeze(Monitor* source, Monitor* dest, DomainId domain);
  static Result<MigrationReport> RunFrozen(Monitor* source, Monitor* dest,
                                           DomainId domain, const MigrationCarrier& carrier,
                                           const SchnorrPublicKey& source_key);
  static void RollbackSource(Monitor* source, DomainId domain, const Status& cause);

  static Result<std::vector<uint8_t>> BuildPayload(Monitor* source, DomainId domain,
                                                   Digest* payload_digest,
                                                   uint64_t* head_prefix);
  static Result<StagedAdoption> StageOnDest(Monitor* dest, std::span<const uint8_t> payload,
                                            const Digest& captured_digest,
                                            const SchnorrPublicKey& source_key);
  static Result<PayloadImage> ParseStateImage(std::span<const uint8_t> bytes);
  static Status CrossCheckAgainstJournal(const PayloadImage& image,
                                         const ParsedJournal& journal);
  static Status PrepareCommit(Monitor* dest, const StagedAdoption& staged);
  static void RollbackDest(Monitor* dest, const StagedAdoption& staged,
                           const EngineImage& pre_engine, DomainId pre_next_domain,
                           uint16_t pre_next_asid);
};

Status MigrationInternal::Freeze(Monitor* source, Monitor* dest, DomainId domain) {
  if (source == dest) {
    return Error(ErrorCode::kInvalidArgument, "source and destination are the same monitor");
  }
  if (source->concurrent_dispatch() || dest->concurrent_dispatch()) {
    // The protocol reads and mutates monitor state without the dispatch
    // locks; the mirror check lives in EnableConcurrentDispatch().
    return Error(ErrorCode::kFailedPrecondition,
                 "migration requires serial dispatch on both monitors");
  }
  if (source->migration_in_progress() || dest->migration_in_progress()) {
    return Error(ErrorCode::kFailedPrecondition, "another migration is in flight");
  }
  TYCHE_FAULT_POINT(faults::kMigrateFreeze);
  const auto it = source->domains_.find(domain);
  if (it == source->domains_.end() || !it->second.alive()) {
    return Error(ErrorCode::kDomainDead, "migration source domain not alive");
  }
  const TrustDomain& dom = it->second;
  if (dom.creator == kInvalidDomain) {
    return Error(ErrorCode::kFailedPrecondition, "the initial domain cannot migrate");
  }
  if (!dom.sealed()) {
    // The rolling measurement context is not serializable (and an unsealed
    // domain has no attested identity to preserve anyway).
    return Error(ErrorCode::kFailedPrecondition, "only sealed domains migrate");
  }
  TYCHE_RETURN_IF_ERROR(source->CheckNotScheduled(domain));
  for (const auto& [id, other] : source->domains_) {
    if (other.alive() && other.creator == domain) {
      return Error(ErrorCode::kFailedPrecondition, "domain has live children");
    }
  }
  // Exclusive ownership of every resource: migration moves state, and a
  // resource another domain can still see cannot move machines.
  for (const Capability* cap : source->engine_.DomainCaps(domain)) {
    switch (cap->kind) {
      case ResourceKind::kMemory:
        if (!source->engine_.ExclusivelyOwned(domain, cap->range)) {
          return Error(ErrorCode::kFailedPrecondition, "memory is shared, not exclusive");
        }
        break;
      case ResourceKind::kDomain:
        return Error(ErrorCode::kFailedPrecondition, "domain handles do not migrate");
      default:
        if (source->engine_.UnitRefCount(cap->kind, cap->unit) != 1) {
          return Error(ErrorCode::kFailedPrecondition, "unit resource is shared");
        }
        break;
    }
  }
  source->frozen_.insert(domain);
  return OkStatus();
}

void MigrationInternal::RollbackSource(Monitor* source, DomainId domain,
                                       const Status& cause) {
  source->frozen_.erase(domain);
  // Journal the abort so the history shows the freeze window; no handoff
  // record was appended, so replay sees nothing to compensate.
  const uint64_t span = source->next_span_.fetch_add(1, std::memory_order_relaxed);
  source->audit_.Abort(span, static_cast<uint16_t>(ApiOp::kOpCount), domain, cause.code());
  TYCHE_LOG(kWarn) << "migration of domain " << domain
                   << " rolled back to source: " << cause.ToString();
}

Result<std::vector<uint8_t>> MigrationInternal::BuildPayload(Monitor* source,
                                                             DomainId domain,
                                                             Digest* payload_digest,
                                                             uint64_t* head_prefix) {
  TYCHE_FAULT_POINT(faults::kMigrateCapture);
  const TrustDomain& dom = source->domains_.at(domain);

  SectionWriter dw;
  dw.Append<uint32_t>(domain);
  dw.AppendString(dom.name);
  dw.Append<uint64_t>(dom.entry_point);
  dw.Append<uint8_t>(dom.entry_point_set ? 1 : 0);
  dw.AppendDigest(dom.measurement);
  dw.Append<uint8_t>(dom.scrub_on_exit ? 1 : 0);

  const std::vector<const Capability*> caps = source->engine_.DomainCaps(domain);
  SectionWriter cw;
  cw.Append<uint32_t>(static_cast<uint32_t>(caps.size()));
  for (const Capability* cap : caps) {
    cw.Append<uint8_t>(static_cast<uint8_t>(cap->kind));
    cw.Append<uint64_t>(cap->range.base);
    cw.Append<uint64_t>(cap->range.size);
    cw.Append<uint64_t>(cap->unit);
    cw.Append<uint8_t>(cap->perms.mask);
    cw.Append<uint8_t>(cap->rights.mask);
    cw.Append<uint8_t>(cap->revocation.mask);
  }

  SectionWriter pw;
  uint32_t regions = 0;
  for (const Capability* cap : caps) {
    if (cap->kind == ResourceKind::kMemory) {
      ++regions;
    }
  }
  pw.Append<uint32_t>(regions);
  for (const Capability* cap : caps) {
    if (cap->kind != ResourceKind::kMemory) {
      continue;
    }
    std::string content(cap->range.size, '\0');
    TYCHE_RETURN_IF_ERROR(source->machine_->memory().Read(
        cap->range.base,
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(content.data()), content.size())));
    pw.Append<uint64_t>(cap->range.base);
    pw.AppendString(content);
  }

  SnapshotWriter state;
  state.AddSection(kStateDomain, dw.Take());
  state.AddSection(kStateCaps, cw.Take());
  state.AddSection(kStatePages, pw.Take());
  std::vector<uint8_t> state_bytes = state.Finish();
  *payload_digest = SnapshotDigest(state_bytes);

  // Checkpoint + export: the shipped provenance journal always has a signed
  // covered tail, so the destination verifies it under the strict rule.
  std::vector<uint8_t> journal_bytes = source->audit_.Export();
  *head_prefix = source->audit_.journal().head().Prefix64();

  const SchnorrSignature sig =
      SchnorrSign(source->key_, BindingDigest(*payload_digest, domain));
  SectionWriter mw;
  mw.Append<uint32_t>(domain);
  mw.Append<uint64_t>(*head_prefix);
  mw.Append<uint64_t>(sig.s);
  mw.AppendDigest(sig.e);

  SnapshotWriter payload;
  payload.AddSection(kPayloadState, std::move(state_bytes));
  payload.AddSection(kPayloadJournal, std::move(journal_bytes));
  payload.AddSection(kPayloadMeta, mw.Take());
  return payload.Finish();
}

Result<PayloadImage> MigrationInternal::ParseStateImage(std::span<const uint8_t> bytes) {
  TYCHE_ASSIGN_OR_RETURN(const SnapshotView view, SnapshotView::Parse(bytes));
  PayloadImage image;

  TYCHE_ASSIGN_OR_RETURN(const auto domain_bytes, view.Section(kStateDomain));
  SectionReader dr(domain_bytes);
  uint8_t entry_set = 0;
  uint8_t scrub = 0;
  if (!dr.Read(&image.source_domain) || !dr.ReadString(&image.name) ||
      !dr.Read(&image.entry_point) || !dr.Read(&entry_set) ||
      !dr.ReadDigest(&image.measurement) || !dr.Read(&scrub) || dr.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad domain section");
  }
  image.entry_point_set = entry_set != 0;
  image.scrub_on_exit = scrub != 0;

  TYCHE_ASSIGN_OR_RETURN(const auto caps_bytes, view.Section(kStateCaps));
  SectionReader cr(caps_bytes);
  uint32_t cap_count = 0;
  if (!cr.Read(&cap_count)) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad caps section");
  }
  for (uint32_t i = 0; i < cap_count; ++i) {
    PayloadCap cap;
    uint8_t kind = 0;
    uint8_t perms = 0;
    uint8_t rights = 0;
    uint8_t policy = 0;
    if (!cr.Read(&kind) || !cr.Read(&cap.range.base) || !cr.Read(&cap.range.size) ||
        !cr.Read(&cap.unit) || !cr.Read(&perms) || !cr.Read(&rights) ||
        !cr.Read(&policy)) {
      return Error(ErrorCode::kInvalidArgument, "migration payload: truncated cap");
    }
    cap.kind = static_cast<ResourceKind>(kind);
    cap.perms = Perms(perms);
    cap.rights = CapRights(rights);
    cap.policy = RevocationPolicy(policy);
    image.caps.push_back(cap);
  }

  TYCHE_ASSIGN_OR_RETURN(const auto pages_bytes, view.Section(kStatePages));
  SectionReader pr(pages_bytes);
  uint32_t region_count = 0;
  if (!pr.Read(&region_count)) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad pages section");
  }
  for (uint32_t i = 0; i < region_count; ++i) {
    uint64_t base = 0;
    std::string content;
    if (!pr.Read(&base) || !pr.ReadString(&content)) {
      return Error(ErrorCode::kInvalidArgument, "migration payload: truncated region");
    }
    image.pages.emplace_back(base, std::move(content));
  }
  return image;
}

Status MigrationInternal::CrossCheckAgainstJournal(const PayloadImage& image,
                                                   const ParsedJournal& journal) {
  // Only a full-history journal can be shadow-replayed without a snapshot; a
  // source that compacted its journal still ships a chain-verified,
  // signature-bound provenance, just without this extra replay check.
  if (journal.records.empty() || journal.records.front().seq != 0) {
    return OkStatus();
  }
  CapabilityEngine shadow;
  TYCHE_RETURN_IF_ERROR(ReplayJournalInto(&shadow, journal.records).status());

  // The journaled attested identity must be the one the payload claims.
  Digest sealed_measurement;
  bool sealed_seen = false;
  for (const JournalRecord& record : journal.records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kSealDomain) &&
        record.domain == image.source_domain) {
      sealed_measurement = PackedSealDigest(record);
      sealed_seen = true;
    }
  }
  if (!sealed_seen || sealed_measurement != image.measurement) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "payload measurement does not match the journaled seal");
  }

  // The replayed capability slice must be the one the payload carries.
  auto key = [](ResourceKind kind, AddrRange range, uint64_t unit, uint8_t perms) {
    return std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>(
        static_cast<uint8_t>(kind), range.base, range.size, unit, perms);
  };
  std::multiset<std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>> expect;
  for (const PayloadCap& cap : image.caps) {
    expect.insert(key(cap.kind, cap.range, cap.unit, cap.perms.mask));
  }
  std::multiset<std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>> replayed;
  for (const Capability* cap : shadow.DomainCaps(image.source_domain)) {
    replayed.insert(key(cap->kind, cap->range, cap->unit, cap->perms.mask));
  }
  if (expect != replayed) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "payload capability set does not match the journal replay");
  }
  return OkStatus();
}

Result<MigrationInternal::StagedAdoption> MigrationInternal::StageOnDest(
    Monitor* dest, std::span<const uint8_t> payload, const Digest& captured_digest,
    const SchnorrPublicKey& source_key) {
  TYCHE_FAULT_POINT(faults::kMigrateRestore);
  TYCHE_ASSIGN_OR_RETURN(const SnapshotView view, SnapshotView::Parse(payload));
  TYCHE_ASSIGN_OR_RETURN(const auto state_bytes, view.Section(kPayloadState));
  TYCHE_ASSIGN_OR_RETURN(const auto journal_bytes, view.Section(kPayloadJournal));
  TYCHE_ASSIGN_OR_RETURN(const auto meta_bytes, view.Section(kPayloadMeta));

  SectionReader mr(meta_bytes);
  uint32_t source_domain = 0;
  uint64_t head_prefix = 0;
  SchnorrSignature sig;
  if (!mr.Read(&source_domain) || !mr.Read(&head_prefix) || !mr.Read(&sig.s) ||
      !mr.ReadDigest(&sig.e) || mr.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad meta section");
  }

  // Only THIS capture may be adopted: an earlier or another domain's payload
  // is validly signed too. The state image names the domain, so this pins it.
  const Digest payload_digest = SnapshotDigest(state_bytes);
  if (payload_digest != captured_digest) {
    return Error(ErrorCode::kSignatureInvalid, "migration payload: not the captured state");
  }
  if (!SchnorrVerify(source_key, BindingDigest(payload_digest, source_domain), sig)) {
    return Error(ErrorCode::kSignatureInvalid,
                 "migration payload not signed by the source monitor");
  }

  // The provenance journal: chain-verified under the source's measured key,
  // strict covered-tail rule (the source checkpointed before export).
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal journal, Journal::Deserialize(journal_bytes));
  TYCHE_RETURN_IF_ERROR(Journal::VerifyChain(journal.records, journal.checkpoints,
                                             source_key, /*require_covered_tail=*/true));

  TYCHE_ASSIGN_OR_RETURN(const PayloadImage image, ParseStateImage(state_bytes));
  if (image.source_domain != source_domain) {
    return Error(ErrorCode::kSignatureInvalid,
                 "migration payload: state and signature disagree on the domain");
  }
  TYCHE_RETURN_IF_ERROR(CrossCheckAgainstJournal(image, journal));

  // Stage the adoption on a COPY of the destination engine. The record
  // family for these mutations is journaled at commit; the ids it will carry
  // are exactly the ones minted here, because the staged copy starts from
  // the live id allocator and nothing else mutates the destination while a
  // serial-mode migration is in flight.
  StagedAdoption staged;
  staged.new_id = dest->next_domain_;
  TYCHE_RETURN_IF_ERROR(staged.engine.Restore(dest->engine_.Capture()));

  staged.engine.RegisterDomain(staged.new_id, /*creator=*/0);
  TYCHE_ASSIGN_OR_RETURN(staged.handle_cap,
                         staged.engine.MintUnit(/*owner=*/0, ResourceKind::kDomain,
                                                staged.new_id, CapRights(CapRights::kAll)));
  for (const PayloadCap& cap : image.caps) {
    // Re-searched per cap: earlier grants donate the covering cap and mint
    // remainders.
    const CapId covering = CoveringCap(staged.engine, cap);
    const bool memory = cap.kind == ResourceKind::kMemory;
    if (covering == kInvalidCap) {
      return Error(ErrorCode::kFailedPrecondition,
                   memory ? "destination lacks a covering memory capability"
                          : "destination lacks the unit resource (core or device)");
    }
    const Delegation request{.grant = true,
                             .src = covering,
                             .sub = memory ? std::optional(cap.range) : std::nullopt,
                             .perms = cap.perms,
                             .rights = cap.rights,
                             .policy = cap.policy};
    TYCHE_ASSIGN_OR_RETURN(DelegationOutcome outcome,
                           staged.engine.Delegate(/*requester=*/0, staged.new_id, request));
    staged.grants.emplace_back(request, std::move(outcome));
  }
  staged.engine.SealDomain(staged.new_id);

  staged.adopted.id = staged.new_id;
  staged.adopted.creator = 0;
  staged.adopted.state = DomainState::kSealed;
  staged.adopted.name = image.name;
  staged.adopted.entry_point = image.entry_point;
  staged.adopted.entry_point_set = image.entry_point_set;
  staged.adopted.measurement = image.measurement;  // attestation continuity
  staged.adopted.scrub_on_exit = image.scrub_on_exit;
  staged.pages = std::move(image.pages);
  return staged;
}

// Writes the adopted pages, rebuilds destination hardware and reaches the
// commit point. Any failure here leaves the caller to roll the destination
// back.
Status MigrationInternal::PrepareCommit(Monitor* dest, const StagedAdoption& staged) {
  for (const auto& [base, content] : staged.pages) {
    TYCHE_RETURN_IF_ERROR(dest->machine_->memory().Write(
        base, std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(content.data()), content.size())));
  }
  TYCHE_FAULT_POINT(faults::kMigrateResync);
  TYCHE_RETURN_IF_ERROR(dest->ResyncAll());
  TYCHE_FAULT_POINT(faults::kMigrateCommit);
  return OkStatus();
}

void MigrationInternal::RollbackDest(Monitor* dest, const StagedAdoption& staged,
                                     const EngineImage& pre_engine,
                                     DomainId pre_next_domain, uint16_t pre_next_asid) {
  const Status restored = dest->engine_.Restore(pre_engine);
  if (!restored.ok()) {
    TYCHE_LOG(kError) << "migration rollback: destination pre-image refused: "
                      << restored.ToString();
  }
  dest->domains_.erase(staged.new_id);
  dest->next_domain_ = pre_next_domain;
  dest->next_asid_ = pre_next_asid;
  // Scrub the half-delivered payload pages: they carried another domain's
  // (possibly secret) state into memory the destination OS still owns.
  for (const auto& [base, content] : staged.pages) {
    (void)dest->machine_->ZeroRange(base, content.size());
  }
  const Status sync = dest->ResyncAll();
  if (!sync.ok()) {
    TYCHE_LOG(kError) << "migration rollback: destination re-sync degraded: "
                      << sync.ToString();
  }
}

Result<MigrationReport> MigrationInternal::RunFrozen(Monitor* source, Monitor* dest,
                                                     DomainId domain,
                                                     const MigrationCarrier& carrier,
                                                     const SchnorrPublicKey& source_key) {
  MigrationReport report;

  // --- capture ---
  Digest payload_digest;
  uint64_t head_prefix = 0;
  TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> payload,
                         BuildPayload(source, domain, &payload_digest, &head_prefix));
  report.payload_digest = payload_digest;
  report.payload_bytes = payload.size();

  // --- transfer: the carrier is untrusted, restore verifies what it returns ---
  TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> delivered,
                         carrier(payload, payload_digest));

  // --- restore (staged, destination untouched) ---
  TYCHE_ASSIGN_OR_RETURN(StagedAdoption staged,
                         StageOnDest(dest, delivered, payload_digest, source_key));

  // --- resync: swap the staged engine in, rebuild destination hardware ---
  const EngineImage pre_engine = dest->engine_.Capture();
  const DomainId pre_next_domain = dest->next_domain_;
  const uint16_t pre_next_asid = dest->next_asid_;

  TYCHE_RETURN_IF_ERROR(dest->engine_.Restore(staged.engine.Capture()));
  staged.adopted.asid = dest->next_asid_;
  dest->domains_.emplace(staged.new_id, staged.adopted);
  dest->next_domain_ = staged.new_id + 1;
  ++dest->next_asid_;
  const Status prepared = PrepareCommit(dest, staged);
  if (!prepared.ok()) {
    RollbackDest(dest, staged, pre_engine, pre_next_domain, pre_next_asid);
    return prepared;
  }

  // --- commit ---
  // Source handoff first: the destination's kMigrateIn binds the link of the
  // source's kMigrateOut, which only exists once appended.
  const uint64_t out_span = source->next_span_.fetch_add(1, std::memory_order_relaxed);
  source->audit_.MigrateOut(out_span, domain, payload_digest, head_prefix);
  const Digest out_link = source->audit_.journal().head();

  const uint64_t in_span = dest->next_span_.fetch_add(1, std::memory_order_relaxed);
  dest->audit_.RegisterDomain(in_span, staged.new_id, /*creator=*/0);
  dest->audit_.MintUnit(in_span, /*owner=*/0, staged.handle_cap, ResourceKind::kDomain,
                        staged.new_id, CapRights(CapRights::kAll));
  for (const auto& [request, outcome] : staged.grants) {
    dest->audit_.Delegate(in_span, /*requester=*/0, staged.new_id, request, outcome);
  }
  dest->audit_.SealDomain(in_span, staged.new_id, staged.adopted.measurement,
                          staged.adopted.entry_point);
  dest->audit_.MigrateIn(in_span, staged.new_id, payload_digest, out_link.Prefix64());

  // The handoff is journaled, so the source side is never rolled back: it
  // is torn down like a destroyed domain.
  const Status teardown =
      source->CommitTeardown(out_span, ApiOp::kOpCount, domain, domain,
                             source->PurgeJournaled(out_span, domain));
  source->frozen_.erase(domain);
  if (!teardown.ok()) {
    TYCHE_LOG(kWarn) << "migration committed; source teardown degraded: "
                     << teardown.ToString();
  }
  report.dest_domain = staged.new_id;
  TYCHE_LOG(kInfo) << "domain " << domain << " migrated: now domain " << staged.new_id
                   << " on the destination (" << report.payload_bytes << " bytes)";
  return report;
}

Result<MigrationReport> MigrationInternal::Run(Monitor* source, Monitor* dest,
                                               DomainId domain,
                                               const MigrationCarrier& carrier,
                                               const SchnorrPublicKey& source_key) {
  TYCHE_RETURN_IF_ERROR(Freeze(source, dest, domain));
  auto result = RunFrozen(source, dest, domain, carrier, source_key);
  if (!result.ok()) {
    RollbackSource(source, domain, result.status());
  }
  return result;
}

Result<MigrationReport> MigrateDomain(Monitor* source, Monitor* dest, DomainId domain,
                                      const MigrationCarrier& carrier,
                                      const SchnorrPublicKey& source_key) {
  return MigrationInternal::Run(source, dest, domain, carrier, source_key);
}

void FreezeDomainForTest(Monitor* monitor, DomainId domain) {
  MigrationInternal::FreezeForTest(monitor, domain);
}

void UnfreezeDomainForTest(Monitor* monitor, DomainId domain) {
  MigrationInternal::UnfreezeForTest(monitor, domain);
}

}  // namespace tyche
