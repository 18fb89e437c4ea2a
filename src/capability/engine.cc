// Copyright 2026 The Tyche Reproduction Authors.

#include "src/capability/engine.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "src/support/faults.h"
#include "src/support/log.h"
#include "src/support/profiler.h"

namespace tyche {

namespace {

// Splits `whole` minus `sub` into at most two remainder pieces.
std::vector<AddrRange> RemainderPieces(const AddrRange& whole, const AddrRange& sub) {
  std::vector<AddrRange> pieces;
  if (sub.base > whole.base) {
    pieces.push_back(AddrRange{whole.base, sub.base - whole.base});
  }
  if (sub.end() < whole.end()) {
    pieces.push_back(AddrRange{sub.end(), whole.end() - sub.end()});
  }
  return pieces;
}

}  // namespace

std::string Capability::ToString() const {
  std::ostringstream out;
  out << "cap#" << id << " owner=" << owner << " " << ResourceKindName(kind);
  if (kind == ResourceKind::kMemory) {
    out << " [0x" << std::hex << range.base << ",0x" << range.end() << std::dec << ") "
        << perms.ToString();
  } else {
    out << " unit=" << unit;
  }
  switch (state) {
    case CapState::kActive:
      out << " active";
      break;
    case CapState::kRevoked:
      out << " revoked";
      break;
    case CapState::kDonated:
      out << " donated";
      break;
  }
  return out.str();
}

CapabilityEngine::CapabilityEngine(CapabilityEngine&& other) noexcept
    : caps_(std::move(other.caps_)),
      next_id_(other.next_id_),
      owned_(std::move(other.owned_)),
      domains_(std::move(other.domains_)) {}

CapabilityEngine& CapabilityEngine::operator=(CapabilityEngine&& other) noexcept {
  if (this != &other) {
    caps_ = std::move(other.caps_);
    next_id_ = other.next_id_;
    owned_ = std::move(other.owned_);
    domains_ = std::move(other.domains_);
  }
  return *this;
}

void CapabilityEngine::RegisterDomain(CapDomainId domain, CapDomainId creator) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  domains_[domain] = DomainInfo{creator, /*sealed=*/false};
}

void CapabilityEngine::SealDomain(CapDomainId domain) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  const auto it = domains_.find(domain);
  if (it != domains_.end()) {
    it->second.sealed = true;
  }
}

bool CapabilityEngine::IsSealedLocked(CapDomainId domain) const {
  const auto it = domains_.find(domain);
  return it != domains_.end() && it->second.sealed;
}

bool CapabilityEngine::IsRegistered(CapDomainId domain) const {
  std::shared_lock lock(mu_);
  return IsRegisteredLocked(domain);
}

bool CapabilityEngine::IsRegisteredLocked(CapDomainId domain) const {
  return domains_.contains(domain);
}

Capability& CapabilityEngine::NewCap(CapDomainId owner, ResourceKind kind) {
  const CapId id = next_id_++;
  Capability& cap = caps_[id];
  cap.id = id;
  cap.owner = owner;
  cap.kind = kind;
  owned_[owner].push_back(id);
  // Silent-corruption injection: drop the index entry the cap just earned.
  // The operation still succeeds -- exactly the failure mode (derived state
  // drifting from the lineage map) the invariant watchdog exists to catch.
  if (FaultInjector::active()) [[unlikely]] {
    if (!FaultInjector::Instance().Check(faults::kEngineOwnedDesync).ok()) {
      owned_[owner].pop_back();
    }
  }
  return cap;
}

void CapabilityEngine::IndexActive(const Capability& cap) {
  std::vector<CapId>& ids = owned_[cap.owner];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), cap.id), cap.id);
}

void CapabilityEngine::UnindexActive(const Capability& cap) {
  if (const auto owned_it = owned_.find(cap.owner); owned_it != owned_.end()) {
    std::erase(owned_it->second, cap.id);
  }
}

template <typename Fn>
void CapabilityEngine::ForEachOwnedLocked(CapDomainId domain, Fn&& fn) const {
  const auto owned_it = owned_.find(domain);
  if (owned_it == owned_.end()) {
    return;
  }
  for (const CapId id : owned_it->second) {
    if (const auto it = caps_.find(id); it != caps_.end()) {
      fn(it->second);
    }
  }
}

Status CapabilityEngine::MissingCap(CapId cap) const {
  if (cap != kInvalidCap && cap < next_id_) {
    return Error(ErrorCode::kCapabilityRevoked, "capability revoked");
  }
  return Error(ErrorCode::kNotFound, "no such capability");
}

Result<Capability*> CapabilityEngine::GetMutable(CapId cap) {
  const auto it = caps_.find(cap);
  if (it == caps_.end()) {
    return MissingCap(cap);
  }
  return &it->second;
}

Result<const Capability*> CapabilityEngine::Get(CapId cap) const {
  std::shared_lock lock(mu_);
  return GetLocked(cap);
}

Result<const Capability*> CapabilityEngine::GetLocked(CapId cap) const {
  const auto it = caps_.find(cap);
  if (it == caps_.end()) {
    return MissingCap(cap);
  }
  return &it->second;
}

Result<CapId> CapabilityEngine::MintMemory(CapDomainId owner, AddrRange range, Perms perms,
                                           CapRights rights) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(owner)) {
    return Error(ErrorCode::kNotFound, "owner domain not registered");
  }
  if (range.empty() || !IsPageAligned(range.base) || !IsPageAligned(range.size)) {
    return Error(ErrorCode::kInvalidArgument, "memory capability must be page-aligned");
  }
  Capability& cap = NewCap(owner, ResourceKind::kMemory);
  cap.range = range;
  cap.perms = perms;
  cap.rights = rights;
  cap.origin = CapOrigin::kMint;
  return cap.id;
}

Result<CapId> CapabilityEngine::MintUnit(CapDomainId owner, ResourceKind kind, uint64_t unit,
                                         CapRights rights) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(owner)) {
    return Error(ErrorCode::kNotFound, "owner domain not registered");
  }
  if (kind == ResourceKind::kMemory) {
    return Error(ErrorCode::kInvalidArgument, "use MintMemory for memory");
  }
  Capability& cap = NewCap(owner, kind);
  cap.unit = unit;
  cap.rights = rights;
  cap.origin = CapOrigin::kMint;
  return cap.id;
}

Status CapabilityEngine::CheckSealingRules(CapDomainId src_owner, CapDomainId dst) const {
  const auto dst_it = domains_.find(dst);
  if (dst_it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "destination domain not registered");
  }
  // A sealed domain's resource set cannot be extended (§3.1) -- not even by
  // its creator, or the attested configuration would be mutable.
  if (dst_it->second.sealed) {
    TYCHE_LOG(kWarn) << "sealing rules deny transfer: domain " << dst
                     << " is sealed (requested by domain " << src_owner << ")";
    return Error(ErrorCode::kDomainSealed, "cannot extend a sealed domain's resources");
  }
  // A sealed domain cannot share onward -- except into domains it created
  // itself (nested enclaves, §4.2).
  if (IsSealedLocked(src_owner) && dst_it->second.creator != src_owner) {
    TYCHE_LOG(kWarn) << "sealing rules deny transfer: sealed domain " << src_owner
                     << " may only delegate to its children, not domain " << dst;
    return Error(ErrorCode::kDomainSealed, "sealed domain may only delegate to its children");
  }
  return OkStatus();
}

Result<Capability*> CapabilityEngine::CheckDelegation(const char* op, CapDomainId requester,
                                                      CapId src_cap, CapDomainId dst,
                                                      bool grant, const AddrRange* sub,
                                                      Perms perms, CapRights rights) {
  auto fail = [op](ErrorCode code, const char* what) {
    return Error(code, std::string(op) + ": " + what);
  };
  TYCHE_ASSIGN_OR_RETURN(Capability * src, GetMutable(src_cap));
  if (src->owner != requester) {
    return fail(ErrorCode::kCapabilityNotOwned, "requester does not own capability");
  }
  if (!src->active()) {
    return fail(ErrorCode::kCapabilityRevoked, "source capability inactive");
  }
  if ((src->kind == ResourceKind::kMemory) != (sub != nullptr)) {
    return fail(ErrorCode::kInvalidArgument, sub != nullptr
                                                 ? "not a memory capability"
                                                 : "memory is delegated by sub-range");
  }
  if (!(grant ? src->rights.CanGrant() : src->rights.CanShare())) {
    return fail(ErrorCode::kCapabilityRightsViolation,
                grant ? "missing grant right" : "missing share right");
  }
  if (sub != nullptr) {
    if (sub->empty() || !src->range.Contains(*sub)) {
      return fail(ErrorCode::kOutOfRange, "sub-range outside capability");
    }
    if (!IsPageAligned(sub->base) || !IsPageAligned(sub->size)) {
      return fail(ErrorCode::kInvalidArgument, "sub-range must be page-aligned");
    }
    if (!src->perms.Covers(perms) || perms.empty()) {
      return fail(ErrorCode::kCapabilityRightsViolation, "permissions exceed source");
    }
  }
  if (!src->rights.Covers(rights)) {
    return fail(ErrorCode::kCapabilityRightsViolation, "rights exceed source");
  }
  TYCHE_RETURN_IF_ERROR(CheckSealingRules(requester, dst));
  return src;
}

// std::map nodes are stable, so `src` stays valid across NewCap below.
Result<CapId> CapabilityEngine::ShareMemory(CapDomainId requester, CapId src_cap,
                                            CapDomainId dst, AddrRange sub, Perms perms,
                                            CapRights rights, RevocationPolicy policy,
                                            CapEffects* effects) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  TYCHE_ASSIGN_OR_RETURN(Capability * src, CheckDelegation("share", requester, src_cap, dst,
                                                           /*grant=*/false, &sub, perms,
                                                           rights));
  Capability& child = NewCap(dst, ResourceKind::kMemory);
  child.range = sub;
  child.perms = perms;
  child.rights = rights;
  child.revocation = policy;
  child.origin = CapOrigin::kShare;
  child.parent = src_cap;
  src->children.push_back(child.id);

  if (effects != nullptr) {
    effects->Add(CapEffect{CapEffect::Kind::kMapMemory, dst, ResourceKind::kMemory, sub, 0,
                           perms});
  }
  return child.id;
}

Result<GrantOutcome> CapabilityEngine::GrantMemory(CapDomainId requester, CapId src_cap,
                                                   CapDomainId dst, AddrRange sub,
                                                   Perms perms, CapRights rights,
                                                   RevocationPolicy policy) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  TYCHE_ASSIGN_OR_RETURN(Capability * src, CheckDelegation("grant", requester, src_cap, dst,
                                                           /*grant=*/true, &sub, perms,
                                                           rights));
  GrantOutcome outcome;
  Capability& granted = NewCap(dst, ResourceKind::kMemory);
  granted.range = sub;
  granted.perms = perms;
  granted.rights = rights;
  granted.revocation = policy;
  granted.origin = CapOrigin::kGrant;
  granted.parent = src_cap;
  outcome.granted = granted.id;
  src->children.push_back(granted.id);

  for (const AddrRange& piece : RemainderPieces(src->range, sub)) {
    Capability& rem = NewCap(requester, ResourceKind::kMemory);
    rem.range = piece;
    rem.perms = src->perms;
    rem.rights = src->rights;
    rem.revocation = src->revocation;
    rem.origin = CapOrigin::kRemainder;
    rem.parent = src_cap;
    src->children.push_back(rem.id);
    outcome.remainders.push_back(rem.id);
  }
  src->state = CapState::kDonated;
  UnindexActive(*src);

  // The grantor loses access to the granted bytes; the recipient gains it.
  outcome.effects.Add(CapEffect{CapEffect::Kind::kUnmapMemory, requester,
                                ResourceKind::kMemory, sub, 0, src->perms});
  outcome.effects.Add(
      CapEffect{CapEffect::Kind::kMapMemory, dst, ResourceKind::kMemory, sub, 0, perms});
  return outcome;
}

Result<CapId> CapabilityEngine::ShareUnit(CapDomainId requester, CapId src_cap,
                                          CapDomainId dst, CapRights rights,
                                          RevocationPolicy policy, CapEffects* effects) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  TYCHE_ASSIGN_OR_RETURN(Capability * src, CheckDelegation("share", requester, src_cap, dst,
                                                           /*grant=*/false, nullptr, Perms{},
                                                           rights));
  Capability& child = NewCap(dst, src->kind);
  child.unit = src->unit;
  child.rights = rights;
  child.revocation = policy;
  child.origin = CapOrigin::kShare;
  child.parent = src_cap;
  src->children.push_back(child.id);

  if (effects != nullptr) {
    effects->Add(CapEffect{CapEffect::Kind::kAttachUnit, dst, src->kind, AddrRange{},
                           src->unit, Perms{}});
  }
  return child.id;
}

Result<GrantOutcome> CapabilityEngine::GrantUnit(CapDomainId requester, CapId src_cap,
                                                 CapDomainId dst, CapRights rights,
                                                 RevocationPolicy policy) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  TYCHE_ASSIGN_OR_RETURN(Capability * src, CheckDelegation("grant", requester, src_cap, dst,
                                                           /*grant=*/true, nullptr, Perms{},
                                                           rights));
  GrantOutcome outcome;
  Capability& granted = NewCap(dst, src->kind);
  granted.unit = src->unit;
  granted.rights = rights;
  granted.revocation = policy;
  granted.origin = CapOrigin::kGrant;
  granted.parent = src_cap;
  outcome.granted = granted.id;
  src->children.push_back(granted.id);
  src->state = CapState::kDonated;
  UnindexActive(*src);

  outcome.effects.Add(CapEffect{CapEffect::Kind::kDetachUnit, requester, src->kind,
                                AddrRange{}, src->unit, Perms{}});
  outcome.effects.Add(
      CapEffect{CapEffect::Kind::kAttachUnit, dst, src->kind, AddrRange{}, src->unit, Perms{}});
  return outcome;
}

void CapabilityEngine::EmitRevokeEffects(const Capability& cap, CapEffects* effects) {
  if (cap.kind == ResourceKind::kMemory) {
    effects->Add(CapEffect{CapEffect::Kind::kUnmapMemory, cap.owner, cap.kind, cap.range, 0,
                           cap.perms});
    if (cap.revocation.ZeroMemory()) {
      effects->Add(CapEffect{CapEffect::Kind::kZeroMemory, cap.owner, cap.kind, cap.range, 0,
                             Perms{}});
    }
    if (cap.revocation.FlushCache()) {
      effects->Add(CapEffect{CapEffect::Kind::kFlushCache, cap.owner, cap.kind, cap.range, 0,
                             Perms{}});
    }
  } else {
    effects->Add(CapEffect{CapEffect::Kind::kDetachUnit, cap.owner, cap.kind, AddrRange{},
                           cap.unit, Perms{}});
  }
}

uint64_t CapabilityEngine::RevokeSubtree(CapId cap_id, std::set<CapId>* visited,
                                         CapEffects* effects,
                                         std::vector<RevokeOutcome::Revoked>* revoked) {
  if (visited->contains(cap_id)) {
    return 0;  // cycle tolerance: each node processed at most once
  }
  visited->insert(cap_id);

  const auto it = caps_.find(cap_id);
  if (it == caps_.end()) {
    return 0;
  }
  uint64_t count = 0;
  // Children first: a shared-out mapping must disappear before the sharer's.
  // The whole subtree is erased, so the child list can be taken; std::map
  // erasure of the children leaves `it` valid.
  const std::vector<CapId> children = std::move(it->second.children);
  for (const CapId child : children) {
    count += RevokeSubtree(child, visited, effects, revoked);
  }
  const Capability& cap = it->second;
  if (cap.active()) {
    EmitRevokeEffects(cap, effects);
    ++count;
    revoked->push_back(RevokeOutcome::Revoked{cap_id, cap.owner, cap.kind});
    // One line per cascaded deactivation; the visited-set size is the
    // evidence that cyclic sharing (A→B→A) still terminates.
    TYCHE_LOG(kTrace) << "revoke cascade: cap#" << cap_id << " owner=" << cap.owner << " "
                      << ResourceKindName(cap.kind) << " visited=" << visited->size();
    UnindexActive(cap);
  }
  caps_.erase(it);
  return count;
}

Result<RevokeOutcome> CapabilityEngine::Revoke(CapDomainId requester, CapId cap_id) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  return RevokeLocked(requester, cap_id);
}

Result<RevokeOutcome> CapabilityEngine::RevokeLocked(CapDomainId requester, CapId cap_id) {
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, GetLocked(cap_id));

  bool authorized = cap->owner == requester;  // dropping one's own access
  CapDomainId grantor = kNoCreator;
  if (cap->parent != kInvalidCap) {
    const auto parent_it = caps_.find(cap->parent);
    if (parent_it != caps_.end()) {
      grantor = parent_it->second.owner;
      if (parent_it->second.owner == requester && parent_it->second.rights.CanRevoke()) {
        authorized = true;  // revoking what one shared / granted out
      }
    }
  }
  if (!authorized) {
    return Error(ErrorCode::kCapabilityRightsViolation, "revoke: not authorized");
  }

  RevokeOutcome outcome;
  std::set<CapId> visited;
  const bool was_grant = cap->origin == CapOrigin::kGrant;
  const AddrRange range = cap->range;
  const ResourceKind kind = cap->kind;
  const uint64_t unit = cap->unit;
  const CapId parent = cap->parent;

  outcome.revoked_count = RevokeSubtree(cap_id, &visited, &outcome.effects,
                                        &outcome.revoked_caps);
  const auto parent_it = caps_.find(parent);
  if (parent_it != caps_.end()) {
    std::erase(parent_it->second.children, cap_id);
  }

  // Revoking a grant returns ownership to a grantor that still exists. A
  // grant that took the whole parent, now childless, hands the parent itself
  // back: minting a restore child instead would grow a chain of donated
  // nodes on every grant/revoke round trip.
  if (was_grant && parent_it != caps_.end() && IsRegisteredLocked(grantor)) {
    // std::map nodes are stable, so parent_cap survives NewCap's insertion.
    Capability& parent_cap = parent_it->second;
    const Perms perms = parent_cap.perms;
    if (parent_cap.children.empty() &&
        (kind != ResourceKind::kMemory || parent_cap.range == range)) {
      parent_cap.state = CapState::kActive;
      IndexActive(parent_cap);
      outcome.restored = parent;
    } else {
      Capability& restore = NewCap(grantor, kind);
      restore.range = range;
      restore.unit = unit;
      restore.perms = perms;
      restore.rights = parent_cap.rights;
      restore.revocation = parent_cap.revocation;
      restore.origin = CapOrigin::kRestore;
      restore.parent = parent;
      parent_cap.children.push_back(restore.id);
      outcome.restored = restore.id;
    }
    if (kind == ResourceKind::kMemory) {
      outcome.effects.Add(
          CapEffect{CapEffect::Kind::kMapMemory, grantor, kind, range, 0, perms});
    } else {
      outcome.effects.Add(
          CapEffect{CapEffect::Kind::kAttachUnit, grantor, kind, AddrRange{}, unit, Perms{}});
    }
  }
  ReclaimDeadAncestors(parent);
  return outcome;
}

void CapabilityEngine::ReclaimDeadAncestors(CapId id) {
  while (id != kInvalidCap) {
    const auto it = caps_.find(id);
    if (it == caps_.end() || it->second.state != CapState::kDonated ||
        !it->second.children.empty()) {
      return;
    }
    const CapId parent = it->second.parent;
    caps_.erase(it);
    if (const auto parent_it = caps_.find(parent); parent_it != caps_.end()) {
      std::erase(parent_it->second.children, id);
    }
    id = parent;
  }
}

Result<RevokeOutcome> CapabilityEngine::PurgeDomain(
    CapDomainId domain, std::vector<std::pair<CapId, RevokeOutcome>>* partial) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(domain)) {
    return Error(ErrorCode::kNotFound, "purge: domain not registered");
  }
  RevokeOutcome total;
  auto accumulate = [&total](const RevokeOutcome& outcome) {
    total.revoked_count += outcome.revoked_count;
    total.revoked_caps.insert(total.revoked_caps.end(), outcome.revoked_caps.begin(),
                              outcome.revoked_caps.end());
    total.effects.Append(outcome.effects);
  };
  // Collect first: revocation mutates the index.
  std::vector<CapId> owned;
  if (const auto owned_it = owned_.find(domain); owned_it != owned_.end()) {
    owned = owned_it->second;
  }
  for (const CapId id : owned) {
    const auto it = caps_.find(id);
    if (it == caps_.end() || !it->second.active()) {
      continue;  // revoked by an earlier cascade of this purge
    }
    // A failed revoke aborts the purge: the error propagates, the domain
    // stays registered, and `partial` already names every root that DID
    // commit, so the caller can journal those and retry the remainder.
    // Revocation itself has no failing path today; the fault point models
    // one (and any future organic failure takes the same exit).
    TYCHE_FAULT_POINT(faults::kEnginePurgeRevoke);
    auto result = RevokeLocked(domain, id);
    if (!result.ok()) {
      return result.status();
    }
    accumulate(*result);
    if (partial != nullptr) {
      partial->emplace_back(id, *result);
    }
  }
  // Nothing below can fail, so a failed purge never reaches it.
  owned_.erase(domain);
  domains_.erase(domain);
  // Every handle naming the dead domain dies with it, the creator's
  // included. Handles are minted as roots (their lineage is all handles to
  // the same domain), so revoking the roots covers every derived copy.
  std::vector<CapId> handles;
  for (const auto& [id, cap] : caps_) {
    if (cap.kind == ResourceKind::kDomain && cap.unit == domain &&
        cap.parent == kInvalidCap) {
      handles.push_back(id);
    }
  }
  for (const CapId id : handles) {
    RevokeOutcome outcome;
    std::set<CapId> visited;
    outcome.revoked_count =
        RevokeSubtree(id, &visited, &outcome.effects, &outcome.revoked_caps);
    accumulate(outcome);
  }
  return total;
}

std::vector<const Capability*> CapabilityEngine::DomainCaps(CapDomainId domain) const {
  std::shared_lock lock(mu_);
  std::vector<const Capability*> out;
  ForEachOwnedLocked(domain, [&out](const Capability& cap) { out.push_back(&cap); });
  return out;
}

Perms CapabilityEngine::EffectivePerms(CapDomainId domain, uint64_t addr) const {
  std::shared_lock lock(mu_);
  uint8_t mask = Perms::kNone;
  ForEachOwnedLocked(domain, [&](const Capability& cap) {
    if (cap.kind == ResourceKind::kMemory && cap.range.Contains(addr)) {
      mask |= cap.perms.mask;
    }
  });
  return Perms(mask);
}

bool CapabilityEngine::HasUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const {
  std::shared_lock lock(mu_);
  bool found = false;
  ForEachOwnedLocked(domain, [&](const Capability& cap) {
    found = found || (cap.kind == kind && cap.unit == unit);
  });
  return found;
}

uint32_t CapabilityEngine::MemoryRefCount(AddrRange range) const {
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == ResourceKind::kMemory && cap.range.Overlaps(range)) {
      holders.insert(cap.owner);
    }
  }
  return static_cast<uint32_t>(holders.size());
}

uint32_t CapabilityEngine::UnitRefCount(ResourceKind kind, uint64_t unit) const {
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == kind && cap.unit == unit) {
      holders.insert(cap.owner);
    }
  }
  return static_cast<uint32_t>(holders.size());
}

bool CapabilityEngine::ExclusivelyOwned(CapDomainId domain, AddrRange range) const {
  std::shared_lock lock(mu_);
  if (range.empty()) {
    return false;
  }
  // Every byte must be covered by `domain` and by no one else. The view's
  // regions are sorted and only cover held bytes, so a gap between the
  // regions overlapping `range` is a byte nobody holds.
  uint64_t covered_until = range.base;
  for (const RegionView& view : MemoryViewLocked(0)) {
    if (!view.range.Overlaps(range)) {
      continue;
    }
    if (view.domains.size() != 1 || view.domains[0] != domain ||
        view.range.base > covered_until) {
      return false;
    }
    covered_until = view.range.end();
  }
  return covered_until >= range.end();
}

std::vector<CapabilityEngine::MappedRegion> CapabilityEngine::DomainMemoryMap(
    CapDomainId domain, AddrRange within) const {
  std::shared_lock lock(mu_);
  std::vector<const Capability*> mem_caps;
  std::vector<uint64_t> boundaries;
  ForEachOwnedLocked(domain, [&](const Capability& cap) {
    const AddrRange clip = within.empty() ? cap.range : within;
    if (cap.kind == ResourceKind::kMemory && cap.range.Overlaps(clip)) {
      mem_caps.push_back(&cap);
      boundaries.push_back(std::max(cap.range.base, clip.base));
      boundaries.push_back(std::min(cap.range.end(), clip.end()));
    }
  });
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  std::vector<MappedRegion> regions;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const AddrRange interval{boundaries[i], boundaries[i + 1] - boundaries[i]};
    uint8_t mask = Perms::kNone;
    for (const Capability* cap : mem_caps) {
      if (cap->range.Overlaps(interval)) {
        mask |= cap->perms.mask;
      }
    }
    if (mask == Perms::kNone) {
      continue;
    }
    if (!regions.empty() && regions.back().range.end() == interval.base &&
        regions.back().perms.mask == mask) {
      regions.back().range.size += interval.size;
    } else {
      regions.push_back(MappedRegion{interval, Perms(mask)});
    }
  }
  return regions;
}

std::vector<RegionView> CapabilityEngine::MemoryView(uint64_t limit) const {
  std::shared_lock lock(mu_);
  return MemoryViewLocked(limit);
}

std::vector<RegionView> CapabilityEngine::MemoryViewLocked(uint64_t limit) const {
  std::vector<uint64_t> boundaries;
  std::vector<const Capability*> mem_caps;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == ResourceKind::kMemory) {
      if (limit != 0 && cap.range.base >= limit) {
        continue;
      }
      mem_caps.push_back(&cap);
      boundaries.push_back(cap.range.base);
      boundaries.push_back(limit != 0 ? std::min(cap.range.end(), limit) : cap.range.end());
    }
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  std::vector<RegionView> views;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const AddrRange interval{boundaries[i], boundaries[i + 1] - boundaries[i]};
    std::set<CapDomainId> holders;
    for (const Capability* cap : mem_caps) {
      if (cap->range.Overlaps(interval)) {
        holders.insert(cap->owner);
      }
    }
    if (holders.empty()) {
      continue;
    }
    RegionView view;
    view.range = interval;
    view.domains.assign(holders.begin(), holders.end());
    // Merge with the previous view when contiguous and identical.
    if (!views.empty() && views.back().range.end() == interval.base &&
        views.back().domains == view.domains) {
      views.back().range.size += interval.size;
    } else {
      views.push_back(std::move(view));
    }
  }
  return views;
}

uint64_t CapabilityEngine::total_caps() const {
  std::shared_lock lock(mu_);
  return static_cast<uint64_t>(caps_.size());
}

uint64_t CapabilityEngine::active_caps() const {
  std::shared_lock lock(mu_);
  uint64_t count = 0;
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      ++count;
    }
  }
  return count;
}

// The ForEach walks and DumpTree run the callback under the shared lock:
// callbacks must not call back into the engine.
void CapabilityEngine::ForEachActive(const std::function<void(const Capability&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      fn(cap);
    }
  }
}

void CapabilityEngine::ForEach(const std::function<void(const Capability&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, cap] : caps_) {
    fn(cap);
  }
}

Status CapabilityEngine::CheckOwnedIndex() const {
  std::shared_lock lock(mu_);
  // The lineage map (the source of truth) must hold only live nodes:
  // revocation reclaims, and so does losing a donated node's last child.
  uint64_t active = 0;
  for (const auto& [id, cap] : caps_) {
    if (cap.state == CapState::kRevoked ||
        (cap.state == CapState::kDonated && cap.children.empty())) {
      return Error(ErrorCode::kInternal, "lineage map holds a dead capability");
    }
    active += cap.active() ? 1 : 0;
  }
  // owned_ must be exactly the active set: every entry an active cap under
  // its owner, each bucket strictly in id order (so no repeats), and as many
  // entries as there are active caps.
  uint64_t indexed = 0;
  for (const auto& [owner, ids] : owned_) {
    if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) != ids.end()) {
      return Error(ErrorCode::kInternal, "owner index bucket out of id order");
    }
    for (const CapId id : ids) {
      const auto it = caps_.find(id);
      if (it == caps_.end() || it->second.owner != owner || !it->second.active()) {
        return Error(ErrorCode::kInternal, "owner index names a cap it must not");
      }
    }
    indexed += ids.size();
  }
  if (indexed != active) {
    return Error(ErrorCode::kInternal, "owner index misses an active capability");
  }
  return OkStatus();
}

std::string CapabilityEngine::DumpTree() const {
  std::shared_lock lock(mu_);
  std::ostringstream out;
  std::function<void(CapId, int)> recurse = [&](CapId id, int depth) {
    const auto it = caps_.find(id);
    if (it == caps_.end()) {
      return;
    }
    for (int i = 0; i < depth; ++i) {
      out << "  ";
    }
    out << it->second.ToString() << "\n";
    for (const CapId child : it->second.children) {
      recurse(child, depth + 1);
    }
  };
  for (const auto& [id, cap] : caps_) {
    if (cap.parent == kInvalidCap) {
      recurse(id, 0);
    }
  }
  return out.str();
}

EngineImage CapabilityEngine::Capture() const {
  std::shared_lock lock(mu_);
  EngineImage image;
  image.caps.reserve(caps_.size());
  for (const auto& [id, cap] : caps_) {
    image.caps.push_back(cap);
  }
  image.domains.reserve(domains_.size());
  for (const auto& [id, info] : domains_) {
    image.domains.push_back(EngineImage::DomainEntry{id, info.creator, info.sealed});
  }
  image.next_id = next_id_;
  return image;
}

Status CapabilityEngine::Restore(const EngineImage& image) {
  std::unique_lock lock(mu_);
  // Validate before mutating anything: a corrupted snapshot must not leave
  // the engine half-installed.
  std::map<CapDomainId, DomainInfo> domains;
  for (const EngineImage::DomainEntry& entry : image.domains) {
    if (!domains.emplace(entry.id, DomainInfo{entry.creator, entry.sealed}).second) {
      return Error(ErrorCode::kInvalidArgument, "engine image: duplicate domain");
    }
  }
  std::map<CapId, Capability> caps;
  for (const Capability& cap : image.caps) {
    if (cap.id == kInvalidCap || cap.id >= image.next_id) {
      return Error(ErrorCode::kInvalidArgument, "engine image: cap id out of range");
    }
    // A live engine reclaims revoked nodes, so an image carrying one is not
    // a faithful Capture.
    if (cap.state == CapState::kRevoked) {
      return Error(ErrorCode::kInvalidArgument,
                   "engine image: revoked cap " + std::to_string(cap.id));
    }
    // Only ACTIVE caps need a registered owner: a donated node whose owner
    // was purged stays as the ancestor of the live pieces below it.
    if (cap.active() && domains.find(cap.owner) == domains.end()) {
      return Error(ErrorCode::kInvalidArgument,
                   "engine image: active cap " + std::to_string(cap.id) +
                       " owned by unregistered domain " + std::to_string(cap.owner));
    }
    if (!caps.emplace(cap.id, cap).second) {
      return Error(ErrorCode::kInvalidArgument, "engine image: duplicate cap id");
    }
  }
  for (const auto& [id, cap] : caps) {
    if (cap.parent != kInvalidCap && caps.find(cap.parent) == caps.end()) {
      return Error(ErrorCode::kInvalidArgument, "engine image: dangling parent");
    }
    for (const CapId child : cap.children) {
      if (caps.find(child) == caps.end()) {
        return Error(ErrorCode::kInvalidArgument, "engine image: dangling child");
      }
    }
  }
  caps_ = std::move(caps);
  domains_ = std::move(domains);
  next_id_ = image.next_id;
  // Rebuild the derived owner index (images never carry it). std::map
  // iteration is id order, which is the order every bucket keeps.
  owned_.clear();
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      owned_[cap.owner].push_back(id);
    }
  }
  return OkStatus();
}

}  // namespace tyche
