// Copyright 2026 The Tyche Reproduction Authors.

#include "src/capability/engine.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "src/support/fault_hook.h"
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

// A share's child id, its effects appended to `effects` when given.
Result<CapId> SharedChild(Result<DelegationOutcome> outcome, CapEffects* effects) {
  if (!outcome.ok()) {
    return outcome.status();
  }
  if (effects != nullptr) {
    effects->Append(outcome->effects);
  }
  return outcome->granted;
}

}  // namespace

CapabilityEngine::CapabilityEngine(CapabilityEngine&& other) noexcept {
  *this = std::move(other);
}

CapabilityEngine& CapabilityEngine::operator=(CapabilityEngine&& other) noexcept {
  if (this != &other) {
    caps_ = std::move(other.caps_);
    next_id_ = other.next_id_;
    owned_ = std::move(other.owned_);
    units_ = std::move(other.units_);
    domains_ = std::move(other.domains_);
    ++epoch_;
    ++other.epoch_;
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

Capability& CapabilityEngine::NewCap(CapDomainId owner, ResourceKind kind, AddrRange range,
                                     uint64_t unit) {
  const CapId id = next_id_++;
  Capability& cap = caps_[id];
  cap.id = id;
  cap.owner = owner;
  cap.kind = kind;
  cap.range = range;
  cap.unit = unit;
  IndexActive(cap);
  // Silent-corruption injection: drop the index entry the cap just earned.
  // The operation still succeeds -- exactly the failure mode (derived state
  // drifting from the lineage map) the invariant watchdog exists to catch.
  if (FaultFires(faults::kEngineOwnedDesync)) {
    owned_[owner].pop_back();
  }
  return cap;
}

void CapabilityEngine::IndexActive(const Capability& cap) {
  const auto insert = [&cap](std::vector<CapId>& ids) {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), cap.id), cap.id);
  };
  insert(owned_[cap.owner]);
  if (cap.kind != ResourceKind::kMemory) {
    insert(units_[{cap.kind, cap.unit}]);
  }
  ++epoch_;
}

void CapabilityEngine::UnindexActive(const Capability& cap) {
  if (const auto owned_it = owned_.find(cap.owner); owned_it != owned_.end()) {
    std::erase(owned_it->second, cap.id);
  }
  if (const auto unit_it = units_.find({cap.kind, cap.unit}); unit_it != units_.end()) {
    std::erase(unit_it->second, cap.id);
  }
  ++epoch_;
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
  Capability& cap = NewCap(owner, ResourceKind::kMemory, range, 0);
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
  Capability& cap = NewCap(owner, kind, AddrRange{}, unit);
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

Result<Capability*> CapabilityEngine::CheckDelegation(CapDomainId requester, CapDomainId dst,
                                                      const Delegation& request) {
  const char* op = request.grant ? "grant" : "share";
  auto fail = [op](ErrorCode code, const char* what) {
    return Error(code, std::string(op) + ": " + what);
  };
  const std::optional<AddrRange>& sub = request.sub;
  TYCHE_ASSIGN_OR_RETURN(Capability * src, GetMutable(request.src));
  if (src->owner != requester) {
    return fail(ErrorCode::kCapabilityNotOwned, "requester does not own capability");
  }
  if (!src->active()) {
    return fail(ErrorCode::kCapabilityRevoked, "source capability inactive");
  }
  if ((src->kind == ResourceKind::kMemory) != sub.has_value()) {
    return fail(ErrorCode::kInvalidArgument, sub ? "not a memory capability"
                                                 : "memory is delegated by sub-range");
  }
  if (!(request.grant ? src->rights.CanGrant() : src->rights.CanShare())) {
    return fail(ErrorCode::kCapabilityRightsViolation,
                request.grant ? "missing grant right" : "missing share right");
  }
  if (sub && (sub->empty() || !src->range.Contains(*sub))) {
    return fail(ErrorCode::kOutOfRange, "sub-range outside capability");
  }
  if (sub && (!IsPageAligned(sub->base) || !IsPageAligned(sub->size))) {
    return fail(ErrorCode::kInvalidArgument, "sub-range must be page-aligned");
  }
  if (!src->perms.Covers(request.perms) || (sub && request.perms.empty())) {
    return fail(ErrorCode::kCapabilityRightsViolation, "permissions exceed source");
  }
  if (!src->rights.Covers(request.rights)) {
    return fail(ErrorCode::kCapabilityRightsViolation, "rights exceed source");
  }
  TYCHE_RETURN_IF_ERROR(CheckSealingRules(requester, dst));
  return src;
}

// std::map nodes are stable, so `src` stays valid across NewCap below.
Result<DelegationOutcome> CapabilityEngine::Delegate(CapDomainId requester, CapDomainId dst,
                                                     const Delegation& request) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  TYCHE_ASSIGN_OR_RETURN(Capability * src, CheckDelegation(requester, dst, request));
  // A unit moves whole: its range is empty, so it has no remainder pieces.
  const bool memory = request.sub.has_value();
  const AddrRange range = request.sub.value_or(AddrRange{});
  const auto child = [&](CapDomainId owner, AddrRange piece, CapOrigin origin) -> Capability& {
    Capability& cap = NewCap(owner, src->kind, piece, src->unit);
    cap.parent = request.src;
    cap.origin = origin;
    src->children.push_back(cap.id);
    return cap;
  };
  Capability& granted = child(dst, range, request.grant ? CapOrigin::kGrant : CapOrigin::kShare);
  granted.perms = request.perms;
  granted.rights = request.rights;
  granted.revocation = request.policy;
  DelegationOutcome outcome{granted.id, src->kind, src->unit, {}, {}};
  if (request.grant) {
    for (const AddrRange& piece : RemainderPieces(src->range, range)) {
      Capability& rem = child(requester, piece, CapOrigin::kRemainder);
      rem.perms = src->perms;
      rem.rights = src->rights;
      rem.revocation = src->revocation;
      outcome.remainders.push_back(rem.id);
    }
    src->state = CapState::kDonated;
    UnindexActive(*src);
    // The grantor loses access to what it granted.
    outcome.effects.Add(CapEffect{
        memory ? CapEffect::Kind::kUnmapMemory : CapEffect::Kind::kDetachUnit, requester,
        src->kind, range, src->unit, src->perms});
  }
  outcome.effects.Add(CapEffect{memory ? CapEffect::Kind::kMapMemory : CapEffect::Kind::kAttachUnit,
                                dst, src->kind, range, src->unit, request.perms});
  return outcome;
}

Result<CapId> CapabilityEngine::ShareMemory(CapDomainId requester, CapId src_cap,
                                            CapDomainId dst, AddrRange sub, Perms perms,
                                            CapRights rights, RevocationPolicy policy,
                                            CapEffects* effects) {
  return SharedChild(Delegate(requester, dst, {false, src_cap, sub, perms, rights, policy}),
                     effects);
}

Result<DelegationOutcome> CapabilityEngine::GrantMemory(CapDomainId requester, CapId src_cap,
                                                        CapDomainId dst, AddrRange sub,
                                                        Perms perms, CapRights rights,
                                                        RevocationPolicy policy) {
  return Delegate(requester, dst, {true, src_cap, sub, perms, rights, policy});
}

Result<CapId> CapabilityEngine::ShareUnit(CapDomainId requester, CapId src_cap,
                                          CapDomainId dst, CapRights rights,
                                          RevocationPolicy policy, CapEffects* effects) {
  return SharedChild(
      Delegate(requester, dst, {false, src_cap, std::nullopt, Perms{}, rights, policy}),
      effects);
}

Result<DelegationOutcome> CapabilityEngine::GrantUnit(CapDomainId requester, CapId src_cap,
                                                      CapDomainId dst, CapRights rights,
                                                      RevocationPolicy policy) {
  return Delegate(requester, dst, {true, src_cap, std::nullopt, Perms{}, rights, policy});
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
      Capability& restore = NewCap(grantor, kind, range, unit);
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
  units_.erase({ResourceKind::kDomain, domain});
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

CapId CapabilityEngine::FindUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const {
  std::shared_lock lock(mu_);
  if (const auto bucket = units_.find({kind, unit}); bucket != units_.end()) {
    for (auto id = bucket->second.rbegin(); id != bucket->second.rend(); ++id) {
      if (caps_.at(*id).owner == domain) {
        return *id;
      }
    }
  }
  return kInvalidCap;
}

uint32_t CapabilityEngine::MemoryRefCount(AddrRange range) const {
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  for (const RegionView& region : ViewCutLocked(range)) {
    holders.insert(region.domains.begin(), region.domains.end());
  }
  return static_cast<uint32_t>(holders.size());
}

uint32_t CapabilityEngine::UnitRefCount(ResourceKind kind, uint64_t unit) const {
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  if (const auto bucket = units_.find({kind, unit}); bucket != units_.end()) {
    for (const CapId id : bucket->second) {
      holders.insert(caps_.at(id).owner);
    }
  }
  return static_cast<uint32_t>(holders.size());
}

bool CapabilityEngine::ExclusivelyOwned(CapDomainId domain, AddrRange range) const {
  std::shared_lock lock(mu_);
  if (range.empty() || range.Wraps()) {
    return false;
  }
  // Every byte must be covered by `domain` and by no one else. The view's
  // regions are sorted and only cover held bytes, so a gap between them is
  // a byte nobody holds.
  uint64_t covered_until = range.base;
  for (const RegionView& view : ViewCutLocked(range)) {
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

std::vector<RegionView> CapabilityEngine::MemoryView(AddrRange within) const {
  std::shared_lock lock(mu_);
  if (within.empty()) {
    return ViewLocked();
  }
  std::vector<RegionView> views;
  for (const RegionView& region : ViewCutLocked(within)) {
    const uint64_t base = std::max(region.range.base, within.base);
    views.push_back(RegionView{
        AddrRange{base, std::min(region.range.end(), within.end()) - base}, region.domains});
  }
  return views;
}

std::span<const RegionView> CapabilityEngine::ViewCutLocked(AddrRange range) const {
  if (range.empty() || range.Wraps()) {
    return {};
  }
  const std::vector<RegionView>& view = ViewLocked();
  const auto first = std::partition_point(view.begin(), view.end(), [&](const RegionView& r) {
    return r.range.end() <= range.base;
  });
  const auto last = std::partition_point(
      first, view.end(), [&](const RegionView& r) { return r.range.base < range.end(); });
  return {first, last};
}

const std::vector<RegionView>& CapabilityEngine::ViewLocked() const {
  // No writer runs while the caller holds mu_ shared, so once a reader has
  // rebuilt for this epoch no other reader writes view_ until the caller is
  // done with the returned reference.
  const std::lock_guard view_lock(view_mu_);
  if (view_epoch_ == epoch_) {
    return view_;
  }
  // One sweep over the cap ends (address, owner, +1 at a start or -1 at an
  // end) in address order. Between two consecutive addresses the holders,
  // the owners with a non-zero count, are constant.
  std::vector<std::tuple<uint64_t, CapDomainId, int>> ends;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == ResourceKind::kMemory && cap.range.Overlaps(cap.range)) {
      ends.emplace_back(cap.range.base, cap.owner, 1);
      ends.emplace_back(cap.range.end(), cap.owner, -1);
    }
  }
  std::sort(ends.begin(), ends.end());
  std::map<CapDomainId, int> counts;
  view_.clear();
  for (size_t i = 0; i < ends.size();) {
    const uint64_t addr = std::get<0>(ends[i]);
    for (; i < ends.size() && std::get<0>(ends[i]) == addr; ++i) {
      const auto& [at, owner, delta] = ends[i];
      if ((counts[owner] += delta) == 0) {
        counts.erase(owner);
      }
    }
    if (counts.empty()) {
      continue;  // a gap, or past the last end
    }
    RegionView region{AddrRange{addr, std::get<0>(ends[i]) - addr}, {}};
    for (const auto& [owner, count] : counts) {
      region.domains.push_back(owner);
    }
    // Merge with the previous region when contiguous and identical.
    if (!view_.empty() && view_.back().range.end() == addr &&
        view_.back().domains == region.domains) {
      view_.back().range.size += region.range.size;
    } else {
      view_.push_back(std::move(region));
    }
  }
  view_epoch_ = epoch_;
  return view_;
}

uint64_t CapabilityEngine::total_caps() const {
  std::shared_lock lock(mu_);
  return static_cast<uint64_t>(caps_.size());
}

uint64_t CapabilityEngine::active_caps() const {
  std::shared_lock lock(mu_);
  return static_cast<uint64_t>(std::count_if(
      caps_.begin(), caps_.end(), [](const auto& entry) { return entry.second.active(); }));
}

// The ForEach walks run the callback under the shared lock: callbacks must
// not call back into the engine.
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
  uint64_t active_units = 0;
  for (const auto& [id, cap] : caps_) {
    if (cap.state == CapState::kRevoked ||
        (cap.state == CapState::kDonated && cap.children.empty())) {
      return Error(ErrorCode::kInternal, "lineage map holds a dead capability");
    }
    active += cap.active() ? 1 : 0;
    active_units += cap.active() && cap.kind != ResourceKind::kMemory ? 1 : 0;
  }
  // Each index must be exactly its share of the active set: every entry an
  // active cap under its own key, each bucket strictly in id order (so no
  // repeats), and as many entries as there are such caps.
  const auto check = [this](const auto& index, auto key_of, uint64_t expected,
                            const std::string& what) -> Status {
    uint64_t indexed = 0;
    for (const auto& [key, ids] : index) {
      if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) != ids.end()) {
        return Error(ErrorCode::kInternal, what + " bucket out of id order");
      }
      for (const CapId id : ids) {
        const auto it = caps_.find(id);
        if (it == caps_.end() || !it->second.active() || key_of(it->second) != key) {
          return Error(ErrorCode::kInternal, what + " names a cap it must not");
        }
      }
      indexed += ids.size();
    }
    return indexed == expected
               ? OkStatus()
               : Error(ErrorCode::kInternal, what + " misses an active capability");
  };
  TYCHE_RETURN_IF_ERROR(
      check(owned_, [](const Capability& cap) { return cap.owner; }, active, "owner index"));
  return check(units_, [](const Capability& cap) { return std::pair(cap.kind, cap.unit); },
               active_units, "unit index");
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
  // Rebuild the derived indexes (images never carry them) and invalidate
  // the view. std::map iteration is id order, which every bucket keeps.
  owned_.clear();
  units_.clear();
  ++epoch_;
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      IndexActive(cap);
    }
  }
  return OkStatus();
}

}  // namespace tyche
