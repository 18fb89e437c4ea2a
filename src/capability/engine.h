// Copyright 2026 The Tyche Reproduction Authors.
// The platform-independent capability engine (§4.1).
//
// Grant, share, and revoke operations "modify a tree structure that
// represents a capability's lineage, maintains per-resource reference
// counts, and facilitates cascading revocations, even in the presence of
// circular sharing". This engine is pure bookkeeping: it never touches
// hardware. Every mutating operation returns the *effects* the executive
// (the monitor's backend) must apply -- mappings to install or remove and
// cleanup obligations (zero / cache flush) to honour.
//
// Semantics implemented here, chosen to match the paper:
//  - Share(src, dst, sub): duplicates access. The source stays active; a new
//    child capability owned by dst is created. Reference counts of the
//    shared bytes go up if dst had no prior access.
//  - Grant(src, dst, sub): moves exclusive control. The source capability is
//    deactivated ("donated"); children are created for the granted piece
//    (owned by dst) and for every remainder piece (owned by the grantor).
//  - Revoke(cap): deactivates cap and its entire subtree (cascading), then
//    reclaims the dead nodes: engine state stays proportional to the live
//    capabilities, and lineage history lives in the audit journal. Revoking
//    a granted capability returns ownership to the grantor: the donated
//    parent itself is re-activated when the grant covered all of it and it
//    has no other child, otherwise a "restore" child is minted; a grantor
//    that no longer exists gets nothing back. A visited set makes the
//    cascade terminate even when domains share in cycles (A→B→A→...).
//  - Sealed domains can neither receive new capabilities nor share/grant
//    onward -- except to domains they created themselves (their nested
//    children), which is what lets sealed enclaves spawn nested enclaves
//    (§4.2) without invalidating their attested sharing state.

#ifndef SRC_CAPABILITY_ENGINE_H_
#define SRC_CAPABILITY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/capability/capability.h"
#include "src/capability/types.h"
#include "src/support/status.h"

namespace tyche {

// One entry of the effect list returned by mutating operations.
struct CapEffect {
  enum class Kind : uint8_t {
    kMapMemory,      // domain gained access to range with perms
    kUnmapMemory,    // domain lost access to range (recompute residual perms!)
    kZeroMemory,     // revocation policy: zero the range
    kFlushCache,     // revocation policy: flush caches for the range
    kAttachUnit,     // domain gained a core / device / domain handle
    kDetachUnit,     // domain lost a core / device / domain handle
  };

  Kind kind;
  CapDomainId domain = 0;
  ResourceKind resource = ResourceKind::kMemory;
  AddrRange range;
  uint64_t unit = 0;
  Perms perms;
};

struct CapEffects {
  std::vector<CapEffect> effects;

  void Add(CapEffect effect) { effects.push_back(effect); }
  void Append(const CapEffects& other) {
    effects.insert(effects.end(), other.effects.begin(), other.effects.end());
  }
};

// One share or grant of capability `src`. Memory moves by `sub`, a
// page-aligned piece of the source, and `perms` must be a non-empty subset
// of the source's; a unit resource (core, device, domain handle) moves
// whole: no `sub` and no perms. `rights` must attenuate the source's.
struct Delegation {
  bool grant = false;
  CapId src = kInvalidCap;
  std::optional<AddrRange> sub;
  Perms perms;
  CapRights rights;
  RevocationPolicy policy;
};

// Result of a share or grant: the capability now held by the recipient, its
// kind and unit, the remainder capabilities returned to the grantor (memory
// grants only) and the effects.
struct DelegationOutcome {
  CapId granted = kInvalidCap;
  ResourceKind kind = ResourceKind::kMemory;
  uint64_t unit = 0;
  std::vector<CapId> remainders;
  CapEffects effects;
};

struct RevokeOutcome {
  // One deactivated capability. The node is reclaimed before the revoke
  // returns, so the outcome carries what its cascade record names.
  struct Revoked {
    CapId id = kInvalidCap;
    CapDomainId owner = 0;
    ResourceKind kind = ResourceKind::kMemory;
    bool operator==(const Revoked&) const = default;
  };
  // Number of capabilities deactivated by the cascade.
  uint64_t revoked_count = 0;
  // The deactivated capabilities in cascade (post-order) sequence. The audit
  // journal emits one cascade record per entry; replay cross-checks them.
  std::vector<Revoked> revoked_caps;
  // Capability restoring ownership to the grantor (grants only): the
  // re-activated parent, or a freshly minted restore child.
  CapId restored = kInvalidCap;
  CapEffects effects;
};

// A maximal memory interval over which the set of domains with active access
// is constant. The sequence of these reconstructs the paper's Figure 4.
struct RegionView {
  AddrRange range;
  std::vector<CapDomainId> domains;  // sorted, distinct
  uint32_t ref_count() const { return static_cast<uint32_t>(domains.size()); }
};

// A value-type copy of the engine's complete state — every lineage node
// (active or donated), the domain table, and the id allocator.
// Capture/Restore round-trips through this for snapshots and recovery.
struct EngineImage {
  struct DomainEntry {
    CapDomainId id = 0;
    CapDomainId creator = 0;
    bool sealed = false;
  };
  std::vector<Capability> caps;     // in id order
  std::vector<DomainEntry> domains; // in id order
  CapId next_id = 1;
};

// Thread-safety contract (DESIGN.md §10): every public method takes the
// engine's internal reader-writer lock — shared for queries, exclusive for
// mutations — so the engine is individually safe under concurrent dispatch.
// Pointer-returning queries (Get, DomainCaps) hand out pointers into the
// lineage map; std::map node stability keeps them alive across OTHER
// insertions, but they are only meaningful until the next mutation. The
// monitor's dispatch-level lock provides that ordering: readers holding such
// pointers exclude mutators for the duration of their operation.
class CapabilityEngine {
 public:
  CapabilityEngine() = default;

  // Moves the STATE, not the lock (mutexes are not movable). Both engines
  // must be externally quiesced — used by recovery to install a staged
  // engine, which runs strictly single-threaded.
  CapabilityEngine(CapabilityEngine&& other) noexcept;
  CapabilityEngine& operator=(CapabilityEngine&& other) noexcept;

  // --- Domain lifecycle hooks (driven by the monitor) ---

  // Registers a domain and who created it (kInvalidDomainId for the root).
  static constexpr CapDomainId kNoCreator = ~0u;
  void RegisterDomain(CapDomainId domain, CapDomainId creator);
  void SealDomain(CapDomainId domain);
  bool IsRegistered(CapDomainId domain) const;
  // Removes a dead domain: revokes every active capability it owns,
  // unregisters it, then revokes every handle naming it (the creator's
  // included). All-or-unregister: if any per-root revoke fails, the
  // error is propagated, the domain stays REGISTERED, and the caps already
  // revoked stay revoked (revocation never resurrects). `partial`, when
  // non-null, receives one (root cap, outcome) pair per revoke that DID
  // commit before the failure, in order, so the caller can journal them and
  // retry the purge over whatever remains.
  Result<RevokeOutcome> PurgeDomain(
      CapDomainId domain,
      std::vector<std::pair<CapId, RevokeOutcome>>* partial = nullptr);

  // --- Minting (boot / monitor only; not reachable from the domain API) ---

  Result<CapId> MintMemory(CapDomainId owner, AddrRange range, Perms perms, CapRights rights);
  Result<CapId> MintUnit(CapDomainId owner, ResourceKind kind, uint64_t unit,
                         CapRights rights);

  // --- The isolation API (§3.2) ---

  // Shares or grants as `request` says, from `requester` (who must own the
  // active source with the share or grant right) to `dst`. A share adds a
  // child owned by dst and leaves the source active; a grant also mints the
  // grantor's remainder pieces and donates the source. The effects unmap or
  // detach the grantor's access first (grants only), then map or attach the
  // recipient's.
  Result<DelegationOutcome> Delegate(CapDomainId requester, CapDomainId dst,
                                     const Delegation& request);

  // Forwarders for the four shapes of Delegate. The shares append their
  // effects to `effects` when it is non-null.
  Result<CapId> ShareMemory(CapDomainId requester, CapId src_cap, CapDomainId dst,
                            AddrRange sub, Perms perms, CapRights rights,
                            RevocationPolicy policy, CapEffects* effects);
  Result<DelegationOutcome> GrantMemory(CapDomainId requester, CapId src_cap, CapDomainId dst,
                                        AddrRange sub, Perms perms, CapRights rights,
                                        RevocationPolicy policy);
  Result<CapId> ShareUnit(CapDomainId requester, CapId src_cap, CapDomainId dst,
                          CapRights rights, RevocationPolicy policy, CapEffects* effects);
  Result<DelegationOutcome> GrantUnit(CapDomainId requester, CapId src_cap, CapDomainId dst,
                                      CapRights rights, RevocationPolicy policy);

  // Revokes `cap` (and its subtree). The requester must own the parent of
  // `cap` with kRevoke rights, or own `cap` itself (dropping one's own
  // access is always allowed).
  Result<RevokeOutcome> Revoke(CapDomainId requester, CapId cap);

  // --- Queries (attestation + enforcement support) ---

  // A reclaimed id (allocated, then revoked) reads as kCapabilityRevoked; an id
  // never allocated as kNotFound.
  Result<const Capability*> Get(CapId cap) const;

  // All active capabilities owned by a domain.
  std::vector<const Capability*> DomainCaps(CapDomainId domain) const;

  // Effective memory permissions of a domain at `addr` (union over active
  // caps). Used by backends to recompute residual access after revocation.
  Perms EffectivePerms(CapDomainId domain, uint64_t addr) const;

  // The newest active unit capability `domain` holds on (kind, unit), or
  // kInvalidCap. O(log caps + holders of the unit).
  CapId FindUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const;
  bool HasUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const {
    return FindUnit(domain, kind, unit) != kInvalidCap;
  }

  // Reference count: number of distinct domains with active access
  // overlapping `range` (memory) / holding `unit`. Both read derived state:
  // the memoized view's cut (below) and the unit index.
  uint32_t MemoryRefCount(AddrRange range) const;
  uint32_t UnitRefCount(ResourceKind kind, uint64_t unit) const;

  // True iff `domain` is the only domain with access to every byte of range.
  bool ExclusivelyOwned(CapDomainId domain, AddrRange range) const;

  // The domain's effective memory map: maximal intervals with constant
  // non-empty effective permissions, sorted by base. This is what a backend
  // must make the hardware enforce. A non-empty `within` clips the map to
  // that range, so a backend can sync one range in a single pass.
  struct MappedRegion {
    AddrRange range;
    Perms perms;
    bool operator==(const MappedRegion&) const = default;
  };
  std::vector<MappedRegion> DomainMemoryMap(CapDomainId domain,
                                            AddrRange within = AddrRange{}) const;

  // Figure 4: the physical memory view as maximal constant-refcount regions,
  // sorted by base. A non-empty `within` clips the view to that range: the
  // result equals the full view intersected with `within`. The full view is
  // memoized: the first read after a change to the active set rebuilds it in
  // O(caps log caps); every other read costs O(log regions + k) for the k
  // regions it returns.
  std::vector<RegionView> MemoryView(AddrRange within = AddrRange{}) const;

  // Lineage inspection (for audits and tests). Every node is active or
  // donated, so total_caps() - active_caps() is the donated count.
  uint64_t total_caps() const;
  uint64_t active_caps() const;

  // Cross-checks the derived indexes against the lineage map: owned_ must
  // hold exactly the active caps, each under its owner in id order; units_
  // exactly the active unit caps, each under its (kind, unit) in id order;
  // and the map must hold no dead node (revoked, or donated with no child
  // left). O(caps) under a shared lock; run by the invariant watchdog to
  // catch silent index desync that no single query would notice (a missing
  // entry just makes a cap invisible to owner-filtered or unit queries).
  Status CheckOwnedIndex() const;

  // Walks every active capability (hardware-consistency validator support).
  void ForEachActive(const std::function<void(const Capability&)>& fn) const;

  // Walks EVERY lineage node, active or donated, in id order. Donated nodes
  // are the live ancestry a verifier may want to see (graph export).
  void ForEach(const std::function<void(const Capability&)>& fn) const;

  // --- Snapshot / recovery support ---

  // A complete value copy of the engine state.
  EngineImage Capture() const;
  // Replaces the engine state with `image`. Rejects internally inconsistent
  // images (id mismatches, parents pointing at missing nodes, revoked
  // nodes, caps owned by unregistered domains) so a corrupted snapshot
  // cannot half-install.
  Status Restore(const EngineImage& image);

 private:
  // *Locked variants run with mu_ already held; public methods that other
  // engine methods call internally split into a lock-taking wrapper and a
  // Locked body (std::shared_mutex is not recursive).
  bool IsSealedLocked(CapDomainId domain) const;
  bool IsRegisteredLocked(CapDomainId domain) const;
  Result<const Capability*> GetLocked(CapId cap) const;
  Result<RevokeOutcome> RevokeLocked(CapDomainId requester, CapId cap);

  // The memoized full view, rebuilt by one sweep over the active memory caps
  // when the epoch has moved since the last build.
  const std::vector<RegionView>& ViewLocked() const;
  // The regions of the full view that overlap `range`, unclipped.
  std::span<const RegionView> ViewCutLocked(AddrRange range) const;

  // Allocates an active cap and indexes it.
  Capability& NewCap(CapDomainId owner, ResourceKind kind, AddrRange range, uint64_t unit);
  Result<Capability*> GetMutable(CapId cap);
  // The lookup error for an id not in caps_: revoked if it was ever allocated.
  Status MissingCap(CapId cap) const;

  // Keep owned_ and units_ equal to the active set, each bucket in id
  // order, and bump the epoch.
  void IndexActive(const Capability& cap);
  void UnindexActive(const Capability& cap);
  // Calls fn on each active cap `domain` owns, in id order.
  template <typename Fn>
  void ForEachOwnedLocked(CapDomainId domain, Fn&& fn) const;

  // Checks the sealing rules for moving resources from src_owner to dst.
  Status CheckSealingRules(CapDomainId src_owner, CapDomainId dst) const;
  // The validation Delegate runs, in order: `requester` owns the active
  // source, of the right shape (memory iff `sub` is given), with the share
  // or grant right; `sub` is a page-aligned piece of it; the perms are a
  // subset of its permissions (non-empty for memory; a unit has none, so
  // none may be asked); the rights attenuate its rights; and the sealing
  // rules let it move to `dst`. Errors are prefixed "share" or "grant".
  Result<Capability*> CheckDelegation(CapDomainId requester, CapDomainId dst,
                                      const Delegation& request);

  // Cascade: deactivates the subtree rooted at `cap` (inclusive), appending
  // effects and the deactivated caps, and erases every node of it from
  // caps_. The caller unlinks `cap` from its parent. Returns number of caps
  // deactivated.
  uint64_t RevokeSubtree(CapId cap, std::set<CapId>* visited, CapEffects* effects,
                         std::vector<RevokeOutcome::Revoked>* revoked);

  // Erases `cap`, then each ancestor in turn, for as long as the node is
  // donated and childless: it confers no access and anchors no live piece.
  // Called on the parent of every revoke root, so no such node persists.
  void ReclaimDeadAncestors(CapId cap);

  // Emits the unmap/detach + cleanup effects for one deactivated cap.
  void EmitRevokeEffects(const Capability& cap, CapEffects* effects);

  // Shared for queries, exclusive for mutations. Leaf lock: the engine never
  // calls out of itself while holding it.
  mutable std::shared_mutex mu_;

  std::map<CapId, Capability> caps_;
  CapId next_id_ = 1;

  // Per-owner index: the ids of the ACTIVE caps each domain owns, in id
  // order. Ownership is immutable (grants and restores never re-own a node),
  // so an id enters when its cap is minted or re-activated and leaves when
  // the cap is donated or revoked; Restore rebuilds it. This turns the
  // owner-filtered queries (DomainCaps, EffectivePerms, DomainMemoryMap, the
  // purge collection pass) into lookups proportional to what the domain
  // holds now, not to its history. Not part of EngineImage: it is derived
  // state.
  std::map<CapDomainId, std::vector<CapId>> owned_;

  // Unit index: the ids of the ACTIVE non-memory caps on each (kind, unit),
  // in id order. Maintained beside owned_, so unit lookups and unit
  // reference counts read one bucket. A purge drops the bucket of the dead
  // domain's handles, so buckets stay bounded by live units. Derived state.
  std::map<std::pair<ResourceKind, uint64_t>, std::vector<CapId>> units_;

  // Bumped by every change to the active set (and by Restore and moves).
  // The memoized view is valid while view_epoch_ equals it. Readers hold
  // mu_ shared, so the epoch cannot move under them; view_mu_ (a leaf lock
  // under mu_) serializes the reader that rebuilds against the others.
  uint64_t epoch_ = 1;
  mutable std::mutex view_mu_;
  mutable uint64_t view_epoch_ = 0;
  mutable std::vector<RegionView> view_;

  struct DomainInfo {
    CapDomainId creator = kNoCreator;
    bool sealed = false;
  };
  std::map<CapDomainId, DomainInfo> domains_;
};

}  // namespace tyche

#endif  // SRC_CAPABILITY_ENGINE_H_
