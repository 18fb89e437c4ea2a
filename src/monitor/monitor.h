// Copyright 2026 The Tyche Reproduction Authors.
// The isolation monitor (§3): the executive branch. It validates policies
// expressed by ANY domain through a narrow API, projects them onto hardware
// through a platform backend, mediates all inter-domain control transfers,
// and signs attestations under a key bound to its own measurement.
//
// Deliberately NOT here (§3.5): resource management, device emulation,
// scheduling, high-level abstractions. The monitor never chooses which
// resources a domain gets -- it only validates grant / share / revoke
// operations issued by the current holders.

#ifndef SRC_MONITOR_MONITOR_H_
#define SRC_MONITOR_MONITOR_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/capability/engine.h"
#include "src/hw/machine.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/backend.h"
#include "src/monitor/domain.h"
#include "src/monitor/watchdog.h"
#include "src/support/flight_recorder.h"
#include "src/support/profiler.h"
#include "src/support/status.h"
#include "src/support/telemetry.h"

namespace tyche {

class SnapshotStore;  // recovery.h

// The narrow API surface (every external entry point of the monitor).
// Exposed as an enum for dispatch cost accounting and TCB-surface metrics.
enum class ApiOp : uint8_t {
  kCreateDomain = 0,
  kSetEntryPoint,
  kShareMemory,
  kGrantMemory,
  kShareUnit,
  kGrantUnit,
  kRevoke,
  kExtendMeasurement,
  kSeal,
  kAttestDomain,
  kEnumerate,
  kTransition,
  kReturn,
  kRegisterFastTransition,
  kFastTransition,
  kDestroyDomain,
  kRouteInterrupt,
  kTakeInterrupt,
  kSetTransitionPolicy,
  kSealData,
  kUnsealData,
  kOpCount,  // sentinel
};

const char* ApiOpName(ApiOp op);

struct CreateDomainResult {
  DomainId domain = kInvalidDomain;
  CapId handle = kInvalidCap;  // management capability held by the creator
};

// Result of a grant: the recipient's capability plus the capabilities
// covering the pieces of the source range the grantor keeps.
struct GrantResult {
  CapId granted = kInvalidCap;
  std::vector<CapId> remainders;
};

// The monitor's one stats sample (Monitor::stats()): typed values, no
// names. The first block is the monitor's own striped counters, summed on
// read; the rest is read from the subsystems that own each signal at sample
// time. libtyche's MonitorMetrics (src/tyche/observe.h) names the sample as
// metric families; histograms and exemplars stay behind their own typed
// accessors (telemetry().OpHistogram, profiler().PhaseSnapshot/Exemplar).
struct MonitorStats {
  uint64_t api_calls[static_cast<size_t>(ApiOp::kOpCount)] = {};
  uint64_t transitions = 0;
  uint64_t fast_transitions = 0;
  uint64_t revocations_cascaded = 0;
  // Crash recoveries survived. The ONLY counter that crosses a Recover():
  // everything else is reset so post-recovery dumps never mix epochs.
  uint64_t recoveries = 0;

  // Capability-engine events: successful policy mutations...
  uint64_t shares = 0;       // ShareMemory + ShareUnit
  uint64_t grants = 0;       // GrantMemory + GrantUnit
  uint64_t revokes = 0;      // explicit Revoke calls that cascaded
  // ...and the hardware obligations they produced, by effect kind
  // (indexed by CapEffect::Kind: map/unmap/zero/flush/attach/detach).
  static constexpr size_t kEffectKinds = 6;
  uint64_t effects_by_kind[kEffectKinds] = {};

  // The platform backend: its name ("vtx", "pmp"), what it did, and how
  // many domains sit in its fail-safe state.
  const char* backend_name = "";
  BackendStats backend;
  uint64_t backend_failsafe_active = 0;
  // The audit journal: chain length, signed checkpoints, commits and the
  // appends that blocked on the chain lock.
  uint64_t journal_records = 0;
  uint64_t journal_checkpoints = 0;
  Journal::GroupCommitStats journal_commits;
  Journal::CommitWaitStats journal_commit_waits;
  // The trace ring, and conditional-guard contention by lock class.
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  uint64_t lock_contention_exclusive = 0;
  uint64_t lock_contention_shared = 0;
  uint64_t lock_wait_ns_exclusive = 0;
  uint64_t lock_wait_ns_shared = 0;
  uint64_t lock_wait_ns_shard = 0;
  // Live state: domains, and capabilities by state (every node is active
  // or donated, since revoked nodes are reclaimed).
  uint64_t domains_alive = 0;
  uint64_t caps_active = 0;
  uint64_t caps_donated = 0;
  uint64_t flight_captures = 0;
  uint64_t profiler_samples = 0;
  // The invariant watchdog: per-invariant health and its totals.
  bool watchdog_chain_healthy = true;
  bool watchdog_index_healthy = true;
  bool watchdog_backend_healthy = true;
  uint64_t watchdog_checks = 0;
  uint64_t watchdog_violations = 0;

  uint64_t TotalCalls() const {
    uint64_t total = 0;
    for (const uint64_t count : api_calls) {
      total += count;
    }
    return total;
  }

  uint64_t TotalEffects() const {
    uint64_t total = 0;
    for (const uint64_t count : effects_by_kind) {
      total += count;
    }
    return total;
  }
};

// The monitor's own stat counters live in one array of StripedCounters
// (the first block of MonitorStats); these are their indices. The flight
// recorder's deltas carry them and libtyche names them (MonitorCounterName).
// The order is the scrape's -- families by name, then series -- so deltas
// come out in scrape order.
inline constexpr size_t kStatApiCalls = 0;  // + ApiOp
inline constexpr size_t kStatShares = kStatApiCalls + static_cast<size_t>(ApiOp::kOpCount);
inline constexpr size_t kStatGrants = kStatShares + 1;
inline constexpr size_t kStatRevokes = kStatGrants + 1;
inline constexpr size_t kStatEffects = kStatRevokes + 1;  // + CapEffect::Kind
inline constexpr size_t kStatRecoveries = kStatEffects + MonitorStats::kEffectKinds;
inline constexpr size_t kStatRevocationsCascaded = kStatRecoveries + 1;
inline constexpr size_t kStatTransitions = kStatRevocationsCascaded + 1;
inline constexpr size_t kStatFastTransitions = kStatTransitions + 1;
inline constexpr size_t kStatCounters = kStatFastTransitions + 1;

class Monitor {
 public:
  // Construction happens through MeasuredBoot() (boot.h); the constructor is
  // public only for the boot sequence and tests.
  Monitor(Machine* machine, AddrRange monitor_range, FrameAllocator metadata_pool,
          SchnorrKeyPair key);

  Machine* machine() { return machine_; }
  const CapabilityEngine& engine() const { return engine_; }
  Backend& backend() { return *backend_; }
  // The one stats sample. Safe against concurrent dispatchers: quiesces
  // them via api_mu_ for the read only, since backend stats and the domain
  // table are plain fields.
  MonitorStats stats() const;
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }
  FlightRecorder& flight_recorder() { return flight_; }
  const FlightRecorder& flight_recorder() const { return flight_; }
  // Kill switch for the stat counters, mirroring the telemetry switches so
  // bench_telemetry can cost the counters themselves. Disabling freezes the
  // stats() counter values; production leaves it on.
  void set_counters_enabled(bool enabled) {
    counters_on_.store(enabled, std::memory_order_relaxed);
  }
  bool counters_enabled() const { return counters_on_.load(std::memory_order_relaxed); }
  AuditJournal& audit() { return audit_; }
  const AuditJournal& audit() const { return audit_; }
  // Per-op × per-phase dispatch profiler (DESIGN.md §6). Off by default;
  // bench_profile gates the enabled-mode overhead.
  DispatchProfiler& profiler() { return profiler_; }
  const DispatchProfiler& profiler() const { return profiler_; }
  // Online invariant watchdog. EnableWatchdog(N) checks every N dispatches;
  // 0 (the default) keeps the tick to one relaxed load on the hot path.
  InvariantWatchdog& watchdog() { return watchdog_; }
  const InvariantWatchdog& watchdog() const { return watchdog_; }
  void EnableWatchdog(uint64_t interval) { watchdog_.set_interval(interval); }
  const SchnorrPublicKey& public_key() const { return key_.pub; }
  // DH shared secret between this monitor's attestation key and a peer's
  // public key. Both sides derive the same value, so a verifier that has
  // completed one full two-tier verification can resume later sessions with
  // an epoch-bound MAC instead of repeating the chain walk (DESIGN.md §13).
  Digest SessionSecret(const SchnorrPublicKey& peer) const {
    return DhSharedSecret(key_.priv, peer);
  }
  const AddrRange& monitor_range() const { return monitor_range_; }

  // Called once by the boot sequence: registers the initial domain (the
  // commodity OS) and endows it with every resource the monitor does not
  // keep for itself.
  Result<DomainId> InstallInitialDomain(const std::string& name);

  // ===== The isolation API (§3.2). All calls execute on behalf of the
  // domain currently running on `core` and charge the trap cost. =====

  // --- Domain lifecycle ---
  Result<CreateDomainResult> CreateDomain(CoreId core, const std::string& name);
  Status SetEntryPoint(CoreId core, CapId domain_handle, uint64_t entry);
  // Hashes the *current* content of `range` (which must be accessible to the
  // target domain) into the target's rolling measurement.
  Status ExtendMeasurement(CoreId core, CapId domain_handle, AddrRange range);
  // Freezes the resource set and finalizes the measurement with the
  // configuration hash.
  Status Seal(CoreId core, CapId domain_handle);
  // Tears the domain down: revokes all its capabilities (running their
  // revocation policies), destroys backend state. Fails while the domain is
  // running on any core.
  Status DestroyDomain(CoreId core, CapId domain_handle);

  // --- Resource policies ---
  Result<CapId> ShareMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                            AddrRange sub, Perms perms, CapRights rights,
                            RevocationPolicy policy);
  Result<GrantResult> GrantMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                  AddrRange sub, Perms perms, CapRights rights,
                                  RevocationPolicy policy);
  Result<CapId> ShareUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                          CapRights rights, RevocationPolicy policy);
  Result<CapId> GrantUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                          CapRights rights, RevocationPolicy policy);
  Status Revoke(CoreId core, CapId cap);

  // --- Attestation (tier 2) ---
  Result<DomainAttestation> AttestDomain(CoreId core, CapId domain_handle, uint64_t nonce);
  // A sealed domain attests itself (enclave-style).
  Result<DomainAttestation> AttestSelf(CoreId core, uint64_t nonce);
  Result<std::vector<ResourceClaim>> Enumerate(CoreId core, CapId domain_handle);

  // --- Transitions ---
  // Trap-mediated switch to the target domain on this core. The target must
  // hold a capability for the core and have a fixed entry point.
  Status Transition(CoreId core, CapId domain_handle);
  // Return to the domain that transitioned here.
  Status ReturnFromDomain(CoreId core);
  // Pre-arms the hardware fast path (VMFUNC EPTP list) for target on core.
  Status RegisterFastTransition(CoreId core, CapId domain_handle);
  // Hardware fast switch: no monitor trap, ~100 cycles (§4.1).
  Status FastTransition(CoreId core, DomainId target);
  Status FastReturn(CoreId core);

  // --- Interrupt routing (§4.1 "cross-domain interrupt routing") ---
  // Routes the interrupts of a device the caller EXCLUSIVELY owns to the
  // caller. Routing follows ownership: when the device capability moves,
  // the route is torn down.
  Status RouteInterrupt(CoreId core, CapId device_cap);
  // Takes the calling domain's next pending interrupt (kNotFound if none).
  Result<Interrupt> TakeInterrupt(CoreId core);

  // --- Side-channel mitigation policy (§4.1) ---
  // When enabled, every monitor-mediated exit from the target domain scrubs
  // the core's micro-architectural state; the unmediated fast path becomes
  // unavailable for it.
  Status SetTransitionPolicy(CoreId core, CapId domain_handle, bool scrub_on_exit);

  // --- Sealed storage ---
  // Encrypts `data` under a key derived from (monitor identity, caller's
  // measurement): only the SAME code, attested by the SAME monitor, can
  // unseal -- across domain instances and reboots of the same image. The
  // caller must be sealed (its measurement must be final). This is how the
  // SaaS scenario's crypto engine persists the customer key.
  Result<std::vector<uint8_t>> SealData(CoreId core, std::span<const uint8_t> data);
  Result<std::vector<uint8_t>> UnsealData(CoreId core, std::span<const uint8_t> blob);

  // ===== Judiciary support =====

  // Tier-1 identity material (boot quote fetched fresh with the nonce).
  Result<MonitorIdentity> Identity(uint64_t nonce) const;

  // Self-audit: is every hardware enforcement structure a projection of the
  // capability tree? (Invariant 5 in DESIGN.md.)
  Result<bool> AuditHardwareConsistency();

  // --- Introspection (tests, benches, examples) ---
  // Checkpoints and serializes the audit journal (wire format for
  // VerifyJournal in src/tyche/verifier.h / tools/journal_verify).
  std::vector<uint8_t> ExportJournal() { return audit_.Export(); }

  // --- Causal spans ---
  // Dispatch() brackets every ABI call in a span; direct monitor calls (as
  // tests and examples make) get a fresh root span per call instead.
  uint64_t BeginSpan(CoreId core);
  void EndSpan(CoreId core);

  Result<const TrustDomain*> GetDomain(DomainId id) const;
  DomainId CurrentDomain(CoreId core) const;
  std::vector<RegionView> MemoryView() const { return engine_.MemoryView(); }
  uint64_t num_domains_alive() const;

  // Set by the boot sequence so Identity() can report boot measurements.
  void SetBootMeasurements(const Digest& firmware, const Digest& monitor_image) {
    firmware_measurement_ = firmware;
    monitor_measurement_ = monitor_image;
  }

  // ===== Crash recovery (implemented in recovery.cc; DESIGN.md §8) =====

  // Binds `store` into the journal's checkpoint path: every signed
  // checkpoint captures the monitor's durable state into the store and binds
  // its digest into the checkpoint signature. Costs nothing on the dispatch
  // fast path — the provider only runs when a checkpoint is signed. Fails
  // with kFailedPrecondition while concurrent dispatch is live: the provider
  // runs under the journal lock and reads monitor state, which would invert
  // the lock order against a concurrent dispatcher (the mirror of
  // EnableConcurrentDispatch refusing while snapshots are bound).
  [[nodiscard]] Status EnableSnapshots(SnapshotStore* store);

  // Serializes the durable state (engine image, domain table, id allocators,
  // measurements) into a hash-committed snapshot (src/support/snapshot.h).
  std::vector<uint8_t> CaptureSnapshot() const;

  // Rebuilds this monitor from a snapshot plus the journal that extends it,
  // then re-syncs all hardware and resumes the journal chain. The journal
  // must verify (anchored chain + signatures; the tail-coverage rule is
  // relaxed — a crashed monitor cannot sign its own death). An empty
  // snapshot span means fresh-boot recovery: replay the whole journal from
  // genesis. Re-entrant: a Recover() that fails mid-way (e.g. an injected
  // re-sync fault) can simply be called again.
  Status Recover(std::span<const uint8_t> snapshot_bytes, const ParsedJournal& journal);

  // Rebuilds every hardware enforcement structure from the capability
  // engine: fresh backend, per-domain contexts, memory sync, device
  // reconciliation, core bindings. This is the degraded-hull / deny-all
  // self-repair path lifted to first class: after it succeeds, hardware is a
  // projection of the capability tree again.
  Status ResyncAll();

  // ===== Concurrent dispatch (DESIGN.md §10) =====

  // Switches the monitor into concurrent mode: Dispatch() brackets every ABI
  // call in the api reader-writer lock (shared for the read-mostly ops,
  // exclusive for graph mutations and transitions), and per-domain shard
  // locks order config mutations within the shared class. Stat counters are
  // striped in both modes, so they need no switch. Contract: while
  // concurrent mode is on, concurrent callers must enter through Dispatch()
  // — direct Monitor method calls remain serial-only. Fails with
  // kFailedPrecondition when snapshots are bound (the snapshot provider runs
  // under the journal lock and reads monitor state, which would invert the
  // lock order against a concurrent dispatcher) or while a migration holds a
  // domain frozen.
  Status EnableConcurrentDispatch();
  // Back to serial mode. Callers must quiesce dispatch threads first.
  void DisableConcurrentDispatch();
  bool concurrent_dispatch() const {
    return concurrent_.load(std::memory_order_relaxed);
  }

  // ===== Live migration (implemented in migration.cc; DESIGN.md §11) =====

  // True while `id` is frozen by an in-flight migration. Frozen domains
  // reject every operation (as caller or as handle target) with kMigrating
  // so the untrusted OS degrades gracefully instead of observing partial
  // state. Only mutated by MigrateDomain() in serial mode, so the
  // unsynchronized read is safe: frozen_ is always empty while concurrent
  // dispatch is live (the two modes exclude each other).
  bool domain_frozen(DomainId id) const { return frozen_.contains(id); }
  bool migration_in_progress() const { return !frozen_.empty(); }
  // The dispatch-level lock. Taken by Dispatch() around the WHOLE call —
  // including the guest-memory reads/writes some ops do outside the monitor
  // methods — so EPT mutations by exclusive ops cannot race them.
  std::shared_mutex& api_mu() { return api_mu_; }

 private:
  // Resolves the caller: the domain currently running on `core`.
  Result<DomainId> Caller(CoreId core) const;
  // Validates a domain-handle capability: active, owned by `caller`, kind
  // kDomain, with kManage. Returns the target domain id.
  Result<DomainId> ResolveHandle(DomainId caller, CapId handle, bool require_manage) const;
  Result<TrustDomain*> GetDomainMutable(DomainId id);

  // The span the journal attributes work on `core` to: the active dispatch
  // span when inside Dispatch(), else a fresh root span.
  uint64_t SpanForCore(CoreId core);

  // Refuses (kFailedPrecondition) while `domain` runs on a core or waits on
  // a transition stack: such a domain can be neither destroyed nor migrated.
  Status CheckNotScheduled(DomainId domain) const;
  // Purges `target` from the engine and journals the purge. When the purge
  // aborts mid-cascade, the per-root revokes that did commit are journaled
  // and projected, and the error comes back with the domain still
  // registered.
  Result<RevokeOutcome> PurgeJournaled(uint64_t span, DomainId target);
  // The commit half of a teardown (destroy, or a migrated domain's source
  // side): projects the purge's effects (none when `purged` failed), destroys
  // the backend context and interrupt routes, and marks the domain dead. The
  // first failure is returned, and marked by an abort record naming `op` and
  // `requester`.
  Status CommitTeardown(uint64_t span, ApiOp op, DomainId requester, DomainId target,
                        const Result<RevokeOutcome>& purged);

  // The one share/grant step behind ShareMemory, GrantMemory, ShareUnit and
  // GrantUnit: charges the call, resolves the caller and the destination
  // handle, runs the engine, journals the record, applies the effects (or
  // rolls the transfer back when they fail) and counts the success.
  Result<DelegationOutcome> Delegate(CoreId core, CapId dst_domain_handle,
                                     const Delegation& request);

  // Applies an effect list produced by the capability engine to hardware.
  // The list is journaled as a digest in the record of the operation that
  // produced it, not here.
  Status ApplyEffects(const CapEffects& effects);
  // Re-binds a shared device: attached iff exactly one domain holds it.
  Status ReconcileDevice(uint64_t bdf);

  Status ChargeCall(ApiOp op);
  uint64_t TrapCost() const;

  // Stat-counter bump (`index` is a kStat* constant). Striped cells make
  // this safe in both serial and concurrent mode; the flag is the bench
  // kill switch (see set_counters_enabled).
  void Count(size_t index, uint64_t delta = 1) {
    if (counters_on_.load(std::memory_order_relaxed)) {
      counters_[index].Add(delta);
    }
  }

  // Per-domain shard lock: orders config mutations (entry point, measurement,
  // seal, transition policy) against attestation reads within the shared
  // dispatch class. Locked AFTER api_mu_, BEFORE the engine lock.
  std::shared_mutex& ShardFor(DomainId id) const {
    return domain_shards_[id % kDomainShards].mu;
  }

  // Applies the scrub-on-exit policy when execution leaves `leaving`.
  void ScrubOnExitIfRequested(DomainId leaving, CoreId core);

  Result<DomainAttestation> BuildAttestation(DomainId target, uint64_t nonce);
  // The key SealData and UnsealData use for `domain`: bound to the monitor's
  // identity and the domain's final measurement.
  Digest SealingKey(const TrustDomain& domain) const;

  Machine* machine_;
  AddrRange monitor_range_;
  FrameAllocator metadata_pool_;
  SchnorrKeyPair key_;
  CapabilityEngine engine_;
  std::unique_ptr<Backend> backend_;

  std::map<DomainId, TrustDomain> domains_;
  DomainId next_domain_ = 0;
  uint16_t next_asid_ = 1;

  // Per-core transition stack (who to return to).
  std::vector<std::vector<DomainId>> call_stacks_;

  Digest firmware_measurement_;
  Digest monitor_measurement_;
  Digest sealing_root_;  // derived from the monitor's identity key
  // Per-boot unique AEAD nonces. Atomic because SealData runs in the shared
  // dispatch class: two concurrent seals must never reuse a nonce.
  std::atomic<uint64_t> seal_nonce_{1};

  // The live stat counters, indexed by the kStat* constants; stats() sums
  // them into MonitorStats.
  std::array<StripedCounter, kStatCounters> counters_;
  std::atomic<bool> counters_on_{true};
  Telemetry telemetry_{static_cast<size_t>(ApiOp::kOpCount)};
  // Post-mortem ring: snapshots trace tail + counter deltas on dispatch
  // errors, fault-site triggers, and recovery. Borrows telemetry_'s ring and
  // counters_, so it is declared after both.
  FlightRecorder flight_{&telemetry_.ring(), counters_};
  AuditJournal audit_;
  // Storage is lazily allocated on first enable.
  DispatchProfiler profiler_{static_cast<size_t>(ApiOp::kOpCount)};
  // Borrows the journal, engine, and flight recorder declared above; the
  // backend pointer is installed by the constructor (and re-installed by
  // recovery) since backend_ is rebuilt behind its unique_ptr.
  InvariantWatchdog watchdog_{&audit_.journal(), &engine_, &flight_};
  std::atomic<uint64_t> next_span_{1};
  std::vector<uint64_t> active_spans_;  // per-core; 0 = no dispatch in flight

  // --- Live migration state (DESIGN.md §11) ---
  // Domains frozen by an in-flight MigrateDomain(). Cleared on commit,
  // rollback, and Recover() (a crash mid-migration is an implicit rollback:
  // the source journal carries no handoff record until the commit stage).
  std::set<DomainId> frozen_;
  // The migration protocol lives outside the Monitor class (migration.cc)
  // but needs the same staged-commit access Recover() has.
  friend class MigrationInternal;

  // --- Concurrent dispatch state (DESIGN.md §10) ---
  std::atomic<bool> concurrent_{false};
  bool snapshots_bound_ = false;  // EnableSnapshots was called
  // Lock order, strictly downward: api_mu_ -> domain shard -> engine lock ->
  // journal locks.
  mutable std::shared_mutex api_mu_;
  static constexpr size_t kDomainShards = 8;
  struct alignas(64) DomainShard {
    std::shared_mutex mu;
  };
  mutable std::array<DomainShard, kDomainShards> domain_shards_;
};

}  // namespace tyche

#endif  // SRC_MONITOR_MONITOR_H_
