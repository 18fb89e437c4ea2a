// Copyright 2026 The Tyche Reproduction Authors.
// Deterministic fault injection for the monitor's robustness tests.
//
// A FaultPlan names a set of injection sites and the occurrence at which each
// one fails (1-based: "the Nth time site S is reached, return error E").
// Sites are threaded through the hardware backends, the allocators, and the
// crypto layer via TYCHE_FAULT_POINT; when no plan is armed the hook costs a
// single relaxed atomic load and a predicted-not-taken branch, so production
// dispatch latency is unaffected (see bench/bench_faults.cc).
//
// Two modes beyond "armed":
//  - counting: every site reached increments a per-site counter without ever
//    failing. The sweep test uses this to learn how many occurrences a
//    workload produces, then replays the workload with the trigger set to the
//    first / middle / last occurrence of each site.
//  - seeded: FaultPlan::FromSeed derives one (site, occurrence) choice from a
//    PRNG seed and the observed counts, for randomized soak runs whose seed
//    is logged and replayable.

#ifndef SRC_SUPPORT_FAULTS_H_
#define SRC_SUPPORT_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace tyche {

// Canonical injection-site names. Tests enumerate AllFaultSites(); threading a
// new TYCHE_FAULT_POINT through the stack means adding its name here so the
// sweep picks it up.
namespace faults {
// Hardware substrate.
inline constexpr std::string_view kFrameAlloc = "hw.frame_alloc";
inline constexpr std::string_view kIommuAttach = "hw.iommu_attach";
// OS-side physical range allocator.
inline constexpr std::string_view kRangeAlloc = "os.range_alloc";
// Crypto layer (sealed-storage open path).
inline constexpr std::string_view kAeadOpen = "crypto.aead_open";
// VT-x / EPT backend.
inline constexpr std::string_view kVtxCreateContext = "vtx.create_context";
inline constexpr std::string_view kVtxSyncMemory = "vtx.sync_memory";
inline constexpr std::string_view kVtxAttachDevice = "vtx.attach_device";
inline constexpr std::string_view kVtxDetachDevice = "vtx.detach_device";
inline constexpr std::string_view kVtxBindCore = "vtx.bind_core";
// RISC-V PMP backend.
inline constexpr std::string_view kPmpCreateContext = "pmp.create_context";
inline constexpr std::string_view kPmpRecompile = "pmp.recompile";
inline constexpr std::string_view kPmpBindCore = "pmp.bind_core";
inline constexpr std::string_view kPmpSyncDevice = "pmp.sync_device";
inline constexpr std::string_view kPmpAttachDevice = "pmp.attach_device";
inline constexpr std::string_view kPmpDetachDevice = "pmp.detach_device";
// Capability engine: one per-root revoke inside a domain purge.
inline constexpr std::string_view kEnginePurgeRevoke = "engine.purge_revoke";
// Live-migration protocol stages (src/monitor/migration.cc). Each stage is a
// first-class site so the migration sweep can kill a migration at every
// point of the staged commit and assert rollback-to-source (or, after the
// commit point, completion on the destination).
inline constexpr std::string_view kMigrateFreeze = "migrate.freeze";
inline constexpr std::string_view kMigrateCapture = "migrate.capture";
inline constexpr std::string_view kMigrateTransfer = "migrate.transfer";
inline constexpr std::string_view kMigrateRestore = "migrate.restore";
inline constexpr std::string_view kMigrateResync = "migrate.resync";
inline constexpr std::string_view kMigrateCommit = "migrate.commit";
// Simulated lossy channel (src/tyche/channel.h LossyChannel). The transport
// CONSUMES these faults to lose / duplicate / delay a frame instead of
// surfacing them, so they exercise the retry/timeout/backoff path; the
// migration only fails if retries are exhausted.
inline constexpr std::string_view kChannelDrop = "channel.drop";
inline constexpr std::string_view kChannelDup = "channel.dup";
inline constexpr std::string_view kChannelReorder = "channel.reorder";
// Attestation-fleet sites (src/fleet/). node_crash is CONSUMED by a
// MonitorNode to stop serving mid-pump (the failure manifests to clients as
// timeouts, then breaker-driven failover); verify_timeout is CONSUMED by the
// front end to blackhole one in-flight response; breaker_probe is CONSUMED
// to fail a half-open recovery probe; cache_poison is CONSUMED by a node to
// flip one byte of an outbound serialized report (the defense under test:
// the poisoned report must fail verification and never enter the cache);
// queue_overflow SURFACES as kOverloaded from admission.
inline constexpr std::string_view kFleetNodeCrash = "fleet.node_crash";
inline constexpr std::string_view kFleetVerifyTimeout = "fleet.verify_timeout";
inline constexpr std::string_view kFleetBreakerProbe = "fleet.breaker_probe";
inline constexpr std::string_view kFleetCachePoison = "fleet.cache_poison";
inline constexpr std::string_view kFleetQueueOverflow = "fleet.queue_overflow";
// batch_forge flips one byte of one report inside a batched drain: the
// defense under test is that batch verification's per-signature fallback
// attributes the forgery to the culprit while the rest of the batch is
// still served.
inline constexpr std::string_view kFleetBatchForge = "fleet.batch_forge";

// Silent-corruption sites for the invariant watchdog (src/monitor/watchdog.h).
// Deliberately NOT in AllFaultSites(): the sweep enumerates sites that
// surface typed errors through the normal paths, while these flip internal
// state without failing the operation -- exactly the class of bug only the
// online watchdog can catch.
inline constexpr std::string_view kJournalHeadTamper = "journal.head_tamper";
inline constexpr std::string_view kEngineOwnedDesync = "engine.owned_desync";
}  // namespace faults

// Every canonical site, in a stable order, for sweep enumeration.
const std::vector<std::string_view>& AllFaultSites();

// The error code a site reports when a plan does not override it. Chosen to
// mirror what the real hardware path would return (PMP exhaustion, IOMMU
// fault, allocator exhaustion, ...), so injected failures exercise the same
// error-handling edges as organic ones.
ErrorCode DefaultFaultCode(std::string_view site);

struct FaultSpec {
  std::string site;
  uint64_t trigger = 1;  // 1-based occurrence at which the site fails.
  ErrorCode code = ErrorCode::kInternal;
  bool repeat = false;  // Fail every occurrence >= trigger, not just one.
};

class FaultPlan {
 public:
  FaultPlan() = default;

  static FaultPlan Single(std::string_view site, uint64_t trigger,
                          ErrorCode code);
  static FaultPlan Single(std::string_view site, uint64_t trigger) {
    return Single(site, trigger, DefaultFaultCode(site));
  }

  // Derives one (site, occurrence) choice from `seed`, uniform over the
  // occurrence counts observed by a counting run. Deterministic: the same
  // seed and counts always produce the same plan.
  static FaultPlan FromSeed(uint64_t seed,
                            const std::map<std::string, uint64_t>& occurrences);

  FaultPlan& Add(FaultSpec spec);
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  std::string ToString() const;

 private:
  std::vector<FaultSpec> specs_;
};

// Process-global injector. Arm/Disarm and counting are mutex-guarded; the
// fast-path `active()` check is a relaxed load so disabled hooks stay free.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms `plan` and resets all per-site occurrence counters.
  void Arm(FaultPlan plan);
  // Disarms and clears counters; safe to call when nothing is armed.
  void Disarm();

  // Observation mode: sites count occurrences but never fail.
  void StartCounting();
  // Returns the per-site counts accumulated since StartCounting.
  std::map<std::string, uint64_t> StopCounting();

  // True when a plan is armed or counting is on. The only code that runs on
  // the production fast path.
  static bool active() { return active_.load(std::memory_order_relaxed); }

  // Slow path, reached only while active: bumps the site counter and returns
  // the planned error if this occurrence should fail.
  Status Check(std::string_view site);

  // Number of faults actually delivered since the last Arm().
  uint64_t fired_count() const;
  // Sites that delivered a fault since the last Arm(), in firing order.
  std::vector<std::string> fired_sites() const;
  // Site occurrences observed in the current window (armed or counting).
  uint64_t total_hits() const;
  // Faults delivered over the process lifetime, across Arm()/Disarm()
  // cycles. This is the counter the monitor's scrape reports: a fleet
  // dashboard wants "has injection ever fired here", not the per-plan view.
  uint64_t lifetime_fired_count() const {
    return lifetime_fired_.load(std::memory_order_relaxed);
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;
  void UpdateActiveLocked();

  static std::atomic<bool> active_;

  std::atomic<uint64_t> lifetime_fired_{0};
  mutable std::mutex mu_;
  bool armed_ = false;
  bool counting_ = false;
  FaultPlan plan_;
  std::map<std::string, uint64_t, std::less<>> hits_;
  std::vector<std::string> fired_;
};

// RAII arm/disarm for tests: guarantees the global injector is quiescent when
// the scope exits, even if an assertion throws.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultInjector::Instance().Arm(std::move(plan));
  }
  ~ScopedFaultPlan() { FaultInjector::Instance().Disarm(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

// Injection hook. Usable in any function returning Status or Result<T>
// (Result has an implicit Status constructor). `site_expr` should be one of
// the faults:: constants above.
#define TYCHE_FAULT_POINT(site_expr)                             \
  do {                                                           \
    if (::tyche::FaultInjector::active()) [[unlikely]] {         \
      ::tyche::Status _injected_fault =                          \
          ::tyche::FaultInjector::Instance().Check(site_expr);   \
      if (!_injected_fault.ok()) {                               \
        return _injected_fault;                                  \
      }                                                          \
    }                                                            \
  } while (0)

}  // namespace tyche

#endif  // SRC_SUPPORT_FAULTS_H_
