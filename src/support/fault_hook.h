// Copyright 2026 The Tyche Reproduction Authors.
// The monitor's one fault-injection hook, and the canonical site names.
//
// Code on the monitor's paths names an injection site in one of two forms:
//  - TYCHE_FAULT_POINT(site) returns the injected Status from the enclosing
//    function (one returning Status or Result<T>);
//  - FaultFires(site) returns true when the site's trigger fires, for a site
//    that CONSUMES the fault (drops a frame, flips a bit) instead of failing.
// While nothing is armed -- always, in production -- either form costs one
// relaxed load of `fault_hook.active` and a predicted-not-taken branch (see
// bench/bench_faults.cc).
//
// Planning, occurrence counting and firing live in the injector
// (src/support/faults.h, library tyche_faults), which the monitor does not
// link. Arming a plan or starting a counting run installs the injector's
// check function here and raises `active`.

#ifndef SRC_SUPPORT_FAULT_HOOK_H_
#define SRC_SUPPORT_FAULT_HOOK_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/support/status.h"

namespace tyche {

// Canonical injection-site names. The sweeps enumerate AllFaultSites()
// (faults.cc); threading a new site through the stack means adding its name
// here and to that list so the sweep picks it up.
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

// All the monitor sees of fault injection. Constant-initialized, so it is
// disarmed before any static constructor can reach a site.
struct FaultHook {
  // True while a plan is armed or occurrences are being counted.
  std::atomic<bool> active{false};
  // Counts one occurrence of `site` and returns the planned error when this
  // occurrence fails. Installed before `active` is first raised.
  std::atomic<Status (*)(std::string_view site)> check{nullptr};
  // Faults delivered over the process lifetime, and the name of the last
  // site that fired (stored before `fired` is bumped, and never freed), for
  // dispatch's flight capture and the scrape.
  std::atomic<uint64_t> fired{0};
  std::atomic<const char*> last_fired_site{nullptr};
};

inline constinit FaultHook fault_hook;

// The slow path of both forms; reached only while `fault_hook.active`.
inline Status FaultCheck(std::string_view site) {
  const auto check = fault_hook.check.load(std::memory_order_acquire);
  return check != nullptr ? check(site) : OkStatus();
}

inline bool FaultFires(std::string_view site) {
  if (fault_hook.active.load(std::memory_order_relaxed)) [[unlikely]] {
    return !FaultCheck(site).ok();
  }
  return false;
}

#define TYCHE_FAULT_POINT(site_expr)                                               \
  do {                                                                             \
    if (::tyche::fault_hook.active.load(std::memory_order_relaxed)) [[unlikely]] { \
      ::tyche::Status _injected_fault = ::tyche::FaultCheck(site_expr);            \
      if (!_injected_fault.ok()) {                                                 \
        return _injected_fault;                                                    \
      }                                                                            \
    }                                                                              \
  } while (0)

}  // namespace tyche

#endif  // SRC_SUPPORT_FAULT_HOOK_H_
