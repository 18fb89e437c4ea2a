// Copyright 2026 The Tyche Reproduction Authors.
// Online invariant watchdog (DESIGN.md §6 "Phase attribution & watchdog").
//
// The audit machinery (journal chain verification, owner-index cross-check,
// backend fail-safe flags) existed only as offline tools and test helpers
// until now. This watchdog is its first LIVE use: every N dispatches it
// cheaply re-validates three invariants that silent corruption -- a bug, a
// bit flip, an injected fault -- would otherwise leave undetected until the
// next full audit:
//
//  1. Chain-head continuity: the journal records appended since the last
//     check still hash-chain onto the previously verified head
//     (Journal::VerifyTail). Incremental, so the steady-state cost is
//     proportional to the records appended between checks, not history.
//  2. Owner-index consistency: the engine's per-owner index holds exactly
//     its active caps, and the lineage map holds no revoked node that
//     escaped reclamation (CheckOwnedIndex). O(caps) under the engine's
//     shared lock.
//  3. Backend sync dirtiness: no domain is parked in the backend's fail-safe
//     state (degraded hull / deny-all) -- enforcement is a full projection
//     of the capability tree, not a subset.
//
// Cost model: off (interval 0, the default) the tick is one relaxed load and
// a predicted-not-taken branch. On, the non-Nth tick adds one relaxed
// fetch_add. The Nth tick runs the checks OUTSIDE every dispatch lock --
// only the journal mutex, the engine's shared lock, and one relaxed backend
// load are taken, all leaves in the lock order -- so a slow check delays the
// checking thread only.
//
// Violations flip the per-invariant health gauge to 0, log at kWarn, and
// trigger a flight-recorder capture carrying the span id of the dispatch
// whose tick detected the violation. Chain and index violations are sticky
// (state stays corrupt; re-verifying would re-capture forever); the backend
// gauge recovers when a later successful sync clears the fail-safe.

#ifndef SRC_MONITOR_WATCHDOG_H_
#define SRC_MONITOR_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/capability/engine.h"
#include "src/monitor/backend.h"
#include "src/support/flight_recorder.h"
#include "src/support/journal.h"

namespace tyche {

class InvariantWatchdog {
 public:
  // All sources are borrowed and must outlive the watchdog. `flight` may be
  // null (violations then log but do not capture).
  InvariantWatchdog(const Journal* journal, const CapabilityEngine* engine,
                    FlightRecorder* flight);

  // The backend is installed after construction (the monitor builds it
  // behind a unique_ptr) and may be replaced by recovery.
  void set_backend(const Backend* backend) { backend_ = backend; }

  // Check every `n` dispatches; 0 disables (the default -- the serial hot
  // path pays one relaxed load and a branch).
  void set_interval(uint64_t n) { interval_.store(n, std::memory_order_relaxed); }
  uint64_t interval() const { return interval_.load(std::memory_order_relaxed); }

  // Dispatch-boundary tick. Inline fast path: disabled costs a relaxed load.
  void MaybeTick(uint16_t op, uint64_t span) {
    const uint64_t n = interval_.load(std::memory_order_relaxed);
    if (n == 0) [[likely]] {
      return;
    }
    Tick(n, op, span);
  }

  // Runs every check immediately (tests, shutdown sweeps).
  void CheckNow(uint16_t op, uint64_t span);

  // Health gauges: 1 = invariant holds, 0 = violated. Sampled by
  // Monitor::stats(); libtyche scrapes them as
  // tyche_watchdog_healthy{invariant=...}.
  bool chain_healthy() const { return chain_healthy_.load(std::memory_order_relaxed); }
  bool index_healthy() const { return index_healthy_.load(std::memory_order_relaxed); }
  bool backend_healthy() const {
    return backend_healthy_.load(std::memory_order_relaxed);
  }
  bool healthy() const { return chain_healthy() && index_healthy() && backend_healthy(); }

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }

 private:
  void Tick(uint64_t n, uint16_t op, uint64_t span);
  void RunChecks(uint16_t op, uint64_t span);
  void Violation(std::atomic<bool>* gauge, const char* invariant, uint16_t op,
                 uint64_t span, const std::string& detail);

  const Journal* journal_;
  const CapabilityEngine* engine_;
  const Backend* backend_ = nullptr;
  FlightRecorder* flight_;

  std::atomic<uint64_t> interval_{0};
  std::atomic<uint64_t> dispatches_{0};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<bool> chain_healthy_{true};
  std::atomic<bool> index_healthy_{true};
  std::atomic<bool> backend_healthy_{true};

  // Serializes check runs; concurrent ticks that lose the race skip their
  // check instead of convoying behind it.
  std::mutex check_mu_;
  Journal::ChainPosition pos_;  // guarded by check_mu_
};

}  // namespace tyche

#endif  // SRC_MONITOR_WATCHDOG_H_
