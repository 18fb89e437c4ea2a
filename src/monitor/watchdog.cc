// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/watchdog.h"

#include <string>

#include "src/support/log.h"

namespace tyche {

InvariantWatchdog::InvariantWatchdog(const Journal* journal,
                                     const CapabilityEngine* engine,
                                     FlightRecorder* flight)
    : journal_(journal), engine_(engine), flight_(flight) {
  pos_.head = JournalGenesis();
}

void InvariantWatchdog::Tick(uint64_t n, uint16_t op, uint64_t span) {
  if (dispatches_.fetch_add(1, std::memory_order_relaxed) % n != n - 1) {
    return;
  }
  RunChecks(op, span);
}

void InvariantWatchdog::CheckNow(uint16_t op, uint64_t span) {
  RunChecks(op, span);
}

void InvariantWatchdog::RunChecks(uint16_t op, uint64_t span) {
  std::unique_lock lock(check_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return;  // another thread is mid-check; this tick's turn is forfeit
  }
  checks_.fetch_add(1, std::memory_order_relaxed);

  // 1. Chain-head continuity, incremental from the last verified position.
  //    Sticky: once the chain is broken there is nothing sound to re-anchor
  //    on, and re-verifying would capture the same corpse every N dispatches.
  if (chain_healthy_.load(std::memory_order_relaxed)) {
    const Status chain = journal_->VerifyTail(&pos_);
    if (!chain.ok()) {
      Violation(&chain_healthy_, "journal_chain", op, span, chain.ToString());
    }
  }

  // 2. Per-owner active index vs the lineage map. Sticky for the same
  //    reason.
  if (index_healthy_.load(std::memory_order_relaxed)) {
    const Status index = engine_->CheckOwnedIndex();
    if (!index.ok()) {
      Violation(&index_healthy_, "owned_index", op, span, index.ToString());
    }
  }

  // 3. Backend fail-safe occupancy. TRANSIENT: the fail-safe is designed to
  //    be repaired by a later covering sync, so the gauge recovers when the
  //    count returns to zero. Only the healthy->unhealthy edge captures.
  if (backend_ != nullptr) {
    const uint64_t dirty = backend_->failsafe_active();
    if (dirty == 0) {
      backend_healthy_.store(true, std::memory_order_relaxed);
    } else if (backend_healthy_.load(std::memory_order_relaxed)) {
      Violation(&backend_healthy_, "backend_sync", op, span,
                std::to_string(dirty) + " domain(s) in fail-safe state");
    }
  }
}

void InvariantWatchdog::Violation(std::atomic<bool>* gauge, const char* invariant,
                                  uint16_t op, uint64_t span,
                                  const std::string& detail) {
  gauge->store(false, std::memory_order_relaxed);
  violations_.fetch_add(1, std::memory_order_relaxed);
  TYCHE_LOG(kWarn) << "watchdog: invariant '" << invariant
                   << "' violated (span " << span << "): " << detail;
  if (flight_ != nullptr) {
    flight_->Capture("watchdog", op, span, /*error=*/0,
                     std::string(invariant) + ": " + detail);
  }
}

}  // namespace tyche
