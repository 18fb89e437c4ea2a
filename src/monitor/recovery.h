// Copyright 2026 The Tyche Reproduction Authors.
// Crash-consistent monitor recovery (DESIGN.md §8).
//
// The durability story: every engine mutation is journaled AFTER it
// completes, so at any record boundary the live engine state equals the
// replay of the journal prefix up to that record. Signed checkpoints
// periodically bind a hash-committed snapshot of the full monitor state
// (capability lineage tree, refcounts, domain table, id allocators) into
// the chain. A monitor that dies at an arbitrary point is rebuilt by:
//
//   snapshot at checkpoint S  +  journal suffix (S, crash]  →  engine state
//   ResyncAll()                                             →  hardware state
//   measured re-boot of the same image                      →  same key, so
//                                                              the chain and
//                                                              attestation
//                                                              continue
//
// Durable:      the journal, snapshots, sealed-domain measurements + entry
//               points (carried by seal records), domain lifecycle.
// NOT durable:  execution state (core bindings, call stacks — every core
//               restarts in the initial domain), rolling measurement
//               contexts of unsealed domains, unsealed domains' entry
//               points and names set after the last snapshot.

#ifndef SRC_MONITOR_RECOVERY_H_
#define SRC_MONITOR_RECOVERY_H_

#include <span>
#include <vector>

#include "src/monitor/boot.h"
#include "src/support/snapshot.h"

namespace tyche {

// One durable snapshot: serialized bytes plus the journal seq it covers and
// the content digest (what the checkpoint signature binds).
struct MonitorSnapshot {
  uint64_t seq = 0;
  Digest digest;
  std::vector<uint8_t> bytes;
};

// In-memory stand-in for the durable medium snapshots live on (flash, a
// host file). The monitor writes through it at every signed checkpoint once
// EnableSnapshots() is called.
class SnapshotStore {
 public:
  void Put(MonitorSnapshot snapshot);

  // Newest snapshot covering seq <= `seq` (kNotFound if none).
  Result<MonitorSnapshot> LatestAtOrBefore(uint64_t seq) const;
  Result<MonitorSnapshot> Latest() const;
  size_t size() const { return snapshots_.size(); }

  // Drops snapshots older than `seq` (pairs with Journal::TruncateBefore).
  void PruneOlderThan(uint64_t seq);

 private:
  std::vector<MonitorSnapshot> snapshots_;  // ascending seq
};

// Deterministic digest of an engine's complete state. Two engines with the
// same lineage tree, domain table, and id allocator hash identically — the
// crash sweep's equivalence oracle.
Digest EngineDigest(const CapabilityEngine& engine);

// Decodes a snapshot as Recover() does and restores the capability engine it
// carries into `engine`: the base a snapshot-anchored offline replay starts
// from (VerifyJournal in src/tyche/verifier.h).
Status RestoreSnapshotEngine(std::span<const uint8_t> snapshot_bytes, CapabilityEngine* engine);

// Crash-recovery boot: measured-boot steps 1–4 (measure firmware + monitor,
// derive the measurement-bound attestation key) followed by
// Monitor::Recover() instead of InstallInitialDomain(). Because the key is
// derived from the monitor measurement, the SAME image on the SAME machine
// regains the SAME key: old checkpoint signatures verify and new ones
// continue the chain. `snapshot_bytes` may be empty (fresh-boot recovery:
// the whole journal replays from genesis).
Result<BootOutcome> MeasuredRecovery(Machine* machine, const BootParams& params,
                                     std::span<const uint8_t> snapshot_bytes,
                                     const ParsedJournal& journal);

}  // namespace tyche

#endif  // SRC_MONITOR_RECOVERY_H_
