// Copyright 2026 The Tyche Reproduction Authors.
// Live migration & failover of attested domains (DESIGN.md §11).
//
// A sealed domain is moved from a source monitor to a destination monitor
// through a staged commit:
//
//   freeze    -- quiesce the domain on the source: every operation by or on
//                it now fails typed with kMigrating; preconditions (sealed,
//                not running, exclusively owned resources) are checked here.
//   capture   -- serialize the domain's slice of engine + hardware state
//                into a hash-committed payload, bind it to the source's
//                measured identity with a Schnorr signature, and ship the
//                source's checkpointed journal alongside as provenance.
//   transfer  -- hand the payload to an untrusted carrier, called exactly
//                once, which returns the bytes the destination receives.
//                The monitor owns no wire protocol (libtyche's MigrateOver,
//                src/tyche/channel.h, frames and re-sends), and a carrier
//                that corrupts, truncates or withholds the payload only
//                makes restore refuse it.
//   restore   -- the destination verifies everything it can (container
//                commitment, binding signature, journal chain, shadow-replay
//                cross-check) and stages the adoption on a COPY of its
//                engine; the live monitor is untouched.
//   resync    -- the staged engine is swapped in and the destination's
//                hardware is rebuilt from it (ResyncAll); failure swaps the
//                kept pre-image back.
//   commit    -- handoff records are journaled on both sides (kMigrateOut
//                binding the payload digest on the source, kMigrateIn
//                binding the same digest plus the source record's chain link
//                on the destination) and the source purges the domain.
//
// Any failure before commit rolls back to the source: the destination
// restores its pre-image, the source unfreezes the domain and journals an
// abort. The source journal carries a handoff record ONLY for committed
// migrations, so a crash mid-migration is an implicit rollback (Recover()
// clears the frozen set). VerifyJournalSplice (src/tyche/verifier.h) checks
// offline that the two journals splice into one verifiable history.

#ifndef SRC_MONITOR_MIGRATION_H_
#define SRC_MONITOR_MIGRATION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/monitor/monitor.h"

namespace tyche {

// Moves the payload from the source to the destination and returns what
// arrived. Untrusted: restore verifies every byte it returns. The digest is
// the one both handoff records bind, passed so a carrier can derive
// per-migration state (a retry schedule's seed) without hashing the payload
// again. An error rolls the migration back to the source.
using MigrationCarrier = std::function<Result<std::vector<uint8_t>>(
    std::span<const uint8_t> payload, const Digest& payload_digest)>;

struct MigrationReport {
  DomainId dest_domain = kInvalidDomain;  // id adopted on the destination
  Digest payload_digest;                  // what both handoff records bind
  uint64_t payload_bytes = 0;             // captured payload size
};

// Migrates `domain` from `source` to `dest`. Both monitors must be in serial
// dispatch mode; the domain must be sealed, idle (not on any core or
// transition stack), not the initial domain, and must own every one of its
// resources exclusively. `source_key` authenticates the payload on the
// destination -- in the failover deployment both monitors boot the same
// measured image, so this is source->public_key() and key continuity is what
// makes the migrated domain's attestation verify unchanged. `carrier` is
// called exactly once, between capture and restore.
Result<MigrationReport> MigrateDomain(Monitor* source, Monitor* dest,
                                      DomainId domain,
                                      const MigrationCarrier& carrier,
                                      const SchnorrPublicKey& source_key);

// Test-only hooks: freeze / unfreeze a domain exactly as the protocol does.
// The freeze window is otherwise synchronous inside MigrateDomain(), so the
// kMigrating rejection paths (and the concurrent-dispatch exclusion against
// an in-flight migration) would be unobservable from a test.
void FreezeDomainForTest(Monitor* monitor, DomainId domain);
void UnfreezeDomainForTest(Monitor* monitor, DomainId domain);

}  // namespace tyche

#endif  // SRC_MONITOR_MIGRATION_H_
