// Copyright 2026 The Tyche Reproduction Authors.
// The strongest forgery short of a malicious monitor: after records were
// rewritten, recompute every chain link from the first edited record to the
// tail and re-sign each checkpoint at or after it with the monitor's own
// key. The result passes every chain and signature check, so only a
// semantic check (shadow replay) can refuse it. Used by tamper tests and by
// journal_verify's self-test.

#ifndef TOOLS_JOURNAL_RESEAL_H_
#define TOOLS_JOURNAL_RESEAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/support/journal.h"

namespace tyche {

// The monitor's attestation key pair, derived as MeasuredBoot derives it:
// seeded by H(endorsement seed || monitor measurement). Callers check the
// public half against Monitor::public_key(), so a change to the boot-time
// derivation fails loudly here instead of forging under the wrong key.
inline SchnorrKeyPair DeriveMonitorKey(std::span<const uint8_t> endorsement_seed,
                                       const Digest& monitor_measurement) {
  Sha256 seed_ctx;
  seed_ctx.Update(endorsement_seed);
  seed_ctx.Update(std::span<const uint8_t>(monitor_measurement.bytes.data(),
                                           monitor_measurement.bytes.size()));
  const Digest seed = seed_ctx.Finalize();
  return DeriveKeyPair(std::span<const uint8_t>(seed.bytes.data(), seed.bytes.size()));
}

// `records` start at genesis (an uncompacted journal); `from` indexes the
// first edited record. Returns the re-sealed wire image.
inline std::vector<uint8_t> ResealJournal(std::vector<JournalRecord> records, size_t from,
                                          std::vector<JournalCheckpoint> checkpoints,
                                          const SchnorrKeyPair& key) {
  Digest prev = from == 0 ? JournalGenesis() : records[from - 1].link;
  for (size_t i = from; i < records.size(); ++i) {
    records[i].link = ChainLink(prev, records[i]);
    prev = records[i].link;
  }
  for (JournalCheckpoint& checkpoint : checkpoints) {
    if (checkpoint.seq < from || checkpoint.seq >= records.size()) {
      continue;
    }
    checkpoint.head = records[checkpoint.seq].link;
    checkpoint.signature = SchnorrSign(
        key, JournalCheckpointDigest(checkpoint.seq, checkpoint.head, checkpoint.snapshot));
  }
  return Journal::SerializeParts(records, checkpoints);
}

}  // namespace tyche

#endif  // TOOLS_JOURNAL_RESEAL_H_
