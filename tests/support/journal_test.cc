// Copyright 2026 The Tyche Reproduction Authors.
// Unit tests for the hash-chained audit journal: chain construction and
// verification, tamper/drop/reorder/truncation detection, checkpoint
// signatures, wire round-trips and concurrency.

#include "src/support/journal.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace tyche {
namespace {

SchnorrKeyPair TestKey() {
  const uint8_t seed[] = {'j', 'o', 'u', 'r', 'n', 'a', 'l'};
  return DeriveKeyPair(seed);
}

// Installs TestKey() as the checkpoint signer (Journal owns a mutex, so it
// is configured in place rather than returned from a factory).
void SignWithTestKey(Journal& journal) {
  journal.set_signer(
      [](const Digest& digest) { return SchnorrSign(TestKey(), digest); });
}

JournalRecord Record(JournalEvent event, uint64_t span, uint64_t cap) {
  JournalRecord record;
  record.event = static_cast<uint8_t>(event);
  record.span = span;
  record.cap = cap;
  return record;
}

TEST(JournalTest, AppendAssignsDenseSequenceAndTicks) {
  Journal journal;
  uint64_t tick = 100;
  journal.set_tick_source([&tick] { return tick++; });
  EXPECT_EQ(journal.Append(Record(JournalEvent::kMintMemory, 1, 7)), 0u);
  EXPECT_EQ(journal.Append(Record(JournalEvent::kShareMemory, 1, 8)), 1u);
  const std::vector<JournalRecord> records = journal.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].tick, 100u);
  EXPECT_EQ(records[1].tick, 101u);
  EXPECT_EQ(journal.EventCount(JournalEvent::kMintMemory), 1u);
  EXPECT_EQ(journal.EventCount(JournalEvent::kShareMemory), 1u);
}

TEST(JournalTest, DisabledAppendIsANoOp) {
  Journal journal;
  journal.set_enabled(false);
  EXPECT_EQ(journal.Append(Record(JournalEvent::kRevoke, 1, 1)), Journal::kNoSeq);
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.head(), JournalGenesis());
}

TEST(JournalTest, EmptyJournalVerifies) {
  EXPECT_TRUE(Journal::VerifyChain({}, {}, TestKey().pub).ok());
}

TEST(JournalTest, SignedChainVerifies) {
  Journal journal;
  SignWithTestKey(journal);
  for (int i = 0; i < 5; ++i) {
    journal.Append(Record(JournalEvent::kShareMemory, 1, 10 + i));
  }
  // No auto checkpoint yet (interval 128): the tail is uncovered.
  const Status uncovered =
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub);
  EXPECT_FALSE(uncovered.ok());
  journal.Checkpoint();
  ASSERT_EQ(journal.checkpoint_count(), 1u);
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, AutoCheckpointEveryInterval) {
  Journal journal(/*checkpoint_interval=*/4);
  SignWithTestKey(journal);
  for (int i = 0; i < 8; ++i) {
    journal.Append(Record(JournalEvent::kCascade, 2, i));
  }
  EXPECT_EQ(journal.checkpoint_count(), 2u);
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub).ok());
  // A second explicit checkpoint over the same head is deduplicated.
  journal.Checkpoint();
  EXPECT_EQ(journal.checkpoint_count(), 2u);
}

TEST(JournalTest, MutatedRecordBreaksTheChain) {
  Journal journal(/*checkpoint_interval=*/4);
  SignWithTestKey(journal);
  for (int i = 0; i < 8; ++i) {
    journal.Append(Record(JournalEvent::kShareUnit, 3, i));
  }
  std::vector<JournalRecord> records = journal.Records();
  records[5].cap ^= 1;  // single-bit change in one field
  const Status status = Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("hash chain broken"), std::string::npos);
}

TEST(JournalTest, DroppedRecordIsDetected) {
  Journal journal(/*checkpoint_interval=*/4);
  SignWithTestKey(journal);
  for (int i = 0; i < 8; ++i) {
    journal.Append(Record(JournalEvent::kGrantUnit, 4, i));
  }
  std::vector<JournalRecord> records = journal.Records();
  records.erase(records.begin() + 2);
  EXPECT_FALSE(Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, ReorderedRecordsAreDetected) {
  Journal journal(/*checkpoint_interval=*/4);
  SignWithTestKey(journal);
  for (int i = 0; i < 8; ++i) {
    journal.Append(Record(JournalEvent::kRestore, 5, i));
  }
  std::vector<JournalRecord> records = journal.Records();
  std::swap(records[1], records[6]);
  EXPECT_FALSE(Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, TailTruncationIsDetected) {
  Journal journal;
  SignWithTestKey(journal);
  for (int i = 0; i < 6; ++i) {
    journal.Append(Record(JournalEvent::kRevoke, 6, i));
  }
  journal.Checkpoint();
  std::vector<JournalRecord> records = journal.Records();
  records.pop_back();  // drop the newest record; checkpoint now dangles
  const Status status = Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("checkpoint beyond the last record"), std::string::npos);
}

TEST(JournalTest, ForgedCheckpointSignatureIsRejected) {
  Journal journal;
  SignWithTestKey(journal);
  journal.Append(Record(JournalEvent::kSealDomain, 7, 0));
  journal.Checkpoint();
  std::vector<JournalCheckpoint> checkpoints = journal.Checkpoints();
  ASSERT_EQ(checkpoints.size(), 1u);
  checkpoints[0].signature.s ^= 1;
  EXPECT_FALSE(Journal::VerifyChain(journal.Records(), checkpoints, TestKey().pub).ok());
  // And a valid signature under the WRONG key is equally useless.
  const uint8_t other_seed[] = {'o', 't', 'h', 'e', 'r'};
  const SchnorrKeyPair other = DeriveKeyPair(other_seed);
  EXPECT_FALSE(Journal::VerifyChain(journal.Records(), journal.Checkpoints(), other.pub).ok());
}

TEST(JournalTest, SerializeRoundTrip) {
  Journal journal(/*checkpoint_interval=*/3);
  SignWithTestKey(journal);
  for (int i = 0; i < 10; ++i) {
    JournalRecord record = Record(JournalEvent::kGrantMemory, 8, 20 + i);
    record.domain = 1;
    record.dst = 2;
    record.base = 0x1000 * i;
    record.size = 0x1000;
    record.aux = i;
    journal.Append(record);
  }
  journal.Checkpoint();
  const std::vector<uint8_t> wire = journal.Serialize();
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->records.size(), journal.size());
  ASSERT_EQ(parsed->checkpoints.size(), journal.checkpoint_count());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    EXPECT_EQ(parsed->records[i].cap, journal.Records()[i].cap);
    EXPECT_EQ(parsed->records[i].link, journal.Records()[i].link);
  }
  EXPECT_TRUE(
      Journal::VerifyChain(parsed->records, parsed->checkpoints, TestKey().pub).ok());
}

TEST(JournalTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Journal::Deserialize(std::vector<uint8_t>{}).ok());
  EXPECT_FALSE(Journal::Deserialize(std::vector<uint8_t>{'T', 'Y', 'J', 'L'}).ok());
  std::vector<uint8_t> wrong_magic(64, 0xab);
  EXPECT_FALSE(Journal::Deserialize(wrong_magic).ok());

  Journal journal;
  SignWithTestKey(journal);
  journal.Append(Record(JournalEvent::kMintUnit, 9, 1));
  journal.Checkpoint();
  std::vector<uint8_t> wire = journal.Serialize();
  wire.resize(wire.size() / 2);  // truncated mid-record
  EXPECT_FALSE(Journal::Deserialize(wire).ok());
}

TEST(JournalTest, DeserializeRejectsCountsBeyondRemainingBytes) {
  // A record is 118 bytes on the wire (86 canonical + 32 link) and a
  // checkpoint 112, so a header may claim at most remaining / 118 records.
  // One more must be refused before anything is reserved, not discovered
  // later as a truncated record.
  Journal journal;
  for (int i = 0; i < 3; ++i) {
    journal.Append(Record(JournalEvent::kShareMemory, 1, 10 + i));
  }
  const std::vector<uint8_t> wire = journal.Serialize();
  constexpr size_t kHeader = 24;  // magic, version, two counts
  ASSERT_EQ(wire.size(), kHeader + 3 * 118);
  const uint64_t remaining = wire.size() - kHeader;
  const auto with_counts = [&wire](uint64_t records, uint64_t checkpoints) {
    std::vector<uint8_t> out = wire;
    for (int i = 0; i < 8; ++i) {
      out[8 + i] = static_cast<uint8_t>(records >> (8 * i));
      out[16 + i] = static_cast<uint8_t>(checkpoints >> (8 * i));
    }
    return out;
  };
  const auto claims = [&](uint64_t records, uint64_t checkpoints) {
    return Journal::Deserialize(with_counts(records, checkpoints)).status().message();
  };
  EXPECT_NE(claims(remaining / 118 + 1, 0).find("implausible"), std::string::npos)
      << claims(remaining / 118 + 1, 0);
  EXPECT_NE(claims(0, remaining / 112 + 1).find("implausible"), std::string::npos);
  EXPECT_NE(claims(3, 1).find("implausible"), std::string::npos);
  EXPECT_NE(claims(~0ull, ~0ull).find("implausible"), std::string::npos);
  EXPECT_TRUE(Journal::Deserialize(with_counts(3, 0)).ok());
}

// splitmix64: a fixed, dependency-free stream for the pinned chain below.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(JournalTest, VariedChainHeadAndWireBytesArePinned) {
  // 1 000 records with every field varied, signed checkpoints every 128
  // records and one at the tail: the head and the digest of the whole wire
  // image were recorded once and must never change, whatever the encoder or
  // hash implementation underneath. Wire version 3 changed only the version
  // word: written back to 2, the image hashes to the digest recorded for v2.
  Journal journal;
  SignWithTestKey(journal);
  uint64_t tick = 5000;
  journal.set_tick_source([&tick] { return tick += 3; });
  uint64_t state = 14;
  for (int i = 0; i < 1000; ++i) {
    JournalRecord record;
    const uint64_t a = NextRandom(&state);
    const uint64_t b = NextRandom(&state);
    record.span = a >> 40;
    record.event = static_cast<uint8_t>(a % static_cast<uint64_t>(JournalEvent::kEventCount));
    record.op = static_cast<uint8_t>(a >> 8);
    record.domain = static_cast<uint32_t>(b);
    record.dst = static_cast<uint32_t>(b >> 32);
    record.resource = static_cast<uint8_t>(a >> 16);
    record.perms = static_cast<uint8_t>(a >> 24);
    record.rights = static_cast<uint8_t>(a >> 32);
    record.policy = static_cast<uint8_t>(b >> 16);
    record.cap = NextRandom(&state);
    record.parent = NextRandom(&state);
    record.base = NextRandom(&state);
    record.size = NextRandom(&state);
    record.result = i % 7 == 0 ? NextRandom(&state) : 0;
    record.aux = NextRandom(&state);
    journal.Append(record);
  }
  journal.Checkpoint();
  const std::vector<uint8_t> wire = journal.Serialize();
  EXPECT_EQ(wire.size(), 24u + 1000 * 118 + journal.checkpoint_count() * 112);
  EXPECT_EQ(journal.head().ToHex(),
            "e63bf88c74ed90daa27148902db783c84ee650a7b97896378a51a58ee4398f6b");
  EXPECT_EQ(Sha256::Hash(wire).ToHex(),
            "50c71c1c7ec3e3bdafe6acc4f429f4f20588d27a1b0f987fc85bced5a3844f25");
  constexpr size_t kVersionOffset = 4;  // after the 4-byte magic, little-endian u32
  ASSERT_EQ(wire[kVersionOffset], 3u);
  std::vector<uint8_t> as_v2 = wire;
  as_v2[kVersionOffset] = 2;
  EXPECT_EQ(Sha256::Hash(as_v2).ToHex(),
            "8df60ef4d4e1c37446b7fc87e42ecc7529149ba21db86c9d88ff3e69dd89f48a");
  EXPECT_FALSE(Journal::Deserialize(as_v2).ok());  // v2 images are refused
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, ConcurrentAppendsKeepTheChainConsistent) {
  Journal journal(/*checkpoint_interval=*/64);
  SignWithTestKey(journal);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Record(JournalEvent::kCascade, t + 1, i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(journal.size(), static_cast<size_t>(kThreads * kPerThread));
  journal.Checkpoint();
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, ConcurrentGroupsStayContiguous) {
  Journal journal(/*checkpoint_interval=*/64);
  SignWithTestKey(journal);
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;  // each: one group of kGroup, then one single
  constexpr size_t kGroup = 5;
  std::vector<std::vector<uint64_t>> group_seqs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, &group_seqs, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<JournalRecord> group;
        for (size_t k = 0; k < kGroup; ++k) {
          group.push_back(Record(JournalEvent::kCascade, t + 1, round * kGroup + k));
        }
        group_seqs[t].push_back(journal.AppendGroup(group));
        journal.Append(Record(JournalEvent::kRevoke, t + 1, round));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const std::vector<JournalRecord> records = journal.Records();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(group_seqs[t].size(), static_cast<size_t>(kRounds));
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t first = group_seqs[t][round];
      ASSERT_LE(first + kGroup, records.size());
      for (size_t k = 0; k < kGroup; ++k) {
        const JournalRecord& record = records[first + k];
        EXPECT_EQ(record.seq, first + k);
        EXPECT_EQ(record.span, static_cast<uint64_t>(t + 1));
        EXPECT_EQ(record.event, static_cast<uint8_t>(JournalEvent::kCascade));
        EXPECT_EQ(record.cap, round * kGroup + k);
      }
    }
  }
  journal.Checkpoint();
  EXPECT_TRUE(
      Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub).ok());

  // One batch per call, each call's records counted once.
  const Journal::GroupCommitStats stats = journal.group_commit_stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kThreads * kRounds * 2));
  EXPECT_EQ(stats.batched_records, journal.size());
  EXPECT_EQ(journal.size(), kThreads * kRounds * (kGroup + 1));
  EXPECT_EQ(stats.max_batch, kGroup);
}

TEST(JournalTest, ClearResetsToGenesis) {
  Journal journal(/*checkpoint_interval=*/2);
  SignWithTestKey(journal);
  for (int i = 0; i < 4; ++i) {
    journal.Append(Record(JournalEvent::kRevoke, 10, i));
  }
  journal.Clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.checkpoint_count(), 0u);
  EXPECT_EQ(journal.head(), JournalGenesis());
  EXPECT_EQ(journal.EventCount(JournalEvent::kRevoke), 0u);
}

// Installs a snapshot provider that returns a fixed fake digest, so tests
// can create checkpoints eligible as truncation anchors.
Digest FakeSnapshotDigest() {
  Digest digest;
  digest.bytes[0] = 0x5a;
  digest.bytes[31] = 0xa5;
  return digest;
}

TEST(JournalTest, CheckpointBindsSnapshotDigestIntoSignature) {
  Journal journal;
  SignWithTestKey(journal);
  journal.set_snapshot_provider([](uint64_t) { return FakeSnapshotDigest(); });
  journal.Append(Record(JournalEvent::kMintMemory, 20, 1));
  journal.Checkpoint();
  std::vector<JournalCheckpoint> checkpoints = journal.Checkpoints();
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_EQ(checkpoints[0].snapshot, FakeSnapshotDigest());
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), checkpoints, TestKey().pub).ok());
  // The signature covers the snapshot digest: swapping it in is detected.
  checkpoints[0].snapshot.bytes[0] ^= 1;
  const Status status =
      Journal::VerifyChain(journal.Records(), checkpoints, TestKey().pub);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kJournalSignatureInvalid);
}

TEST(JournalTest, SnapshotRoundTripsThroughTheWireFormat) {
  Journal journal;
  SignWithTestKey(journal);
  journal.set_snapshot_provider([](uint64_t) { return FakeSnapshotDigest(); });
  journal.Append(Record(JournalEvent::kMintMemory, 21, 1));
  journal.Checkpoint();
  const auto parsed = Journal::Deserialize(journal.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->checkpoints.size(), 1u);
  EXPECT_EQ(parsed->checkpoints[0].snapshot, FakeSnapshotDigest());
}

// Builds a 10-record signed journal with a snapshot-bearing checkpoint at
// seq 5 and a covering checkpoint at the tail.
void BuildCompactable(Journal& journal) {
  SignWithTestKey(journal);
  journal.set_snapshot_provider([](uint64_t) { return FakeSnapshotDigest(); });
  for (int i = 0; i < 6; ++i) {
    journal.Append(Record(JournalEvent::kShareMemory, 22, 100 + i));
  }
  journal.Checkpoint();  // anchor at seq 5, carries the snapshot digest
  for (int i = 6; i < 10; ++i) {
    journal.Append(Record(JournalEvent::kShareMemory, 22, 100 + i));
  }
  journal.Checkpoint();  // covers the tail (seq 9)
}

TEST(JournalTest, TruncateBeforeCompactsAndStillVerifies) {
  Journal journal;
  BuildCompactable(journal);
  const Digest head_before = journal.head();
  ASSERT_TRUE(journal.TruncateBefore(5).ok());
  EXPECT_EQ(journal.base_seq(), 6u);
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.head(), head_before);  // the chain head is unchanged
  // Event counts stay cumulative: all 10 shares are still accounted for.
  EXPECT_EQ(journal.EventCount(JournalEvent::kShareMemory), 10u);
  const std::vector<JournalRecord> records = journal.Records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().seq, 6u);
  // The truncated journal verifies: the anchor checkpoint at seq 5 seeds the
  // chain, and the tail checkpoint covers the last record.
  EXPECT_TRUE(
      Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub).ok());
  // New appends continue the same chain.
  journal.Append(Record(JournalEvent::kRevoke, 23, 200));
  journal.Checkpoint();
  EXPECT_EQ(journal.Records().back().seq, 10u);
  EXPECT_TRUE(
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub).ok());
}

TEST(JournalTest, TruncateBeforeRequiresASnapshotAnchor) {
  Journal journal;
  SignWithTestKey(journal);  // no snapshot provider: checkpoints carry none
  for (int i = 0; i < 6; ++i) {
    journal.Append(Record(JournalEvent::kShareMemory, 24, i));
  }
  journal.Checkpoint();
  const Status status = journal.TruncateBefore(5);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  // And a seq without a checkpoint at all is equally rejected.
  Journal with_snapshots;
  BuildCompactable(with_snapshots);
  EXPECT_EQ(with_snapshots.TruncateBefore(3).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(with_snapshots.TruncateBefore(99).code(), ErrorCode::kOutOfRange);
}

TEST(JournalTest, TruncatedJournalWithoutAnchorIsRejected) {
  Journal journal;
  BuildCompactable(journal);
  ASSERT_TRUE(journal.TruncateBefore(5).ok());
  const std::vector<JournalRecord> records = journal.Records();
  std::vector<JournalCheckpoint> checkpoints = journal.Checkpoints();
  // Drop the anchor: the suffix chain has nothing to seed from.
  std::vector<JournalCheckpoint> no_anchor(checkpoints.begin() + 1, checkpoints.end());
  Status status = Journal::VerifyChain(records, no_anchor, TestKey().pub);
  EXPECT_EQ(status.code(), ErrorCode::kJournalChainBroken);
  // Tamper with the anchor's head: its signature no longer matches.
  checkpoints[0].head.bytes[7] ^= 1;
  status = Journal::VerifyChain(records, checkpoints, TestKey().pub);
  EXPECT_EQ(status.code(), ErrorCode::kJournalSignatureInvalid);
  // Re-signing the tampered anchor under a different key fails too: the
  // verifier only trusts the monitor's key.
  const uint8_t other_seed[] = {'e', 'v', 'i', 'l'};
  const SchnorrKeyPair other = DeriveKeyPair(other_seed);
  checkpoints[0].head.bytes[7] ^= 1;  // restore the head
  checkpoints[0].signature = SchnorrSign(
      other, JournalCheckpointDigest(checkpoints[0].seq, checkpoints[0].head,
                                     checkpoints[0].snapshot));
  status = Journal::VerifyChain(records, checkpoints, TestKey().pub);
  EXPECT_EQ(status.code(), ErrorCode::kJournalSignatureInvalid);
}

TEST(JournalTest, UncoveredTailRuleCanBeRelaxedForRecovery) {
  Journal journal;
  SignWithTestKey(journal);
  for (int i = 0; i < 3; ++i) {
    journal.Append(Record(JournalEvent::kGrantMemory, 25, i));
  }
  journal.Checkpoint();
  // Two more records after the last checkpoint: a crash leaves exactly this.
  journal.Append(Record(JournalEvent::kGrantMemory, 25, 3));
  journal.Append(Record(JournalEvent::kGrantMemory, 25, 4));
  const Status strict =
      Journal::VerifyChain(journal.Records(), journal.Checkpoints(), TestKey().pub);
  EXPECT_EQ(strict.code(), ErrorCode::kJournalChainBroken);
  EXPECT_TRUE(Journal::VerifyChain(journal.Records(), journal.Checkpoints(),
                                   TestKey().pub, /*require_covered_tail=*/false)
                  .ok());
}

TEST(JournalTest, RestoreResumesTheChain) {
  Journal journal;
  BuildCompactable(journal);
  const auto parsed = Journal::Deserialize(journal.Serialize());
  ASSERT_TRUE(parsed.ok());

  Journal resumed;
  SignWithTestKey(resumed);
  resumed.Restore(parsed->records, parsed->checkpoints);
  EXPECT_EQ(resumed.size(), journal.size());
  EXPECT_EQ(resumed.head(), journal.head());
  EXPECT_EQ(resumed.checkpoint_count(), journal.checkpoint_count());
  EXPECT_EQ(resumed.EventCount(JournalEvent::kShareMemory), 10u);
  resumed.Append(Record(JournalEvent::kRevoke, 26, 300));
  resumed.Checkpoint();
  EXPECT_TRUE(Journal::VerifyChain(resumed.Records(), resumed.Checkpoints(),
                                   TestKey().pub)
                  .ok());
}

// The record store hands out nodes of a few records each; a journal of
// thousands spans hundreds of them. Compacting it, shipping it and restoring
// it must keep every record, every link and the chain head intact.
TEST(JournalTest, StoreSpanningManyNodesRoundTrips) {
  Journal journal(/*checkpoint_interval=*/500);
  SignWithTestKey(journal);
  journal.set_snapshot_provider([](uint64_t) { return FakeSnapshotDigest(); });
  for (uint64_t i = 0; i < 3001; ++i) {
    journal.Append(Record(static_cast<JournalEvent>(1 + i % 12), 30 + i / 7, i));
  }
  ASSERT_EQ(journal.checkpoint_count(), 6u);  // seqs 499, 999, ..., 2999
  Journal::ChainPosition position{0, JournalGenesis()};
  ASSERT_TRUE(journal.VerifyTail(&position).ok());
  EXPECT_EQ(position.next_seq, 3001u);

  ASSERT_TRUE(journal.TruncateBefore(1499).ok());
  EXPECT_EQ(journal.base_seq(), 1500u);
  EXPECT_EQ(journal.size(), 1501u);
  journal.Append(Record(JournalEvent::kRevoke, 40, 9000));
  ASSERT_TRUE(journal.VerifyTail(&position).ok());
  journal.Checkpoint();
  const std::vector<JournalRecord> records = journal.Records();
  ASSERT_EQ(records.size(), 1502u);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].seq, 1500 + i);
    ASSERT_EQ(records[i].cap, i + 1 < records.size() ? 1500 + i : 9000u);
  }
  EXPECT_EQ(records.back().link, journal.head());
  EXPECT_TRUE(Journal::VerifyChain(records, journal.Checkpoints(), TestKey().pub).ok());

  const std::vector<uint8_t> wire = journal.Serialize();
  EXPECT_EQ(wire, Journal::SerializeParts(records, journal.Checkpoints()));
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(parsed->records[i].link, records[i].link);
  }
  Journal restored(/*checkpoint_interval=*/500);
  SignWithTestKey(restored);
  restored.Restore(parsed->records, parsed->checkpoints);
  EXPECT_EQ(restored.base_seq(), 1500u);
  EXPECT_EQ(restored.size(), records.size());
  EXPECT_EQ(restored.head(), journal.head());
  EXPECT_EQ(restored.Serialize(), wire);
  // Both continue the same chain.
  journal.Append(Record(JournalEvent::kCascade, 41, 9001));
  restored.Append(Record(JournalEvent::kCascade, 41, 9001));
  EXPECT_EQ(restored.head(), journal.head());
  restored.Checkpoint();
  EXPECT_TRUE(
      Journal::VerifyChain(restored.Records(), restored.Checkpoints(), TestKey().pub).ok());
}

}  // namespace
}  // namespace tyche
