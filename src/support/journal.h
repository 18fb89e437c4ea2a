// Copyright 2026 The Tyche Reproduction Authors.
// Append-only, hash-chained audit journal: observability turned into
// evidence. Every security-relevant monitor event becomes one fixed-shape
// record whose `link` field is SHA-256 over the previous record's link and
// the record's canonical serialization. Periodic checkpoints sign the chain
// head under the monitor's attestation key, so a remote party holding the
// (tier-1 verified) monitor public key can check integrity AND freshness of
// the whole history -- not just the current capability-graph snapshot.
//
// Threat model (see DESIGN.md §6):
//  - Any single-bit mutation of a record breaks that record's link.
//  - Dropping or reordering records breaks the seq/index correspondence and
//    the chain.
//  - Truncating the tail is caught because verification requires the FINAL
//    checkpoint to cover the last record.
//  - Rewriting the whole suffix (mutate + recompute links) is caught by the
//    checkpoint signatures, which an attacker without the monitor's private
//    key cannot re-produce.
//  - What is NOT detected: a malicious *monitor* (it holds the key). The
//    journal makes the monitor auditable, not untrusted.
//
// The journal is deliberately independent of monitor types (like telemetry):
// ops and domains are plain integers, named via callbacks when exporting.
// It lives in its own library (tyche_journal) because it needs SHA-256 and
// Schnorr from src/crypto, which itself links tyche_support.

#ifndef SRC_SUPPORT_JOURNAL_H_
#define SRC_SUPPORT_JOURNAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/support/status.h"

namespace tyche {

// What kind of monitor event a record describes. kDispatch, kOpAbort,
// kRecovery and the migration handoffs are context (skipped by replay);
// everything else is an engine mutation that a shadow capability engine can
// re-apply deterministically. kEffect is retired (wire version 3): its slot
// stays so every other event keeps its number, and replay refuses it.
enum class JournalEvent : uint8_t {
  kDispatch = 0,     // one ABI call crossed Dispatch() (root of a span)
  kRegisterDomain,   // domain registered with the engine
  kSealDomain,       // domain sealed (resource set frozen)
  kMintMemory,       // boot/monitor minted a memory capability
  kMintUnit,         // boot/monitor minted a core/device/handle capability
  kShareMemory,      // duplicate access to a memory sub-range
  kGrantMemory,      // move exclusive control of a memory sub-range
  kShareUnit,        // duplicate a unit capability
  kGrantUnit,        // move a unit capability
  kRevoke,           // explicit revocation (root of a cascade)
  kCascade,          // one capability deactivated by an enclosing cascade
  kRestore,          // revoking a grant returned ownership to the grantor
  kPurgeDomain,      // domain teardown revoked everything it owned
  kEffect,           // retired: effects are a digest in their op's record
  kOpAbort,          // an operation failed mid-flight and was rolled back /
                     // contained; context only (the compensating mutations
                     // are journaled as ordinary records before it)
  kRecovery,         // the monitor recovered from a crash; context only
                     // (aux = the last seq the recovery replayed up to)
  kMigrateOut,       // a domain left this monitor: handoff record binding the
                     // frozen domain's payload digest; context only for
                     // replay (the purge that follows is journaled normally)
  kMigrateIn,        // a domain arrived on this monitor: handoff record
                     // binding the same payload digest; context only (the
                     // adopting mutations are journaled as ordinary records)
  kEventCount,       // sentinel
};

const char* JournalEventName(JournalEvent event);

inline constexpr uint8_t kJournalNoOp = 0xff;     // record not tied to an ApiOp
inline constexpr uint32_t kJournalNoDomain = ~0u;

// One journal record. Fixed shape so the canonical serialization (and hence
// the hash chain) is unambiguous; unused fields stay zero for an event kind.
struct JournalRecord {
  uint64_t seq = 0;    // index in the journal, assigned by Append()
  uint64_t tick = 0;   // monotonic tick (simulated cycles), from the source
  uint64_t span = 0;   // causal span id: all records caused by one root op
  uint8_t event = 0;   // JournalEvent
  uint8_t op = kJournalNoOp;  // ApiOp of the dispatch: on kDispatch and
                              // kOpAbort, the call; on the first record of a
                              // span that names the caller, the call whose
                              // boundary it folds (DESIGN.md §6)
  uint32_t domain = kJournalNoDomain;  // acting / owning domain
  uint32_t dst = kJournalNoDomain;     // destination domain (share/grant)
  uint8_t resource = 0;  // ResourceKind
  uint8_t perms = 0;     // Perms mask (memory)
  uint8_t rights = 0;    // CapRights mask
  uint8_t policy = 0;    // RevocationPolicy mask
  uint64_t cap = 0;      // capability created / revoked by this event
  uint64_t parent = 0;   // source capability (share/grant/restore)
  uint64_t base = 0;     // memory base, or unit id for unit events
  uint64_t size = 0;     // memory size
  uint64_t result = 0;   // ErrorCode (dispatch, abort); effect digest (share,
                         // grant, revoke, purge: PackedEffectsDigest)
  uint64_t aux = 0;      // event-specific: cascade size, remainder count, ...
  Digest link;           // SHA-256(prev_link || canonical record bytes)
};

// A signed statement that the chain head at `seq` was `head`, optionally
// binding the digest of an engine snapshot taken at that point. Verifiable
// against the monitor's attestation public key. A zero snapshot digest means
// "no snapshot was taken here".
struct JournalCheckpoint {
  uint64_t seq = 0;  // sequence number of the last record covered
  Digest head;       // link of that record
  Digest snapshot;   // digest of the engine snapshot at seq (zero = none)
  SchnorrSignature signature;  // over JournalCheckpointDigest(seq, head, snapshot)
};

struct ParsedJournal {
  std::vector<JournalRecord> records;
  std::vector<JournalCheckpoint> checkpoints;
};

// Chain constants, shared by writer and verifier.
Digest JournalGenesis();
Digest JournalCheckpointDigest(uint64_t seq, const Digest& head,
                               const Digest& snapshot = Digest{});

// Size of a record's canonical serialization, EXCLUDING the link field: the
// exact bytes the chain hashes and the wire format carries. Every field in
// declaration order, little-endian, no padding.
inline constexpr size_t kJournalCanonicalBytes = 86;

// link = SHA-256(prev.bytes || canonical record bytes).
Digest ChainLink(const Digest& prev, const JournalRecord& record);

// Thread-safe append-only journal. Each Append() or AppendGroup() call
// takes the chain lock once and assigns seq, tick and link under it, so the
// chain is total-ordered even under concurrent writers and a group's records
// get contiguous seqs.
class Journal {
 public:
  static constexpr size_t kDefaultCheckpointInterval = 128;
  static constexpr uint64_t kNoSeq = ~0ull;

  using TickSource = std::function<uint64_t()>;
  using Signer = std::function<SchnorrSignature(const Digest&)>;
  // Called (under the journal lock) when a checkpoint is about to be signed;
  // returns the digest of a durable engine snapshot covering records up to
  // and including `seq`, or a zero digest to skip snapshotting this one.
  // MUST NOT call back into the Journal (the lock is not recursive).
  using SnapshotProvider = std::function<Digest(uint64_t seq)>;

  explicit Journal(size_t checkpoint_interval = kDefaultCheckpointInterval);

  // Recording switch; Append() is a no-op while disabled. The dispatcher
  // reads this with one relaxed load on its fast path.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_tick_source(TickSource tick);
  // Installing a signer enables checkpoints: one every checkpoint_interval
  // records, plus explicit Checkpoint() calls.
  void set_signer(Signer signer);
  // Installing a snapshot provider binds a snapshot digest into every future
  // checkpoint. Costs nothing on the append fast path: it is only consulted
  // when a checkpoint is actually signed.
  void set_snapshot_provider(SnapshotProvider provider);
  void set_checkpoint_interval(size_t interval);

  // Appends one record, assigning seq, tick, and link. Returns the assigned
  // seq, or kNoSeq when disabled.
  uint64_t Append(JournalRecord record);

  // Appends `records` as one ATOMIC group: the records receive contiguous
  // seqs with no concurrent append interleaving between them. Used for
  // record families with adjacency invariants (a revoke and its cascade /
  // restore records must stay contiguous for replay). Returns the seq of the
  // first record, or kNoSeq when disabled or `records` is empty.
  uint64_t AppendGroup(std::span<JournalRecord> records);

  // Commit counters (cumulative since construction / Clear()). A batch is
  // one Append() or AppendGroup() call: one chain-lock acquisition.
  struct GroupCommitStats {
    uint64_t batches = 0;          // Append/AppendGroup calls that committed
    uint64_t batched_records = 0;  // records appended across all batches
    uint64_t max_batch = 0;        // largest single call, in records
  };
  GroupCommitStats group_commit_stats() const;

  // Commit WAIT attribution: how often an append found the chain lock held
  // and had to block, and the total nanoseconds spent blocked. Measured at
  // the wait itself (contended path only), so journal contention is
  // reported, not inferred from throughput. The dispatch profiler sees the
  // same interval inside its kJournal phase.
  struct CommitWaitStats {
    uint64_t waits = 0;    // appends that blocked on the chain lock
    uint64_t wait_ns = 0;  // total nanoseconds those appends were blocked
  };
  CommitWaitStats commit_wait_stats() const;

  // Incremental online chain verification for the invariant watchdog: the
  // caller carries its last verified position across calls so each check
  // only recomputes links for records appended since.
  struct ChainPosition {
    uint64_t next_seq = 0;  // first record seq not yet verified
    Digest head;            // chain head after the verified prefix; callers
                            // initialize it to JournalGenesis()
  };

  // Recomputes every link in [pos->next_seq, size) off pos->head and checks
  // the running digest equals the live chain head. On success advances *pos
  // to the tail. A position invalidated by compaction, Clear(), or Restore()
  // re-anchors at the current tail without error (the skipped prefix is the
  // offline verifier's job). Returns kJournalChainBroken on any mismatch.
  Status VerifyTail(ChainPosition* pos) const;

  // Signs the current head (no-op when empty, unsigned, or already covered).
  // Exporters call this so the tail is always covered by a signature.
  void Checkpoint();

  size_t size() const;
  size_t checkpoint_count() const;
  Digest head() const;  // genesis when empty
  // Seq of the first record still held in memory (0 until TruncateBefore).
  uint64_t base_seq() const;
  uint64_t EventCount(JournalEvent event) const;
  std::vector<JournalRecord> Records() const;
  std::vector<JournalCheckpoint> Checkpoints() const;
  void Clear();  // drops everything and resets the chain to genesis

  // Compaction: drops every record with seq <= checkpoint_seq and every
  // checkpoint before it. The checkpoint AT checkpoint_seq is kept as the
  // anchor the truncated journal verifies against; it must exist and carry a
  // snapshot digest (otherwise the dropped prefix would be unrecoverable).
  // Event counts stay cumulative across compaction — they describe the full
  // history, not the records currently held.
  Status TruncateBefore(uint64_t checkpoint_seq);

  // Reinstalls a parsed (possibly truncated) journal after recovery so the
  // recovered monitor continues the same chain: recomputes head, base seq,
  // and event counts from the given records. Callers verify the chain first.
  void Restore(const std::vector<JournalRecord>& records,
               const std::vector<JournalCheckpoint>& checkpoints);

  // Wire format: magic, version, counts, then records and checkpoints.
  // Deserialization is hardened against truncation and garbage.
  std::vector<uint8_t> Serialize() const;
  static std::vector<uint8_t> SerializeParts(const std::vector<JournalRecord>& records,
                                             const std::vector<JournalCheckpoint>& checkpoints);
  static Result<ParsedJournal> Deserialize(std::span<const uint8_t> bytes);

  // Offline chain verification: recomputes every link, checks seq/index
  // correspondence, every checkpoint signature, and (by default) that the
  // final checkpoint covers the last record (truncation evidence). A journal
  // compacted with TruncateBefore() starts at seq > 0; it is accepted iff the
  // first checkpoint is a signed anchor at exactly first_seq - 1 whose head
  // seeds the chain. `require_covered_tail=false` relaxes only the tail rule
  // — recovery uses it because a crashed monitor cannot sign its own death.
  static Status VerifyChain(const std::vector<JournalRecord>& records,
                            const std::vector<JournalCheckpoint>& checkpoints,
                            const SchnorrPublicKey& key,
                            bool require_covered_tail = true);

 private:
  void CheckpointLocked();
  void AppendOneLocked(JournalRecord* record);
  uint64_t Commit(JournalRecord* records, size_t count);

  size_t checkpoint_interval_;
  std::atomic<bool> enabled_{true};

  mutable std::mutex mu_;  // guards everything below
  GroupCommitStats group_stats_;
  CommitWaitStats wait_stats_;
  TickSource tick_;
  Signer signer_;
  SnapshotProvider snapshot_provider_;
  // A deque: a written record never moves, so appends pay no regrowth
  // copies and the held log carries no doubling slack.
  std::deque<JournalRecord> records_;
  std::vector<JournalCheckpoint> checkpoints_;
  Digest head_;
  uint64_t base_seq_ = 0;  // seq of records_[0]; nonzero after compaction
  std::array<uint64_t, static_cast<size_t>(JournalEvent::kEventCount)> event_counts_{};
};

}  // namespace tyche

#endif  // SRC_SUPPORT_JOURNAL_H_
