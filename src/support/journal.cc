// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/journal.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "src/crypto/encode.h"
#include "src/support/fault_hook.h"
#include "src/support/profiler.h"
#include "src/support/snapshot.h"

namespace tyche {

namespace {

constexpr char kMagic[4] = {'T', 'Y', 'J', 'L'};
// v2 added a snapshot digest to every checkpoint (and to the signed
// checkpoint statement). v3 retired the per-effect kEffect records: each
// share, grant, revoke and purge record carries its effect list's digest in
// `result`, which replay checks. Older journals are rejected rather than
// silently upgraded: a v1 checkpoint signature does not cover a snapshot
// binding, and a v2 journal's effects carry no digest to check.
constexpr uint32_t kVersion = 3;

// Wire sizes: a record is its canonical bytes plus the link; a checkpoint
// is seq, head, snapshot, and the signature's s and e.
constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordWireBytes = kJournalCanonicalBytes + 32;
constexpr size_t kCheckpointWireBytes = 8 + 32 + 32 + 8 + 32;

// The canonical fields, in order. The encoder, the decoder and the size
// check below all read this one list, so the fixed-size buffers and the
// decoding cannot fall out of step with the encoding.
template <typename Record>  // a JournalRecord, const or not
constexpr auto CanonicalFields(Record&& r) {
  return std::tie(r.seq, r.tick, r.span, r.event, r.op, r.domain, r.dst, r.resource, r.perms,
                  r.rights, r.policy, r.cap, r.parent, r.base, r.size, r.result, r.aux);
}
static_assert(std::apply([](auto... field) { return (sizeof(field) + ...); },
                         CanonicalFields(JournalRecord{})) == kJournalCanonicalBytes,
              "kJournalCanonicalBytes must equal the bytes PutCanonical writes");

// Writes the kJournalCanonicalBytes canonical bytes of `record` at `out`.
uint8_t* PutCanonical(uint8_t* out, const JournalRecord& r) {
  std::apply([&out](auto... field) { ((out = Put(out, field)), ...); }, CanonicalFields(r));
  return out;
}

// The wire format over any record container (the live deque or a vector).
template <typename Records>
std::vector<uint8_t> SerializeWire(const Records& records,
                                   const std::vector<JournalCheckpoint>& checkpoints) {
  std::vector<uint8_t> out(kHeaderBytes + records.size() * kRecordWireBytes +
                           checkpoints.size() * kCheckpointWireBytes);
  uint8_t* at = std::copy(kMagic, kMagic + sizeof(kMagic), out.data());
  at = Put(Put(at, kVersion), static_cast<uint64_t>(records.size()));
  at = Put(at, static_cast<uint64_t>(checkpoints.size()));
  for (const JournalRecord& record : records) {
    at = PutDigest(PutCanonical(at, record), record.link);
  }
  for (const JournalCheckpoint& c : checkpoints) {
    at = Put(PutDigest(PutDigest(Put(at, c.seq), c.head), c.snapshot), c.signature.s);
    at = PutDigest(at, c.signature.e);
  }
  return out;
}

}  // namespace

const char* JournalEventName(JournalEvent event) {
  switch (event) {
    case JournalEvent::kDispatch:
      return "dispatch";
    case JournalEvent::kRegisterDomain:
      return "register_domain";
    case JournalEvent::kSealDomain:
      return "seal_domain";
    case JournalEvent::kMintMemory:
      return "mint_memory";
    case JournalEvent::kMintUnit:
      return "mint_unit";
    case JournalEvent::kShareMemory:
      return "share_memory";
    case JournalEvent::kGrantMemory:
      return "grant_memory";
    case JournalEvent::kShareUnit:
      return "share_unit";
    case JournalEvent::kGrantUnit:
      return "grant_unit";
    case JournalEvent::kRevoke:
      return "revoke";
    case JournalEvent::kCascade:
      return "cascade";
    case JournalEvent::kRestore:
      return "restore";
    case JournalEvent::kPurgeDomain:
      return "purge_domain";
    case JournalEvent::kEffect:
      return "effect";
    case JournalEvent::kOpAbort:
      return "op_abort";
    case JournalEvent::kRecovery:
      return "recovery";
    case JournalEvent::kMigrateOut:
      return "migrate_out";
    case JournalEvent::kMigrateIn:
      return "migrate_in";
    case JournalEvent::kEventCount:
      break;
  }
  return "?";
}

Digest JournalGenesis() { return Sha256::Hash("tyche-journal-genesis-v1"); }

Digest JournalCheckpointDigest(uint64_t seq, const Digest& head,
                               const Digest& snapshot) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-journal-checkpoint-v2"));
  ctx.UpdateValue(seq);
  ctx.Update(std::span<const uint8_t>(head.bytes.data(), head.bytes.size()));
  ctx.Update(std::span<const uint8_t>(snapshot.bytes.data(), snapshot.bytes.size()));
  return ctx.Finalize();
}

Digest ChainLink(const Digest& prev, const JournalRecord& record) {
  // One stack buffer, one one-shot hash: 118 bytes, two compressions.
  uint8_t buf[32 + kJournalCanonicalBytes];
  PutCanonical(PutDigest(buf, prev), record);
  return Sha256::Hash(std::span<const uint8_t>(buf, sizeof(buf)));
}

Journal::Journal(size_t checkpoint_interval)
    : checkpoint_interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval),
      head_(JournalGenesis()) {}

void Journal::set_tick_source(TickSource tick) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_ = std::move(tick);
}

void Journal::set_signer(Signer signer) {
  std::lock_guard<std::mutex> lock(mu_);
  signer_ = std::move(signer);
}

void Journal::set_snapshot_provider(SnapshotProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_provider_ = std::move(provider);
}

void Journal::set_checkpoint_interval(size_t interval) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_interval_ = interval == 0 ? 1 : interval;
}

uint64_t Journal::Append(JournalRecord record) {
  if (!enabled()) {
    return kNoSeq;
  }
  // Dispatch-profiler attribution: ALL journal work reached from a dispatch
  // -- the boundary record, engine-mutation records appended mid-op, and
  // any wait for the chain lock -- lands in the kJournal phase. A bare TLS
  // load when no window is open.
  const ScopedPhase phase(DispatchPhase::kJournal);
  return Commit(&record, 1);
}

uint64_t Journal::AppendGroup(std::span<JournalRecord> records) {
  if (!enabled() || records.empty()) {
    return kNoSeq;
  }
  const ScopedPhase phase(DispatchPhase::kJournal);
  return Commit(records.data(), records.size());
}

// One mu_ acquisition per call: the records extend the chain one at a time
// (AppendOneLocked), so a group's seqs are contiguous and the bytes are
// identical to appending them singly.
uint64_t Journal::Commit(JournalRecord* records, size_t count) {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Already off the fast path: this thread is about to block, so two
    // clock reads attribute the commit wait exactly.
    const uint64_t blocked_at = ProfilerNowNs();
    lock.lock();
    ++wait_stats_.waits;
    wait_stats_.wait_ns += ProfilerNowNs() - blocked_at;
  }
  const uint64_t first_seq = base_seq_ + records_.size();
  for (size_t i = 0; i < count; ++i) {
    AppendOneLocked(&records[i]);
  }
  ++group_stats_.batches;
  group_stats_.batched_records += count;
  group_stats_.max_batch = std::max<uint64_t>(group_stats_.max_batch, count);
  return first_seq;
}

void Journal::AppendOneLocked(JournalRecord* record) {
  record->seq = base_seq_ + records_.size();
  record->tick = tick_ ? tick_() : 0;
  record->link = ChainLink(head_, *record);
  head_ = record->link;
  // Silent-corruption injection for the invariant watchdog: flips a bit in
  // the live chain head the way a memory-corruption bug would, WITHOUT
  // failing the append. Not a canonical sweep site (the sweep expects sites
  // that surface typed errors); see faults::kJournalHeadTamper.
  if (FaultFires(faults::kJournalHeadTamper)) {
    head_.bytes[0] ^= 0x80;
  }
  if (record->event < static_cast<uint8_t>(JournalEvent::kEventCount)) {
    ++event_counts_[record->event];
  }
  records_.push_back(*record);
  if (signer_ && records_.size() % checkpoint_interval_ == 0) {
    CheckpointLocked();
  }
}

Journal::GroupCommitStats Journal::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_stats_;
}

Journal::CommitWaitStats Journal::commit_wait_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wait_stats_;
}

Status Journal::VerifyTail(ChainPosition* pos) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t tail_seq = base_seq_ + records_.size();
  if (pos->next_seq < base_seq_ || pos->next_seq > tail_seq) {
    // Compaction dropped the verified prefix, or Clear()/Restore() rewound
    // the chain under the caller. Re-anchor at the live tail: continuity of
    // the skipped prefix is the offline verifier's job (it has the signed
    // anchor checkpoint; we only have a stale in-memory position).
    pos->next_seq = tail_seq;
    pos->head = head_;
    return OkStatus();
  }
  Digest running = pos->head;
  for (uint64_t seq = pos->next_seq; seq < tail_seq; ++seq) {
    const JournalRecord& record = records_[seq - base_seq_];
    if (record.seq != seq) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: watchdog found seq " + std::to_string(record.seq) +
                       " at index " + std::to_string(seq) + " (drop or reorder)");
    }
    if (ChainLink(running, record) != record.link) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: watchdog found broken link at seq " + std::to_string(seq));
    }
    running = record.link;
  }
  if (!(running == head_)) {
    return Error(ErrorCode::kJournalChainBroken,
                 "journal: watchdog found head/tail mismatch at seq " +
                     std::to_string(tail_seq));
  }
  pos->next_seq = tail_seq;
  pos->head = running;
  return OkStatus();
}

void Journal::CheckpointLocked() {
  if (!signer_ || records_.empty()) {
    return;
  }
  const uint64_t seq = base_seq_ + records_.size() - 1;
  if (!checkpoints_.empty() && checkpoints_.back().seq == seq) {
    return;  // head already covered
  }
  JournalCheckpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.head = head_;
  if (snapshot_provider_) {
    checkpoint.snapshot = snapshot_provider_(seq);
  }
  checkpoint.signature =
      signer_(JournalCheckpointDigest(seq, head_, checkpoint.snapshot));
  checkpoints_.push_back(checkpoint);
}

void Journal::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  CheckpointLocked();
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

size_t Journal::checkpoint_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_.size();
}

Digest Journal::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

uint64_t Journal::base_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_seq_;
}

uint64_t Journal::EventCount(JournalEvent event) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<size_t>(event);
  return index < event_counts_.size() ? event_counts_[index] : 0;
}

std::vector<JournalRecord> Journal::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

std::vector<JournalCheckpoint> Journal::Checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

void Journal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  checkpoints_.clear();
  head_ = JournalGenesis();
  base_seq_ = 0;
  event_counts_ = {};
  group_stats_ = {};
  wait_stats_ = {};
}

Status Journal::TruncateBefore(uint64_t checkpoint_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoint_seq < base_seq_ ||
      checkpoint_seq >= base_seq_ + records_.size()) {
    return Error(ErrorCode::kOutOfRange,
                 "journal: truncate seq " + std::to_string(checkpoint_seq) +
                     " outside held records");
  }
  const JournalCheckpoint* anchor = nullptr;
  for (const JournalCheckpoint& checkpoint : checkpoints_) {
    if (checkpoint.seq == checkpoint_seq) {
      anchor = &checkpoint;
      break;
    }
  }
  if (anchor == nullptr) {
    return Error(ErrorCode::kFailedPrecondition,
                 "journal: no checkpoint at seq " + std::to_string(checkpoint_seq));
  }
  if (anchor->snapshot.IsZero()) {
    // Without a snapshot the dropped prefix would be unrecoverable: nothing
    // could reconstruct the engine state the surviving suffix builds on.
    return Error(ErrorCode::kFailedPrecondition,
                 "journal: checkpoint at seq " + std::to_string(checkpoint_seq) +
                     " carries no snapshot");
  }
  const size_t drop = static_cast<size_t>(checkpoint_seq - base_seq_) + 1;
  records_.erase(records_.begin(), records_.begin() + drop);
  std::vector<JournalCheckpoint> kept;
  for (const JournalCheckpoint& checkpoint : checkpoints_) {
    if (checkpoint.seq >= checkpoint_seq) {
      kept.push_back(checkpoint);  // the anchor itself is kept
    }
  }
  checkpoints_ = std::move(kept);
  base_seq_ = checkpoint_seq + 1;
  // head_ is unchanged: it is the link of the newest record, which survives
  // (or equals the anchor head when everything was compacted away).
  // event_counts_ stay cumulative: they describe the full history.
  return OkStatus();
}

void Journal::Restore(const std::vector<JournalRecord>& records,
                      const std::vector<JournalCheckpoint>& checkpoints) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.assign(records.begin(), records.end());
  checkpoints_ = checkpoints;
  event_counts_ = {};
  for (const JournalRecord& record : records_) {
    if (record.event < static_cast<uint8_t>(JournalEvent::kEventCount)) {
      ++event_counts_[record.event];
    }
  }
  if (!records_.empty()) {
    base_seq_ = records_.front().seq;
    head_ = records_.back().link;
  } else if (!checkpoints_.empty()) {
    base_seq_ = checkpoints_.back().seq + 1;
    head_ = checkpoints_.back().head;
  } else {
    base_seq_ = 0;
    head_ = JournalGenesis();
  }
}

std::vector<uint8_t> Journal::SerializeParts(
    const std::vector<JournalRecord>& records,
    const std::vector<JournalCheckpoint>& checkpoints) {
  return SerializeWire(records, checkpoints);
}

std::vector<uint8_t> Journal::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SerializeWire(records_, checkpoints_);
}

Result<ParsedJournal> Journal::Deserialize(std::span<const uint8_t> bytes) {
  SectionReader reader(bytes);
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error(ErrorCode::kInvalidArgument, "journal: bad magic");
  }
  uint32_t skip_magic = 0;
  (void)reader.Read(&skip_magic);  // consumes the 4 magic bytes
  uint32_t version = 0;
  if (!reader.Read(&version) || version != kVersion) {
    return Error(ErrorCode::kInvalidArgument, "journal: unsupported version");
  }
  uint64_t record_count = 0;
  uint64_t checkpoint_count = 0;
  if (!reader.Read(&record_count) || !reader.Read(&checkpoint_count)) {
    return Error(ErrorCode::kInvalidArgument, "journal: truncated header");
  }
  // Every record and checkpoint has a fixed wire size, so the bytes left
  // bound both counts; reject a header that claims more before reserving.
  if (record_count > reader.remaining() / kRecordWireBytes ||
      checkpoint_count >
          (reader.remaining() - record_count * kRecordWireBytes) / kCheckpointWireBytes) {
    return Error(ErrorCode::kInvalidArgument, "journal: implausible counts");
  }
  ParsedJournal parsed;
  parsed.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    JournalRecord record;
    const bool ok = std::apply([&reader](auto&... field) { return (reader.Read(&field) && ...); },
                               CanonicalFields(record)) &&
                    reader.ReadDigest(&record.link);
    if (!ok) {
      return Error(ErrorCode::kInvalidArgument, "journal: truncated record");
    }
    parsed.records.push_back(record);
  }
  parsed.checkpoints.reserve(checkpoint_count);
  for (uint64_t i = 0; i < checkpoint_count; ++i) {
    JournalCheckpoint checkpoint;
    const bool ok = reader.Read(&checkpoint.seq) && reader.ReadDigest(&checkpoint.head) &&
                    reader.ReadDigest(&checkpoint.snapshot) &&
                    reader.Read(&checkpoint.signature.s) &&
                    reader.ReadDigest(&checkpoint.signature.e);
    if (!ok) {
      return Error(ErrorCode::kInvalidArgument, "journal: truncated checkpoint");
    }
    parsed.checkpoints.push_back(checkpoint);
  }
  if (reader.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "journal: trailing bytes");
  }
  return parsed;
}

Status Journal::VerifyChain(const std::vector<JournalRecord>& records,
                            const std::vector<JournalCheckpoint>& checkpoints,
                            const SchnorrPublicKey& key,
                            bool require_covered_tail) {
  Digest prev = JournalGenesis();
  uint64_t base = 0;
  size_t first_checkpoint = 0;
  if (!records.empty() && records.front().seq != 0) {
    // Compacted journal: the first surviving record must chain off a SIGNED
    // anchor checkpoint at exactly first_seq - 1. Without the signature an
    // attacker could truncate anywhere and invent a matching head.
    base = records.front().seq;
    if (checkpoints.empty() || checkpoints.front().seq != base - 1) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: truncated journal lacks an anchor checkpoint at seq " +
                       std::to_string(base - 1));
    }
    const JournalCheckpoint& anchor = checkpoints.front();
    if (!SchnorrVerify(key,
                       JournalCheckpointDigest(anchor.seq, anchor.head, anchor.snapshot),
                       anchor.signature)) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "journal: anchor checkpoint signature invalid");
    }
    prev = anchor.head;
    first_checkpoint = 1;  // the anchor has no backing record to cross-check
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    if (record.seq != base + i) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: record " + std::to_string(base + i) + " has seq " +
                       std::to_string(record.seq) + " (drop or reorder)");
    }
    if (ChainLink(prev, record) != record.link) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: hash chain broken at seq " + std::to_string(base + i));
    }
    prev = record.link;
  }
  uint64_t last_seq = 0;
  bool have_checkpoint = false;
  for (size_t c = first_checkpoint; c < checkpoints.size(); ++c) {
    const JournalCheckpoint& checkpoint = checkpoints[c];
    if ((have_checkpoint && checkpoint.seq <= last_seq) ||
        (first_checkpoint == 1 && checkpoint.seq <= base - 1)) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoints out of order");
    }
    if (checkpoint.seq < base || checkpoint.seq - base >= records.size()) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoint beyond the last record");
    }
    if (records[checkpoint.seq - base].link != checkpoint.head) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoint head does not match the chain");
    }
    if (!SchnorrVerify(key,
                       JournalCheckpointDigest(checkpoint.seq, checkpoint.head,
                                               checkpoint.snapshot),
                       checkpoint.signature)) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "journal: checkpoint signature invalid");
    }
    last_seq = checkpoint.seq;
    have_checkpoint = true;
  }
  // Freshness / truncation: the tail must be covered by a signature, or an
  // attacker could silently drop the most recent history. Recovery relaxes
  // this (a crashed monitor cannot sign its own death).
  if (require_covered_tail && !records.empty() &&
      (!have_checkpoint || last_seq != base + records.size() - 1)) {
    return Error(ErrorCode::kJournalChainBroken,
                 "journal: tail not covered by a signed checkpoint");
  }
  return OkStatus();
}

}  // namespace tyche
