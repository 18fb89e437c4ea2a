// Copyright 2026 The Tyche Reproduction Authors.
// Crash-consistent recovery: snapshot-anchored and fresh-boot Recover(),
// attestation continuity across the crash, re-entrancy under injected
// re-sync faults, journal compaction interplay, and the offline
// snapshot-anchored verifier. The crash-point *sweep* (every record
// boundary) lives in tests/integration/crash_sweep_test.cc; these tests pin
// the semantics at a single, well-understood crash point.

#include "src/monitor/recovery.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/support/faults.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr PciBdf kNic = PciBdf(0, 3, 0);

// A booted machine whose monitor journals with a small checkpoint interval
// and writes snapshots through an in-memory store -- so every test has
// several snapshot-bearing checkpoints to anchor recovery on.
struct RecoveryBed {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Monitor> monitor;
  DomainId os_domain = kInvalidDomain;
  SnapshotStore store;
  std::vector<uint8_t> firmware;
  std::vector<uint8_t> monitor_image;
  Digest golden_firmware;
  Digest golden_monitor;

  static std::unique_ptr<RecoveryBed> Create(IsaArch arch = IsaArch::kX86_64) {
    auto bed = std::make_unique<RecoveryBed>();
    MachineConfig config;
    config.arch = arch;
    config.memory_bytes = 128ull << 20;
    config.num_cores = 4;
    bed->machine = std::make_unique<Machine>(config);
    if (!bed->machine->AddDevice(std::make_unique<DmaEngine>(kNic, "nic0")).ok()) {
      return nullptr;
    }
    bed->firmware = DemoFirmwareImage();
    bed->monitor_image = DemoMonitorImage();
    auto outcome = MeasuredBoot(bed->machine.get(), bed->Params());
    if (!outcome.ok()) {
      return nullptr;
    }
    bed->monitor = std::move(outcome->monitor);
    bed->os_domain = outcome->initial_domain;
    bed->golden_firmware = outcome->firmware_measurement;
    bed->golden_monitor = outcome->monitor_measurement;
    bed->monitor->audit().journal().set_checkpoint_interval(8);
    EXPECT_TRUE(bed->monitor->EnableSnapshots(&bed->store).ok());
    return bed;
  }

  BootParams Params() const {
    BootParams params;
    params.firmware_image = firmware;
    params.monitor_image = monitor_image;
    return params;
  }

  AddrRange Scratch(uint64_t offset, uint64_t size) const {
    return AddrRange{monitor->monitor_range().end() + offset, size};
  }
  CapId MemCap(AddrRange range) const {
    const auto cap = FindMemoryCap(*monitor, os_domain, range);
    return cap.ok() ? *cap : kInvalidCap;
  }
  CapId CoreCap(CoreId core) const {
    const auto cap = FindUnitCap(*monitor, os_domain, ResourceKind::kCpuCore, core);
    return cap.ok() ? *cap : kInvalidCap;
  }
  CapId DeviceCap(PciBdf bdf) const {
    const auto cap =
        FindUnitCap(*monitor, os_domain, ResourceKind::kPciDevice, bdf.value);
    return cap.ok() ? *cap : kInvalidCap;
  }
};

// What the workload leaves behind for the recovered monitor to prove it
// still knows: a sealed enclave with an exclusive device, an unsealed
// worker holding a granted range, and a live cross-domain share.
struct WorkloadState {
  DomainId a = kInvalidDomain;
  CapId a_handle = kInvalidCap;
  DomainId b = kInvalidDomain;
  CapId b_handle = kInvalidCap;
  Digest a_measurement;  // from the pre-crash attestation
};

WorkloadState RunWorkload(RecoveryBed& bed) {
  WorkloadState state;
  Monitor* m = bed.monitor.get();
  const CapRights all{CapRights::kAll};
  const RevocationPolicy obfuscate(RevocationPolicy::kObfuscate);

  const auto a = m->CreateDomain(0, "enclave-a");
  const auto b = m->CreateDomain(0, "worker-b");
  EXPECT_TRUE(a.ok() && b.ok());
  if (!a.ok() || !b.ok()) {
    return state;
  }
  state.a = a->domain;
  state.a_handle = a->handle;
  state.b = b->domain;
  state.b_handle = b->handle;

  // A live share (OS keeps access), a grant that splits remainders, and the
  // NIC moved exclusively to A (attached to A at the crash point).
  const AddrRange window = bed.Scratch(kMiB, 16 * kPageSize);
  EXPECT_TRUE(m->ShareMemory(0, bed.MemCap(window), a->handle, window,
                             Perms(Perms::kRW), all, obfuscate)
                  .ok());
  const AddrRange grant_window = bed.Scratch(4 * kMiB, 8 * kPageSize);
  EXPECT_TRUE(m->GrantMemory(0, bed.MemCap(grant_window), b->handle, grant_window,
                             Perms(Perms::kRW), all, obfuscate)
                  .ok());
  EXPECT_TRUE(m->GrantUnit(0, bed.DeviceCap(kNic), a->handle, all, obfuscate).ok());

  // Give A an executable identity and seal it: the seal record carries the
  // finalized measurement + entry point, so recovery must reproduce both.
  const AddrRange exec_window = bed.Scratch(8 * kMiB, 4 * kPageSize);
  EXPECT_TRUE(m->ShareMemory(0, bed.MemCap(exec_window), a->handle, exec_window,
                             Perms(Perms::kRX), all, obfuscate)
                  .ok());
  EXPECT_TRUE(m->ShareUnit(0, bed.CoreCap(3), a->handle, all, obfuscate).ok());
  EXPECT_TRUE(m->SetEntryPoint(0, a->handle, exec_window.base).ok());
  EXPECT_TRUE(m->ExtendMeasurement(0, a->handle, exec_window).ok());
  EXPECT_TRUE(m->Seal(0, a->handle).ok());

  const auto report = m->AttestDomain(0, a->handle, /*nonce=*/0x1001);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    state.a_measurement = report->measurement;
  }
  // A revocation cascade after the last likely checkpoint, so the replayed
  // suffix exercises cascade records too.
  const AddrRange spare = bed.Scratch(12 * kMiB, 4 * kPageSize);
  const auto shared = m->ShareMemory(0, bed.MemCap(spare), b->handle, spare,
                                     Perms(Perms::kRW), all, obfuscate);
  EXPECT_TRUE(shared.ok());
  if (shared.ok()) {
    EXPECT_TRUE(m->Revoke(0, *shared).ok());
  }
  return state;
}

// The crash: serialize the journal exactly as it stands (no parting
// checkpoint -- a dying monitor cannot sign its own death), drop the
// monitor, and boot a recovery on the same machine from `snapshot_bytes`.
Status CrashAndRecover(RecoveryBed& bed, std::span<const uint8_t> snapshot_bytes) {
  const std::vector<uint8_t> wire = bed.monitor->audit().journal().Serialize();
  auto parsed = Journal::Deserialize(wire);
  if (!parsed.ok()) {
    return parsed.status();
  }
  bed.monitor.reset();
  auto outcome = MeasuredRecovery(bed.machine.get(), bed.Params(), snapshot_bytes, *parsed);
  if (!outcome.ok()) {
    return outcome.status();
  }
  bed.monitor = std::move(outcome->monitor);
  return OkStatus();
}

void ExpectConsistent(Monitor* monitor) {
  const auto consistent = monitor->AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(*consistent) << "hardware diverged from the capability tree";
}

TEST(RecoveryTest, SnapshotPlusSuffixRebuildsTheExactEngine) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  const WorkloadState state = RunWorkload(*bed);
  ASSERT_GE(bed->store.size(), 1u) << "workload never crossed a checkpoint";

  const Digest oracle = EngineDigest(bed->monitor->engine());
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  const Status recovered = CrashAndRecover(*bed, snapshot->bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
  EXPECT_EQ(bed->monitor->stats().recoveries, 1u);
  EXPECT_EQ(bed->monitor->audit().journal().EventCount(JournalEvent::kRecovery), 1u);

  // The domain table survived: A is still the sealed enclave it was.
  const auto domain_a = bed->monitor->GetDomain(state.a);
  ASSERT_TRUE(domain_a.ok());
  EXPECT_TRUE((*domain_a)->sealed());
  EXPECT_EQ((*domain_a)->measurement, state.a_measurement);
  const auto domain_b = bed->monitor->GetDomain(state.b);
  ASSERT_TRUE(domain_b.ok());
  EXPECT_FALSE((*domain_b)->sealed());

  // The monitor keeps working and its journal keeps verifying: new records
  // extend the restored chain under the same key.
  EXPECT_TRUE(bed->monitor->CreateDomain(0, "post-crash").ok());
  const std::string graph_json = ExportCapabilityGraphJson(bed->monitor->engine());
  const Status verified = RemoteVerifier::VerifyJournal(
      bed->monitor->ExportJournal(), bed->monitor->public_key(), &graph_json);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

TEST(RecoveryTest, TelemetryResetsButTheRecoveryIsMarked) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  // One ABI-dispatched call so the trace ring (which records Dispatch()
  // crossings, not direct monitor calls) has something to lose.
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kCreateDomain);
  EXPECT_EQ(Dispatch(bed->monitor.get(), 0, regs).error, 0u);
  EXPECT_GT(bed->monitor->stats().TotalCalls(), 0u);
  EXPECT_FALSE(bed->monitor->telemetry().ring().Snapshot().empty());

  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(CrashAndRecover(*bed, snapshot->bytes).ok());

  // Counters and the trace ring restart -- a post-recovery dump must never
  // mix epochs -- but the recovery itself is marked, and the journal (which
  // IS durable) still carries the full history.
  const Monitor& after = *bed->monitor;
  EXPECT_EQ(after.stats().TotalCalls(), 0u);
  EXPECT_EQ(after.stats().recoveries, 1u);
  EXPECT_TRUE(after.telemetry().ring().Snapshot().empty());
  EXPECT_EQ(after.telemetry().ring().recorded(), 0u);
  EXPECT_GT(after.audit().journal().size(), 0u);
}

TEST(RecoveryTest, RecoveryResetsThePhaseProfiler) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  bed->monitor->profiler().set_enabled(true);
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kCreateDomain);
  EXPECT_EQ(Dispatch(bed->monitor.get(), 0, regs).error, 0u);
  const DispatchProfiler& profiler = bed->monitor->profiler();
  ASSERT_GT(profiler.TotalSamples(), 0u);

  // Recover in place: the profiler's pre-crash samples, and exemplars that
  // point at trace entries the recovery just cleared, must go with them.
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  const auto parsed = Journal::Deserialize(bed->monitor->audit().journal().Serialize());
  ASSERT_TRUE(parsed.ok());
  const Status recovered = bed->monitor->Recover(snapshot->bytes, *parsed);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  EXPECT_EQ(profiler.TotalSamples(), 0u);
  for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      const DispatchProfiler::ExemplarSample exemplar =
          profiler.Exemplar(op, static_cast<DispatchPhase>(p));
      EXPECT_EQ(exemplar.ns, 0u) << "op " << op << " phase " << p;
      EXPECT_EQ(exemplar.span, 0u) << "op " << op << " phase " << p;
      EXPECT_EQ(exemplar.ts_ns, 0u) << "op " << op << " phase " << p;
    }
  }
}

TEST(RecoveryTest, RecoveredMonitorAttestsLikeTheOriginal) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  const WorkloadState state = RunWorkload(*bed);
  const SchnorrPublicKey old_key = bed->monitor->public_key();

  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(CrashAndRecover(*bed, snapshot->bytes).ok());

  // Same image, same machine => same measurement-bound key: old checkpoint
  // signatures verify and new attestations chain to the same identity.
  EXPECT_EQ(bed->monitor->public_key(), old_key);

  // Tier 1: the re-measured boot reproduces the golden PCR values.
  const auto identity = bed->monitor->Identity(/*nonce=*/0x2002);
  ASSERT_TRUE(identity.ok()) << identity.status().ToString();
  const RemoteVerifier verifier(bed->machine->tpm().attestation_key(),
                                bed->golden_firmware, bed->golden_monitor);
  const Status tier1 = verifier.VerifyMonitor(*identity, 0x2002);
  EXPECT_TRUE(tier1.ok()) << tier1.ToString();

  // Tier 2: the recovered monitor re-attests the sealed enclave with the
  // measurement it had before the crash.
  const auto handle = FindUnitCap(*bed->monitor, bed->os_domain,
                                  ResourceKind::kDomain, state.a);
  ASSERT_TRUE(handle.ok());
  const auto report = bed->monitor->AttestDomain(0, *handle, /*nonce=*/0x3003);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->measurement, state.a_measurement);
  const Status tier2 = verifier.VerifyDomain(*report, bed->monitor->public_key(),
                                             0x3003, &state.a_measurement);
  EXPECT_TRUE(tier2.ok()) << tier2.ToString();
}

TEST(RecoveryTest, RecoveryIsIdempotent) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const Digest oracle = EngineDigest(bed->monitor->engine());
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  const auto parsed = Journal::Deserialize(bed->monitor->audit().journal().Serialize());
  ASSERT_TRUE(parsed.ok());

  ASSERT_TRUE(CrashAndRecover(*bed, snapshot->bytes).ok());
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);

  // Recovering again from the very same evidence is a no-op on the state:
  // Recover() stages everything and only commits a verified image.
  const Status again = bed->monitor->Recover(snapshot->bytes, *parsed);
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  EXPECT_EQ(bed->monitor->stats().recoveries, 2u);
  ExpectConsistent(bed->monitor.get());
}

TEST(RecoveryTest, FreshBootRecoveryReplaysTheWholeJournal) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const Digest oracle = EngineDigest(bed->monitor->engine());

  // No snapshot at all: replay from genesis. Slower, same destination.
  const Status recovered = CrashAndRecover(*bed, {});
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
}

TEST(RecoveryTest, EmptyJournalRecoversToABareBoot) {
  // A monitor that crashed before its first journal record (or whose journal
  // medium was lost) recovers to exactly the installed-initial-domain state.
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  const Digest oracle = EngineDigest(bed->monitor->engine());
  const Status recovered = CrashAndRecover(*bed, {});
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
}

TEST(RecoveryTest, TruncatedJournalRequiresItsAnchoringSnapshot) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const Digest oracle = EngineDigest(bed->monitor->engine());

  // Compact away the prefix behind the newest snapshot-bearing checkpoint.
  Journal& journal = bed->monitor->audit().journal();
  const auto checkpoints = journal.Checkpoints();
  const JournalCheckpoint* anchor = nullptr;
  for (const JournalCheckpoint& checkpoint : checkpoints) {
    if (checkpoint.snapshot != Digest{}) {
      anchor = &checkpoint;
    }
  }
  ASSERT_NE(anchor, nullptr);
  const uint64_t anchor_seq = anchor->seq;
  ASSERT_TRUE(journal.TruncateBefore(anchor_seq).ok());
  const auto snapshot = bed->store.LatestAtOrBefore(anchor_seq);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->seq, anchor_seq);

  const std::vector<uint8_t> wire = journal.Serialize();
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  BootParams params = bed->Params();
  bed->monitor.reset();

  // Without the anchoring snapshot there is nothing to replay onto.
  const auto without = MeasuredRecovery(bed->machine.get(), params, {}, *parsed);
  ASSERT_FALSE(without.ok());
  EXPECT_EQ(without.status().code(), ErrorCode::kFailedPrecondition);

  // With it, the compacted journal recovers to the same engine.
  auto outcome = MeasuredRecovery(bed->machine.get(), params, snapshot->bytes, *parsed);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  bed->monitor = std::move(outcome->monitor);
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
}

TEST(RecoveryTest, TamperedSnapshotIsRejectedBeforeTouchingState) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  std::vector<uint8_t> tampered = snapshot->bytes;
  tampered[tampered.size() / 2] ^= 0x01;

  // A flipped bit changes the digest, so no signed checkpoint binds it.
  const Status recovered = CrashAndRecover(*bed, tampered);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.code(), ErrorCode::kJournalSignatureInvalid);
}

TEST(RecoveryTest, ResyncFaultSurfacesTypedErrorAndRetrySucceeds) {
  auto bed = RecoveryBed::Create(IsaArch::kX86_64);
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const Digest oracle = EngineDigest(bed->monitor->engine());
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  const auto parsed = Journal::Deserialize(bed->monitor->audit().journal().Serialize());
  ASSERT_TRUE(parsed.ok());
  bed->monitor.reset();

  // Recover by hand (MeasuredRecovery would discard the half-built monitor)
  // so the retry exercises Recover()'s re-entrancy.
  bed->machine->tpm().Reset();
  auto prepared = PrepareMonitor(bed->machine.get(), bed->Params());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  bed->monitor = std::move(prepared->monitor);
  {
    ScopedFaultPlan scoped(FaultPlan::Single(faults::kVtxCreateContext, 1));
    const Status faulted = bed->monitor->Recover(snapshot->bytes, *parsed);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.code(), DefaultFaultCode(faults::kVtxCreateContext));
  }
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u);

  // Same evidence, no fault: the retry lands on the same engine.
  const Status retried = bed->monitor->Recover(snapshot->bytes, *parsed);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
}

TEST(RecoveryTest, OfflineVerifierAcceptsSnapshotAnchoredJournal) {
  auto bed = RecoveryBed::Create();
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const SchnorrPublicKey key = bed->monitor->public_key();

  // Export checkpoints the tail (the verifier is strict about coverage --
  // this is the "auditor received a journal" path, not the crash path).
  // Anchor the verification on an EARLIER snapshot so a real suffix replays.
  const auto checkpoints = bed->monitor->audit().journal().Checkpoints();
  uint64_t first_anchored = 0;
  bool found = false;
  for (const JournalCheckpoint& checkpoint : checkpoints) {
    if (checkpoint.snapshot != Digest{}) {
      first_anchored = checkpoint.seq;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto snapshot = bed->store.LatestAtOrBefore(first_anchored);
  ASSERT_TRUE(snapshot.ok());
  const std::vector<uint8_t> wire = bed->monitor->ExportJournal();
  const std::string graph_json = ExportCapabilityGraphJson(bed->monitor->engine());

  const Status ok = VerifyJournalWithSnapshot(wire, snapshot->bytes, key, graph_json);
  EXPECT_TRUE(ok.ok()) << ok.ToString();

  // Wrong expected graph: the replay diverges from the claimed state.
  std::string wrong_graph = graph_json;
  ASSERT_FALSE(wrong_graph.empty());
  wrong_graph.back() = wrong_graph.back() == '}' ? ']' : '}';
  const Status divergent = VerifyJournalWithSnapshot(wire, snapshot->bytes, key, wrong_graph);
  ASSERT_FALSE(divergent.ok());
  EXPECT_EQ(divergent.code(), ErrorCode::kJournalReplayDivergence);

  // A snapshot no signed checkpoint binds is refused outright.
  std::vector<uint8_t> unbound = snapshot->bytes;
  unbound[8] ^= 0x40;
  const Status rejected = VerifyJournalWithSnapshot(wire, unbound, key, graph_json);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kJournalSignatureInvalid);

  // A flipped record byte breaks the hash chain.
  std::vector<uint8_t> broken = wire;
  broken[broken.size() / 2] ^= 0x01;
  const Status chain = VerifyJournalWithSnapshot(broken, snapshot->bytes, key, graph_json);
  EXPECT_FALSE(chain.ok());
}

TEST(RecoveryTest, SnapshotStorePrunesWithCompaction) {
  SnapshotStore store;
  for (uint64_t seq : {7ull, 15ull, 23ull}) {
    MonitorSnapshot snapshot;
    snapshot.seq = seq;
    snapshot.bytes = {static_cast<uint8_t>(seq)};
    store.Put(std::move(snapshot));
  }
  EXPECT_EQ(store.size(), 3u);
  const auto mid = store.LatestAtOrBefore(20);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->seq, 15u);
  EXPECT_EQ(store.LatestAtOrBefore(3).status().code(), ErrorCode::kNotFound);

  store.PruneOlderThan(15);
  EXPECT_EQ(store.size(), 2u);
  const auto latest = store.Latest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->seq, 23u);
}

TEST(RecoveryTest, SnapshotStorePruneEdgeCases) {
  SnapshotStore store;
  store.PruneOlderThan(100);  // pruning an empty store is a no-op
  EXPECT_EQ(store.size(), 0u);

  const auto fill = [&store] {
    for (uint64_t seq : {7ull, 15ull, 23ull}) {
      MonitorSnapshot snapshot;
      snapshot.seq = seq;
      snapshot.bytes = {static_cast<uint8_t>(seq)};
      store.Put(std::move(snapshot));
    }
  };

  // Prune-none: every snapshot sits at or after the cutoff.
  fill();
  store.PruneOlderThan(0);
  EXPECT_EQ(store.size(), 3u);
  store.PruneOlderThan(7);  // boundary: seq == cutoff survives (strict <)
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.LatestAtOrBefore(7).ok());
  EXPECT_EQ(store.LatestAtOrBefore(7)->seq, 7u);

  // Boundary between checkpoints: only strictly-older snapshots drop, and
  // LatestAtOrBefore for the pruned range now reports kNotFound.
  store.PruneOlderThan(23);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.LatestAtOrBefore(22).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(store.Latest().ok());
  EXPECT_EQ(store.Latest()->seq, 23u);

  // Prune-all: a cutoff beyond the newest snapshot empties the store...
  store.PruneOlderThan(24);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Latest().status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.LatestAtOrBefore(1000).status().code(), ErrorCode::kNotFound);

  // ...and the store keeps working after being emptied.
  fill();
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.Latest().ok());
  EXPECT_EQ(store.Latest()->seq, 23u);
}

TEST(RecoveryTest, RecoveryWorksOnThePmpBackendToo) {
  auto bed = RecoveryBed::Create(IsaArch::kRiscV);
  ASSERT_NE(bed, nullptr);
  RunWorkload(*bed);
  const Digest oracle = EngineDigest(bed->monitor->engine());
  const auto snapshot = bed->store.Latest();
  ASSERT_TRUE(snapshot.ok());
  const Status recovered = CrashAndRecover(*bed, snapshot->bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(EngineDigest(bed->monitor->engine()), oracle);
  ExpectConsistent(bed->monitor.get());
}

}  // namespace
}  // namespace tyche
