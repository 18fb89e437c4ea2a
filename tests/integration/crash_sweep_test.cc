// Copyright 2026 The Tyche Reproduction Authors.
// The crash-point sweep: the recovery counterpart of the fault sweep.
//
// One clean multi-domain workload runs per backend with snapshots enabled,
// producing the durable evidence a real deployment would hold: the journal
// (every engine mutation journaled AFTER it completed) and the snapshot
// store (one hash-committed snapshot per signed checkpoint). The monitor is
// then "killed" at EVERY journal-record boundary: for each prefix of the
// journal, a fresh machine recovers from (newest snapshot at-or-before the
// boundary, journal prefix) and must be indistinguishable from an uncrashed
// oracle -- the engine digest equals a from-genesis shadow replay of the
// prefix, hardware passes the consistency audit, and the recovered
// monitor's re-exported journal verifies offline against its own graph.
//
// Two more sweeps ride on the same evidence: recovery from every
// snapshot-anchored *compacted* journal (the TruncateBefore shape), and a
// fault sweep over every backend re-sync site inside Recover() itself --
// each injected failure must surface as a typed error and a clean retry
// must land on the oracle state. A seeded soak (TYCHE_FAULT_SEED,
// replayable) samples random (site, occurrence) pairs during recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/support/faults.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr PciBdf kNic = PciBdf(0, 3, 0);
constexpr uint64_t kMemoryBytes = 64ull << 20;
constexpr uint32_t kNumCores = 4;

std::unique_ptr<Machine> MakeMachine(IsaArch arch) {
  MachineConfig config;
  config.arch = arch;
  config.memory_bytes = kMemoryBytes;
  config.num_cores = kNumCores;
  auto machine = std::make_unique<Machine>(config);
  if (!machine->AddDevice(std::make_unique<DmaEngine>(kNic, "nic0")).ok()) {
    return nullptr;
  }
  return machine;
}

// The clean run's durable leftovers: everything recovery is allowed to use.
struct Evidence {
  std::vector<uint8_t> firmware = DemoFirmwareImage();
  std::vector<uint8_t> monitor_image = DemoMonitorImage();
  std::vector<JournalRecord> records;
  std::vector<JournalCheckpoint> checkpoints;
  SnapshotStore store;
  SchnorrPublicKey key;
  size_t boot_records = 0;  // records the boot itself wrote

  BootParams Params() const {
    BootParams params;
    params.firmware_image = firmware;
    params.monitor_image = monitor_image;
    return params;
  }
};

// The workload: two extra domains, a circular share chain, a grant with
// remainders, a device migration there and back, a sealed enclave with a
// transition, and a cascading revocation + teardown of B. Driven through
// Dispatch() so every boundary shape the ABI can journal appears: dispatch
// roots, mutations, cascades, effects, restores.
void RunWorkload(Machine* machine, Monitor* monitor, DomainId os_domain) {
  const auto call = [&](CoreId core, ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0,
                        uint64_t a2 = 0, uint64_t a3 = 0, uint64_t a4 = 0,
                        uint64_t a5 = 0) {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(op);
    regs.arg0 = a0;
    regs.arg1 = a1;
    regs.arg2 = a2;
    regs.arg3 = a3;
    regs.arg4 = a4;
    regs.arg5 = a5;
    const ApiResult result = Dispatch(monitor, core, regs);
    EXPECT_EQ(result.error, 0u) << "workload op " << ApiOpName(op) << " failed: "
                                << ErrorCodeName(static_cast<ErrorCode>(result.error));
    return result;
  };
  const uint64_t pack_all = static_cast<uint64_t>(CapRights::kAll) << 8;
  const uint64_t scratch_base = monitor->monitor_range().end();
  const auto mem_cap = [&](AddrRange range) {
    const auto cap = FindMemoryCap(*monitor, os_domain, range);
    return cap.ok() ? *cap : kInvalidCap;
  };

  const ApiResult a = call(0, ApiOp::kCreateDomain);
  const ApiResult b = call(0, ApiOp::kCreateDomain);
  const ApiResult b_for_a = call(0, ApiOp::kShareUnit, b.ret1, a.ret1, pack_all);
  const ApiResult a_for_b = call(0, ApiOp::kShareUnit, a.ret1, b.ret1, pack_all);

  // Circular shares: OS -> A (16 pages), A -> B (8), B -> A (4).
  const AddrRange window{scratch_base + kMiB, 16 * kPageSize};
  const ApiResult to_a = call(0, ApiOp::kShareMemory, mem_cap(window), a.ret1,
                              window.base, window.size, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(a.ret0);
  const ApiResult to_b = call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                              window.base, 8 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(2).set_current_domain(b.ret0);
  call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0, window.base,
       4 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(os_domain);
  machine->cpu(2).set_current_domain(os_domain);

  // A grant that splits the OS root range into remainders.
  const AddrRange grant_window{scratch_base + 4 * kMiB, 8 * kPageSize};
  const ApiResult granted =
      call(0, ApiOp::kGrantMemory, mem_cap(grant_window), a.ret1,
           grant_window.base, grant_window.size, Perms::kRW, pack_all);

  // Device migration: NIC to A and back (IOMMU / IO-PMP moves both ways).
  const auto nic_cap = FindUnitCap(*monitor, os_domain, ResourceKind::kPciDevice,
                                   kNic.value);
  EXPECT_TRUE(nic_cap.ok());
  const ApiResult nic_granted = call(0, ApiOp::kGrantUnit, *nic_cap, a.ret1, pack_all);
  call(0, ApiOp::kRevoke, nic_granted.ret0);

  // Seal A with an executable identity and run it once on core 3.
  const AddrRange exec_window{scratch_base + 8 * kMiB, 4 * kPageSize};
  call(0, ApiOp::kShareMemory, mem_cap(exec_window), a.ret1, exec_window.base,
       exec_window.size, Perms::kRX, pack_all);
  const auto core_cap =
      FindUnitCap(*monitor, os_domain, ResourceKind::kCpuCore, 3);
  EXPECT_TRUE(core_cap.ok());
  call(0, ApiOp::kShareUnit, *core_cap, a.ret1, pack_all);
  call(0, ApiOp::kSetEntryPoint, a.ret1, exec_window.base);
  call(0, ApiOp::kExtendMeasurement, a.ret1, exec_window.base, exec_window.size);
  call(0, ApiOp::kSeal, a.ret1);
  call(3, ApiOp::kTransition, a.ret1);
  call(3, ApiOp::kReturn);

  // Cascading revocation of the share chain, the grant's restore, and B's
  // teardown. A stays alive and sealed across the crash boundary.
  call(0, ApiOp::kRevoke, to_a.ret0);
  call(0, ApiOp::kRevoke, granted.ret0);
  call(0, ApiOp::kDestroyDomain, b.ret1);
}

// Clean run: boot, enable snapshots, run the workload, keep the evidence.
// The journal is serialized WITHOUT a parting checkpoint -- a crashed
// monitor never gets to sign its death.
std::unique_ptr<Evidence> CollectEvidence(IsaArch arch) {
  auto evidence = std::make_unique<Evidence>();
  auto machine = MakeMachine(arch);
  if (machine == nullptr) {
    return nullptr;
  }
  auto outcome = MeasuredBoot(machine.get(), evidence->Params());
  if (!outcome.ok()) {
    return nullptr;
  }
  Monitor* monitor = outcome->monitor.get();
  evidence->boot_records = monitor->audit().journal().size();
  monitor->audit().journal().set_checkpoint_interval(16);
  if (!monitor->EnableSnapshots(&evidence->store).ok()) {
    return nullptr;
  }
  RunWorkload(machine.get(), monitor, outcome->initial_domain);
  evidence->records = monitor->audit().journal().Records();
  evidence->checkpoints = monitor->audit().journal().Checkpoints();
  evidence->key = monitor->public_key();
  return evidence;
}

// What an uncrashed monitor would hold after `records`: the from-genesis
// shadow replay. Tolerates a prefix cut mid-span (the crash model).
Digest OracleDigest(const std::vector<JournalRecord>& records) {
  CapabilityEngine shadow;
  ReplayOptions options;
  options.tolerate_truncated_tail = true;
  const auto replay = ReplayJournalInto(&shadow, records, options);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  return EngineDigest(shadow);
}

// `anchor_snapshot` is empty when the recovered journal reaches back to
// genesis (plain offline verification applies); a monitor recovered from a
// compacted journal keeps the truncation, so its export only verifies
// through the snapshot-anchored path -- exactly like tools/journal_verify.
void ExpectRecoveredMonitorIsSound(Monitor* monitor, const Digest& oracle,
                                   std::span<const uint8_t> anchor_snapshot = {}) {
  EXPECT_EQ(EngineDigest(monitor->engine()), oracle)
      << "recovered engine diverged from the uncrashed oracle";
  const auto consistent = monitor->AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(*consistent) << "hardware is not a projection of the tree";
  const std::string graph_json = ExportCapabilityGraphJson(monitor->engine());
  const std::vector<uint8_t> wire = monitor->ExportJournal();
  const Status verified =
      anchor_snapshot.empty()
          ? RemoteVerifier::VerifyJournal(wire, monitor->public_key(), &graph_json)
          : VerifyJournalWithSnapshot(wire, anchor_snapshot, monitor->public_key(),
                                      graph_json);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

// One boundary: die after `prefix_len` records, recover on a fresh machine
// (RAM is gone; the journal prefix + snapshot store are the durable truth).
void RecoverAtBoundary(IsaArch arch, const Evidence& evidence, size_t prefix_len) {
  ParsedJournal prefix;
  prefix.records.assign(evidence.records.begin(),
                        evidence.records.begin() + prefix_len);
  const uint64_t last_seq = prefix.records.back().seq;
  for (const JournalCheckpoint& checkpoint : evidence.checkpoints) {
    if (checkpoint.seq <= last_seq) {
      prefix.checkpoints.push_back(checkpoint);
    }
  }
  const auto snapshot = evidence.store.LatestAtOrBefore(last_seq);
  const std::span<const uint8_t> snapshot_bytes =
      snapshot.ok() ? std::span<const uint8_t>(snapshot->bytes)
                    : std::span<const uint8_t>();

  auto machine = MakeMachine(arch);
  ASSERT_NE(machine, nullptr);
  auto outcome =
      MeasuredRecovery(machine.get(), evidence.Params(), snapshot_bytes, prefix);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectRecoveredMonitorIsSound(outcome->monitor.get(),
                                OracleDigest(prefix.records));
}

void SweepEveryBoundary(IsaArch arch) {
  const auto evidence = CollectEvidence(arch);
  ASSERT_NE(evidence, nullptr);
  ASSERT_GT(evidence->records.size(), evidence->boot_records);
  ASSERT_GE(evidence->store.size(), 2u)
      << "workload too short to cross two snapshot checkpoints";
  std::printf("[ sweep ] arch=%d boundaries=%zu snapshots=%zu\n",
              static_cast<int>(arch),
              evidence->records.size() - evidence->boot_records + 1,
              evidence->store.size());
  // Every boundary from "boot just finished" to "died with a full journal".
  for (size_t prefix_len = evidence->boot_records;
       prefix_len <= evidence->records.size(); ++prefix_len) {
    SCOPED_TRACE("boundary after record " + std::to_string(prefix_len - 1));
    RecoverAtBoundary(arch, *evidence, prefix_len);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Compaction sweep: for every snapshot-bearing checkpoint, recover from the
// journal TruncateBefore() would leave -- records strictly after the anchor
// plus the anchor checkpoint itself.
void SweepCompactedJournals(IsaArch arch) {
  const auto evidence = CollectEvidence(arch);
  ASSERT_NE(evidence, nullptr);
  const Digest oracle = OracleDigest(evidence->records);
  size_t anchors = 0;
  for (const JournalCheckpoint& anchor : evidence->checkpoints) {
    if (anchor.snapshot == Digest{}) {
      continue;
    }
    ++anchors;
    SCOPED_TRACE("anchor at seq " + std::to_string(anchor.seq));
    ParsedJournal compacted;
    for (const JournalRecord& record : evidence->records) {
      if (record.seq > anchor.seq) {
        compacted.records.push_back(record);
      }
    }
    for (const JournalCheckpoint& checkpoint : evidence->checkpoints) {
      if (checkpoint.seq >= anchor.seq) {
        compacted.checkpoints.push_back(checkpoint);
      }
    }
    const auto snapshot = evidence->store.LatestAtOrBefore(anchor.seq);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_EQ(snapshot->digest, anchor.snapshot);

    auto machine = MakeMachine(arch);
    ASSERT_NE(machine, nullptr);
    auto outcome = MeasuredRecovery(machine.get(), evidence->Params(),
                                    snapshot->bytes, compacted);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ExpectRecoveredMonitorIsSound(outcome->monitor.get(), oracle, snapshot->bytes);
  }
  EXPECT_GE(anchors, 2u);
}

// One faulted recovery: PrepareMonitor by hand so the half-recovered
// monitor survives for the retry, arm `plan` around Recover() only.
// Returns the monitor after a successful clean retry.
void FaultedRecoveryTrial(IsaArch arch, const Evidence& evidence,
                          const FaultPlan& plan, bool require_fire) {
  ParsedJournal journal;
  journal.records = evidence.records;
  journal.checkpoints = evidence.checkpoints;
  const auto snapshot = evidence.store.Latest();
  ASSERT_TRUE(snapshot.ok());

  auto machine = MakeMachine(arch);
  ASSERT_NE(machine, nullptr);
  machine->tpm().Reset();
  auto prepared = PrepareMonitor(machine.get(), evidence.Params());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Monitor* monitor = prepared->monitor.get();

  Status faulted;
  {
    ScopedFaultPlan scoped(plan);
    faulted = monitor->Recover(snapshot->bytes, journal);
  }
  const bool fired = FaultInjector::Instance().fired_count() > 0;
  if (require_fire) {
    EXPECT_TRUE(fired) << "plan " << plan.ToString() << " never fired";
  }
  if (fired) {
    // The failure surfaced as a typed error, never a silent half-recovery.
    ASSERT_FALSE(faulted.ok()) << "fault fired but Recover() reported success";
    EXPECT_NE(faulted.code(), ErrorCode::kOk);
  }
  // Recover() is re-entrant: the same evidence, injector quiet, must land
  // exactly on the oracle state with consistent hardware.
  const Status retried = monitor->Recover(snapshot->bytes, journal);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  ExpectRecoveredMonitorIsSound(monitor, OracleDigest(evidence.records));
}

// Counting run over a clean recovery: which injection sites does Recover()
// cross, and how often? Drives both the exhaustive re-sync sweep and the
// seeded soak.
std::map<std::string, uint64_t> CountRecoverySites(IsaArch arch,
                                                   const Evidence& evidence) {
  ParsedJournal journal;
  journal.records = evidence.records;
  journal.checkpoints = evidence.checkpoints;
  const auto snapshot = evidence.store.Latest();
  EXPECT_TRUE(snapshot.ok());
  auto machine = MakeMachine(arch);
  EXPECT_NE(machine, nullptr);
  machine->tpm().Reset();
  auto prepared = PrepareMonitor(machine.get(), evidence.Params());
  EXPECT_TRUE(prepared.ok());
  FaultInjector::Instance().StartCounting();
  const Status recovered = prepared->monitor->Recover(snapshot->bytes, journal);
  auto counts = FaultInjector::Instance().StopCounting();
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  // Drop the silent-corruption sites (journal.head_tamper,
  // engine.owned_desync): they corrupt state without failing the operation,
  // so Recover() legitimately reports success and only the invariant
  // watchdog detects them (tests/monitor/watchdog_test.cc). The resync
  // sweep asserts typed-error propagation, which they never produce.
  const auto& sweepable = AllFaultSites();
  for (auto it = counts.begin(); it != counts.end();) {
    const bool known = std::find(sweepable.begin(), sweepable.end(), it->first) !=
                       sweepable.end();
    it = known ? std::next(it) : counts.erase(it);
  }
  return counts;
}

void SweepResyncFaults(IsaArch arch, const std::set<std::string>& required_sites) {
  const auto evidence = CollectEvidence(arch);
  ASSERT_NE(evidence, nullptr);
  const auto counts = CountRecoverySites(arch, *evidence);
  for (const std::string& site : required_sites) {
    EXPECT_TRUE(counts.contains(site) && counts.at(site) > 0)
        << "recovery never crossed " << site;
  }
  // First / middle / last occurrence of every site recovery crosses.
  for (const auto& [site, count] : counts) {
    if (count == 0) {
      continue;
    }
    for (const uint64_t trigger : std::set<uint64_t>{1, (count + 1) / 2, count}) {
      SCOPED_TRACE(site + "#" + std::to_string(trigger) + "/" +
                   std::to_string(count));
      FaultedRecoveryTrial(arch, *evidence, FaultPlan::Single(site, trigger),
                           /*require_fire=*/true);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

void SoakRecovery(IsaArch arch, int trials) {
  const auto evidence = CollectEvidence(arch);
  ASSERT_NE(evidence, nullptr);
  const auto counts = CountRecoverySites(arch, *evidence);
  ASSERT_FALSE(counts.empty());
  uint64_t base_seed = 0xD1CE + static_cast<uint64_t>(arch);
  if (const char* env = std::getenv("TYCHE_FAULT_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  std::printf("[ soak ] arch=%d base_seed=0x%llx trials=%d\n",
              static_cast<int>(arch),
              static_cast<unsigned long long>(base_seed), trials);
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial) * 0x9E3779B9ull;
    const FaultPlan plan = FaultPlan::FromSeed(seed, counts);
    ASSERT_FALSE(plan.empty());
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan " + plan.ToString());
    FaultedRecoveryTrial(arch, *evidence, plan, /*require_fire=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

const std::set<std::string> kVtxResyncSites = {
    std::string(faults::kVtxCreateContext),
    std::string(faults::kVtxSyncMemory),
    std::string(faults::kVtxAttachDevice),
    std::string(faults::kVtxBindCore),
};

const std::set<std::string> kPmpResyncSites = {
    std::string(faults::kPmpCreateContext),
    std::string(faults::kPmpRecompile),
    std::string(faults::kPmpBindCore),
    std::string(faults::kPmpAttachDevice),
};

TEST(CrashSweepTest, EveryRecordBoundaryOnVtx) { SweepEveryBoundary(IsaArch::kX86_64); }

TEST(CrashSweepTest, EveryRecordBoundaryOnPmp) { SweepEveryBoundary(IsaArch::kRiscV); }

TEST(CrashSweepTest, EverySnapshotAnchoredCompactionOnVtx) {
  SweepCompactedJournals(IsaArch::kX86_64);
}

TEST(CrashSweepTest, EverySnapshotAnchoredCompactionOnPmp) {
  SweepCompactedJournals(IsaArch::kRiscV);
}

TEST(CrashSweepTest, EveryResyncFaultSiteOnVtx) {
  SweepResyncFaults(IsaArch::kX86_64, kVtxResyncSites);
}

TEST(CrashSweepTest, EveryResyncFaultSiteOnPmp) {
  SweepResyncFaults(IsaArch::kRiscV, kPmpResyncSites);
}

TEST(CrashSweepTest, RandomizedRecoveryFaultSoakOnVtx) {
  SoakRecovery(IsaArch::kX86_64, 12);
}

TEST(CrashSweepTest, RandomizedRecoveryFaultSoakOnPmp) {
  SoakRecovery(IsaArch::kRiscV, 12);
}

}  // namespace
}  // namespace tyche
