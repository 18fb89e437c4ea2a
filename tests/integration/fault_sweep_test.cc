// Copyright 2026 The Tyche Reproduction Authors.
// The exhaustive fault sweep: a fixed workload touches every subsystem
// (domain lifecycle, circular memory sharing, device moves, transitions,
// sealed storage, the OS allocator), a counting run learns how often each
// injection site is reached, and then the workload is replayed with a fault
// injected at the FIRST, MIDDLE and LAST occurrence of every site, on both
// backends. After every single injected failure the monitor must hold the
// transactional line: a typed error surfaced to the caller, the capability
// tree and the hardware agree (AuditHardwareConsistency), and the exported
// journal still verifies offline with its shadow replay matching the live
// capability-graph snapshot -- no torn states, ever.
//
// A randomized soak (seeded, logged, replayable via TYCHE_FAULT_SEED) then
// samples (site, occurrence) pairs uniformly for >= 100 extra trials.

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
#include "src/support/faults.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr PciBdf kNic = PciBdf(0, 3, 0);

// A freshly booted machine per trial. Boot runs with the injector quiet, so
// occurrence numbering always starts at the first workload instruction --
// that is what makes "the Nth occurrence" reproducible across trials.
struct Testbed {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Monitor> monitor;
  std::unique_ptr<LinOs> os;
  DomainId os_domain = kInvalidDomain;

  static std::unique_ptr<Testbed> Create(IsaArch arch) {
    auto bed = std::make_unique<Testbed>();
    MachineConfig config;
    config.arch = arch;
    config.memory_bytes = 128ull << 20;
    config.num_cores = 4;
    bed->machine = std::make_unique<Machine>(config);
    if (!bed->machine->AddDevice(std::make_unique<DmaEngine>(kNic, "nic0")).ok()) {
      return nullptr;
    }
    BootParams params;
    params.firmware_image = DemoFirmwareImage();
    params.monitor_image = DemoMonitorImage();
    auto outcome = MeasuredBoot(bed->machine.get(), params);
    if (!outcome.ok()) {
      return nullptr;
    }
    bed->monitor = std::move(outcome->monitor);
    bed->os_domain = outcome->initial_domain;
    const uint64_t os_base = bed->monitor->monitor_range().end();
    const uint64_t os_size = config.memory_bytes - os_base;
    const auto mem_cap =
        FindMemoryCap(*bed->monitor, bed->os_domain, AddrRange{os_base, os_size});
    if (!mem_cap.ok()) {
      return nullptr;
    }
    bed->os = std::make_unique<LinOs>(bed->monitor.get(), bed->os_domain, *mem_cap,
                                      AddrRange{os_base + os_size / 2, os_size / 2});
    return bed;
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

// Every non-OK error code the workload observed, in order. Under injection
// the workload keeps going after a failed step (later steps may fail with
// follow-on errors); the sweep only requires that the INJECTED code
// surfaced somewhere -- no failure may be silently swallowed.
struct WorkloadLog {
  std::vector<ErrorCode> errors;

  void Note(uint64_t error) {
    if (error != 0) {
      errors.push_back(static_cast<ErrorCode>(error));
    }
  }
  void Note(const Status& status) {
    if (!status.ok()) {
      errors.push_back(status.code());
    }
  }
  bool Saw(ErrorCode code) const {
    for (const ErrorCode e : errors) {
      if (e == code) {
        return true;
      }
    }
    return false;
  }
};

// The deterministic workload. Exercises, in a fixed order: domain creation,
// cross-handles, a circular memory-sharing loop (OS -> A -> B -> A), a
// memory grant with remainders, a device grant + revoke (IOMMU / IOPMP
// moves), an executable share + seal + transition + sealed storage
// (AEAD open), an OS process (range + page-table frame allocators), a
// cascading revocation of the circular loop, and both domain destructions.
WorkloadLog RunWorkload(Testbed& bed) {
  WorkloadLog log;
  Monitor* monitor = bed.monitor.get();
  Machine* machine = bed.machine.get();

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
    log.Note(result.error);
    return result;
  };
  const uint64_t pack_all = static_cast<uint64_t>(CapRights::kAll) << 8;

  // Two domains plus mutual handles.
  const ApiResult a = call(0, ApiOp::kCreateDomain);
  const ApiResult b = call(0, ApiOp::kCreateDomain);
  const ApiResult b_for_a = call(0, ApiOp::kShareUnit, b.ret1, a.ret1, pack_all);
  const ApiResult a_for_b = call(0, ApiOp::kShareUnit, a.ret1, b.ret1, pack_all);

  // Circular memory: OS -> A (16 pages), A -> B (8), B -> A (4).
  const AddrRange window = bed.Scratch(kMiB, 16 * kPageSize);
  const ApiResult to_a = call(0, ApiOp::kShareMemory, bed.MemCap(window), a.ret1,
                              window.base, window.size, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(a.ret0);
  const ApiResult to_b = call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                              window.base, 8 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(2).set_current_domain(b.ret0);
  const ApiResult back_to_a = call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0,
                                   window.base, 4 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(bed.os_domain);
  machine->cpu(2).set_current_domain(bed.os_domain);

  // A grant that splits the OS's root range into remainders.
  const AddrRange grant_window = bed.Scratch(4 * kMiB, 8 * kPageSize);
  const ApiResult granted =
      call(0, ApiOp::kGrantMemory, bed.MemCap(grant_window), a.ret1,
           grant_window.base, grant_window.size, Perms::kRW, pack_all);

  // Device migration: grant the NIC to A (detach from the OS, attach to A),
  // then revoke it back (detach from A, restore + attach to the OS).
  const ApiResult nic_granted =
      call(0, ApiOp::kGrantUnit, bed.DeviceCap(kNic), a.ret1, pack_all);
  call(0, ApiOp::kRevoke, nic_granted.ret0);

  // Executable window, entry point, seal, transition onto core 3, sealed
  // storage round trip (UnsealData crosses the AEAD-open fault site).
  const AddrRange exec_window = bed.Scratch(8 * kMiB, 4 * kPageSize);
  call(0, ApiOp::kShareMemory, bed.MemCap(exec_window), a.ret1, exec_window.base,
       exec_window.size, Perms::kRX, pack_all);
  call(0, ApiOp::kShareUnit, bed.CoreCap(3), a.ret1, pack_all);
  call(0, ApiOp::kSetEntryPoint, a.ret1, exec_window.base);
  call(0, ApiOp::kSeal, a.ret1);
  call(3, ApiOp::kTransition, a.ret1);
  const std::vector<uint8_t> secret = {0x74, 0x79, 0x63, 0x68, 0x65};
  const auto sealed = monitor->SealData(3, secret);
  log.Note(sealed.status());
  if (sealed.ok()) {
    const auto opened = monitor->UnsealData(3, *sealed);
    log.Note(opened.status());
  }
  call(3, ApiOp::kReturn);

  // OS-side pressure: a process allocation walks the range allocator and the
  // page-table frame pool.
  const auto pid = bed.os->CreateProcess("sweep", 16 * kPageSize);
  log.Note(pid.status());
  if (pid.ok()) {
    log.Note(bed.os->KillProcess(*pid));
  }

  // Cascading revocation of the circular loop, then the grant's restore,
  // then both domains go away entirely.
  call(0, ApiOp::kRevoke, to_a.ret0);
  call(0, ApiOp::kRevoke, granted.ret0);
  call(0, ApiOp::kDestroyDomain, b.ret1);
  call(0, ApiOp::kDestroyDomain, a.ret1);
  (void)back_to_a;
  return log;
}

// The post-trial invariants: hardware agrees with the tree, and the journal
// verifies offline with its shadow replay matching the live graph snapshot.
void VerifyConsistency(Testbed& bed) {
  const auto consistent = bed.monitor->AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(*consistent) << "hardware diverged from the capability tree";

  const std::string graph_json = ExportCapabilityGraphJson(bed.monitor->engine());
  const std::vector<uint8_t> wire = bed.monitor->ExportJournal();
  const Status verified =
      RemoteVerifier::VerifyJournal(wire, bed.monitor->public_key(), &graph_json);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

// Counting run: boots clean, runs the workload once under observation, and
// returns the per-site occurrence counts. The clean workload must be
// error-free -- otherwise triggers derived from it would be meaningless.
std::map<std::string, uint64_t> CountOccurrences(IsaArch arch) {
  auto bed = Testbed::Create(arch);
  EXPECT_NE(bed, nullptr);
  if (bed == nullptr) {
    return {};
  }
  FaultInjector::Instance().StartCounting();
  const WorkloadLog log = RunWorkload(*bed);
  auto counts = FaultInjector::Instance().StopCounting();
  // Counting observes every MaybeInject site the workload reaches, including
  // the silent-corruption sites (journal.head_tamper, engine.owned_desync)
  // that by design never surface a typed error -- only the invariant
  // watchdog notices them (tests/monitor/watchdog_test.cc). Restrict the
  // sweep to the enumerable error-surfacing sites.
  const auto& sweepable = AllFaultSites();
  for (auto it = counts.begin(); it != counts.end();) {
    const bool known = std::find(sweepable.begin(), sweepable.end(), it->first) !=
                       sweepable.end();
    it = known ? std::next(it) : counts.erase(it);
  }
  EXPECT_TRUE(log.errors.empty())
      << "clean workload reported " << log.errors.size() << " errors, first: "
      << ErrorCodeName(log.errors.empty() ? ErrorCode::kOk : log.errors[0]);
  VerifyConsistency(*bed);
  return counts;
}

// One injected trial: fresh machine, one (site, occurrence) fault, full
// workload, then the invariants with the injector quiescent again.
void RunTrial(IsaArch arch, const FaultPlan& plan, ErrorCode expected_code) {
  auto bed = Testbed::Create(arch);
  ASSERT_NE(bed, nullptr);
  WorkloadLog log;
  {
    ScopedFaultPlan scoped(plan);
    log = RunWorkload(*bed);
  }
  // Disarm() keeps the fired record: exactly one fault was delivered.
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u)
      << "plan " << plan.ToString() << " did not fire exactly once";
  EXPECT_TRUE(log.Saw(expected_code))
      << "injected " << ErrorCodeName(expected_code)
      << " never surfaced as a typed error";
  VerifyConsistency(*bed);
}

void RunSweep(IsaArch arch, const std::set<std::string>& required_sites) {
  const auto counts = CountOccurrences(arch);
  ASSERT_FALSE(counts.empty());

  // Coverage: the workload reaches every site this backend registers.
  std::set<std::string> observed;
  for (const auto& [site, count] : counts) {
    if (count > 0) {
      observed.insert(site);
    }
  }
  for (const std::string& site : required_sites) {
    EXPECT_TRUE(observed.contains(site)) << "workload never reached " << site;
  }

  // First / middle / last occurrence of every observed site.
  for (const auto& [site, count] : counts) {
    const std::set<uint64_t> triggers = {1, (count + 1) / 2, count};
    for (const uint64_t trigger : triggers) {
      SCOPED_TRACE(site + "#" + std::to_string(trigger) + "/" +
                   std::to_string(count));
      RunTrial(arch, FaultPlan::Single(site, trigger), DefaultFaultCode(site));
    }
  }
}

void RunSoak(IsaArch arch, int trials) {
  const auto counts = CountOccurrences(arch);
  ASSERT_FALSE(counts.empty());
  uint64_t base_seed = 0xC0FFEE + static_cast<uint64_t>(arch);
  if (const char* env = std::getenv("TYCHE_FAULT_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  // The seed is printed so any failing trial is replayable verbatim.
  std::printf("[ soak ] arch=%d base_seed=0x%llx trials=%d\n",
              static_cast<int>(arch),
              static_cast<unsigned long long>(base_seed), trials);
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial) * 0x9E3779B9ull;
    const FaultPlan plan = FaultPlan::FromSeed(seed, counts);
    ASSERT_FALSE(plan.empty());
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan " + plan.ToString());
    RunTrial(arch, plan, plan.specs()[0].code);
  }
}

const std::set<std::string> kVtxRequired = {
    std::string(faults::kFrameAlloc),       std::string(faults::kIommuAttach),
    std::string(faults::kRangeAlloc),       std::string(faults::kAeadOpen),
    std::string(faults::kVtxCreateContext), std::string(faults::kVtxSyncMemory),
    std::string(faults::kVtxAttachDevice),  std::string(faults::kVtxDetachDevice),
    std::string(faults::kVtxBindCore),
};

const std::set<std::string> kPmpRequired = {
    std::string(faults::kFrameAlloc),       std::string(faults::kRangeAlloc),
    std::string(faults::kAeadOpen),         std::string(faults::kPmpCreateContext),
    std::string(faults::kPmpRecompile),     std::string(faults::kPmpBindCore),
    std::string(faults::kPmpSyncDevice),    std::string(faults::kPmpAttachDevice),
    std::string(faults::kPmpDetachDevice),
};

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnVtx) {
  RunSweep(IsaArch::kX86_64, kVtxRequired);
}

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnPmp) {
  RunSweep(IsaArch::kRiscV, kPmpRequired);
}

TEST(FaultSweepTest, RandomizedSeedSoakOnVtx) { RunSoak(IsaArch::kX86_64, 50); }

TEST(FaultSweepTest, RandomizedSeedSoakOnPmp) { RunSoak(IsaArch::kRiscV, 50); }

}  // namespace
}  // namespace tyche
