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
#include <memory>
#include <string>
#include <vector>

#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/support/faults.h"
#include "src/tyche/graph_export.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"
#include "tests/testing/sweep_driver.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// A freshly booted machine per trial, with the NIC the workload moves.
struct Testbed : BootedMachine {
  explicit Testbed(IsaArch arch) : BootedMachine({.arch = arch, .with_nic = true}) {}

  // Every non-OK error code the workload observed, in order. Under injection
  // the workload keeps going after a failed step (later steps may fail with
  // follow-on errors); the sweep only requires that the INJECTED code
  // surfaced somewhere -- no failure may be silently swallowed.
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
};

// The deterministic workload. Exercises, in a fixed order: domain creation,
// cross-handles, a circular memory-sharing loop (OS -> A -> B -> A), a
// memory grant with remainders, a device grant + revoke (IOMMU / IOPMP
// moves), an executable share + seal + transition + sealed storage
// (AEAD open), an OS process (range + page-table frame allocators), a
// cascading revocation of the circular loop, and both domain destructions.
void RunWorkload(Testbed& bed) {
  Monitor* monitor = bed.monitor_.get();
  Machine* machine = bed.machine_.get();

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
    bed.Note(result.error);
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
  const ApiResult to_a = call(0, ApiOp::kShareMemory, bed.OsMemCap(window), a.ret1,
                              window.base, window.size, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(a.ret0);
  const ApiResult to_b = call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                              window.base, 8 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(2).set_current_domain(b.ret0);
  const ApiResult back_to_a = call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0,
                                   window.base, 4 * kPageSize, Perms::kRW, pack_all);
  machine->cpu(1).set_current_domain(bed.os_domain_);
  machine->cpu(2).set_current_domain(bed.os_domain_);

  // A grant that splits the OS's root range into remainders.
  const AddrRange grant_window = bed.Scratch(4 * kMiB, 8 * kPageSize);
  const ApiResult granted =
      call(0, ApiOp::kGrantMemory, bed.OsMemCap(grant_window), a.ret1,
           grant_window.base, grant_window.size, Perms::kRW, pack_all);

  // Device migration: grant the NIC to A (detach from the OS, attach to A),
  // then revoke it back (detach from A, restore + attach to the OS).
  const ApiResult nic_granted =
      call(0, ApiOp::kGrantUnit, bed.OsDeviceCap(Testbed::kNicBdf.value), a.ret1, pack_all);
  call(0, ApiOp::kRevoke, nic_granted.ret0);

  // Executable window, entry point, seal, transition onto core 3, sealed
  // storage round trip (UnsealData crosses the AEAD-open fault site).
  const AddrRange exec_window = bed.Scratch(8 * kMiB, 4 * kPageSize);
  call(0, ApiOp::kShareMemory, bed.OsMemCap(exec_window), a.ret1, exec_window.base,
       exec_window.size, Perms::kRX, pack_all);
  call(0, ApiOp::kShareUnit, bed.OsCoreCap(3), a.ret1, pack_all);
  call(0, ApiOp::kSetEntryPoint, a.ret1, exec_window.base);
  call(0, ApiOp::kSeal, a.ret1);
  call(3, ApiOp::kTransition, a.ret1);
  const std::vector<uint8_t> secret = {0x74, 0x79, 0x63, 0x68, 0x65};
  const auto sealed = monitor->SealData(3, secret);
  bed.Note(sealed.status());
  if (sealed.ok()) {
    const auto opened = monitor->UnsealData(3, *sealed);
    bed.Note(opened.status());
  }
  call(3, ApiOp::kReturn);

  // OS-side pressure: a process allocation walks the range allocator and the
  // page-table frame pool.
  const auto pid = bed.os_->CreateProcess("sweep", 16 * kPageSize);
  bed.Note(pid.status());
  if (pid.ok()) {
    bed.Note(bed.os_->KillProcess(*pid));
  }

  // Cascading revocation of the circular loop, then the grant's restore,
  // then both domains go away entirely.
  call(0, ApiOp::kRevoke, to_a.ret0);
  call(0, ApiOp::kRevoke, granted.ret0);
  call(0, ApiOp::kDestroyDomain, b.ret1);
  call(0, ApiOp::kDestroyDomain, a.ret1);
  (void)back_to_a;
}

// The post-trial invariants: hardware agrees with the tree, and the journal
// verifies offline with its shadow replay matching the live graph snapshot.
void VerifyConsistency(Testbed& bed) {
  const auto consistent = bed.monitor_->AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(*consistent) << "hardware diverged from the capability tree";

  const std::string graph_json = ExportCapabilityGraphJson(bed.monitor_->engine());
  const std::vector<uint8_t> wire = bed.monitor_->ExportJournal();
  const Status verified =
      VerifyJournal(wire, {}, bed.monitor_->public_key(), &graph_json);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

// The invariants hold after every run; a faulted run must also have
// surfaced the injected code, and a clean run no error at all.
const Sweep<Testbed> kFaultSweep = {
    .name = "fault",
    .sites = kFaultSweepSites,
    .soak_seed = 0xC0FFEE,
    .soak_trials = 50,
    .fresh_world = [](IsaArch arch) { return std::make_unique<Testbed>(arch); },
    .workload = RunWorkload,
    .oracle =
        [](Testbed& bed, const FaultSpec* fault, const Testbed&) {
          if (fault == nullptr) {
            EXPECT_TRUE(bed.errors.empty())
                << "clean workload reported " << bed.errors.size()
                << " errors, first: " << ErrorCodeName(bed.errors[0]);
          } else {
            EXPECT_NE(std::find(bed.errors.begin(), bed.errors.end(), fault->code),
                      bed.errors.end())
                << "injected " << ErrorCodeName(fault->code)
                << " never surfaced as a typed error";
          }
          VerifyConsistency(bed);
        },
};

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnVtx) {
  RunGrid(kFaultSweep, IsaArch::kX86_64);
}

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnPmp) { RunGrid(kFaultSweep, IsaArch::kRiscV); }

TEST(FaultSweepTest, RandomizedSeedSoakOnVtx) { RunSoak(kFaultSweep, IsaArch::kX86_64); }

TEST(FaultSweepTest, RandomizedSeedSoakOnPmp) { RunSoak(kFaultSweep, IsaArch::kRiscV); }

}  // namespace
}  // namespace tyche
