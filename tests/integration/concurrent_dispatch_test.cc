// Copyright 2026 The Tyche Reproduction Authors.
// Concurrent dispatch: N threads, one per core, hammer the register ABI with
// a mixed read/write workload while the journal is live. Afterwards the
// usual single-threaded evidence obligations must still hold exactly --
// the hash chain verifies, shadow replay reproduces the engine state
// digest, and the journal commit counters account for every record. Plus the
// capability-lifetime regression: a domain purge that fails mid-cascade
// must journal the committed prefix and leave the domain destroyable.
//
// This test is the TSan target for the concurrency contract: one
// dispatching thread per core, everything through Dispatch().

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "src/capability/engine.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/support/faults.h"
#include "src/tyche/graph_export.h"
#include "src/tyche/observe.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class ConcurrentDispatchTest : public BootedMachineTest {
 protected:
  ApiResult Call(CoreId core, ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                 uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(op);
    regs.arg0 = a0;
    regs.arg1 = a1;
    regs.arg2 = a2;
    regs.arg3 = a3;
    regs.arg4 = a4;
    regs.arg5 = a5;
    return Dispatch(monitor_.get(), core, regs);
  }

  static uint64_t Pack(uint8_t rights, uint8_t policy) {
    return (static_cast<uint64_t>(rights) << 8) | policy;
  }
};

TEST_F(ConcurrentDispatchTest, StressedMonitorStillReplaysAndVerifies) {
  constexpr uint32_t kThreads = 4;  // == fixture cores, one thread per core
  constexpr int kIterations = 60;
  monitor_->audit().set_enabled(true);
  monitor_->telemetry().set_trace_enabled(true);
  monitor_->telemetry().set_histograms_enabled(true);
  ASSERT_TRUE(monitor_->EnableConcurrentDispatch().ok());

  // Per-thread resources resolved serially up front: a disjoint scratch
  // window, its source capability, and an attestation out-buffer.
  std::vector<AddrRange> window(kThreads);
  std::vector<CapId> src_cap(kThreads);
  std::vector<uint64_t> out_buf(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    window[t] = Scratch(kMiB + t * kMiB, 4 * kPageSize);
    src_cap[t] = OsMemCap(window[t]);
    out_buf[t] = Scratch(16 * kMiB + t * kMiB, 0).base;
  }

  const size_t records_before = monitor_->audit().journal().size();
  std::atomic<uint32_t> failures{0};
  std::atomic<uint32_t> dispatched{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto core = static_cast<CoreId>(t);
      // Every thread creates (and keeps) its own child domain, then mixes
      // cascading writes with attestation reads against it.
      const ApiResult created = Call(core, ApiOp::kCreateDomain);
      if (created.error != 0) {
        ++failures;
        return;
      }
      const CapId handle = created.ret1;
      for (int i = 0; i < kIterations; ++i) {
        const ApiResult shared =
            Call(core, ApiOp::kShareMemory, src_cap[t], handle, window[t].base,
                 window[t].size, Perms::kRW, Pack(CapRights::kAll, 0));
        if (shared.error != 0) {
          ++failures;
          continue;
        }
        if (Call(core, ApiOp::kRevoke, shared.ret0).error != 0) {
          ++failures;
        }
        // Self-attestation: shared api lock, engine queries, a signature,
        // and a guest-memory write through the caller's context.
        const ApiResult attested = Call(core, ApiOp::kAttestDomain, /*self=*/0,
                                        /*nonce=*/i, out_buf[t], kMiB);
        if (attested.error != 0) {
          ++failures;
        }
        (void)Call(core, ApiOp::kTakeInterrupt);  // cheap exclusive op
        if (Call(core, ApiOp::kEnumerate, handle).error != 0) {
          ++failures;
        }
      }
      dispatched += 1 + 5 * kIterations;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(failures.load(), 0u);
  monitor_->DisableConcurrentDispatch();

  // The concurrent run must leave the same kind of evidence a serial run
  // does: a verifying chain whose replay reproduces the live engine.
  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  ASSERT_TRUE(VerifyJournal(wire, {}, monitor_->public_key(), &graph_json).ok());
  const std::vector<JournalRecord> records = monitor_->audit().journal().Records();
  CapabilityEngine shadow;
  const auto replay = ReplayJournalInto(&shadow, std::span<const JournalRecord>(records));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(EngineDigest(shadow).ToHex(), EngineDigest(monitor_->engine()).ToHex());

  // Every dispatch left exactly one boundary in its span, folded or not:
  // its kDispatch record, or else the first record, stamped with the op.
  // Each thread folds only into records of its own dispatch's span.
  std::map<uint64_t, int> boundaries;
  for (size_t i = records_before; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    const bool dispatch = record.event == static_cast<uint8_t>(JournalEvent::kDispatch);
    boundaries[record.span] += (dispatch || record.op != kJournalNoOp) ? 1 : 0;
    if (!dispatch && record.op != kJournalNoOp) {
      EXPECT_TRUE(record.op == static_cast<uint8_t>(ApiOp::kShareMemory) ||
                  record.op == static_cast<uint8_t>(ApiOp::kRevoke))
          << "seq " << record.seq << " op " << int{record.op};
    }
  }
  EXPECT_EQ(boundaries.size(), dispatched.load());
  for (const auto& [span, count] : boundaries) {
    EXPECT_EQ(count, 1) << "span " << span;
  }

  // The journal commit counters account for every record, and the scrape
  // surfaces the concurrency counters.
  const auto stats = monitor_->audit().journal().group_commit_stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batched_records, monitor_->audit().journal().size());
  EXPECT_GE(stats.max_batch, 1u);
  const std::string scrape = RenderPrometheus(MonitorMetrics(*monitor_));
  EXPECT_NE(scrape.find("tyche_journal_group_commit_batches_total " +
                        std::to_string(stats.batches) + "\n"),
            std::string::npos);
  EXPECT_NE(scrape.find("tyche_journal_group_commit_records_total " +
                        std::to_string(stats.batched_records) + "\n"),
            std::string::npos);
}

TEST_F(ConcurrentDispatchTest, DestroyDomainPartialPurgeJournalsCommittedPrefix) {
  monitor_->audit().set_enabled(true);
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const DomainId child = created.ret0;
  const CapId handle = created.ret1;

  // Two shared windows: the child owns two root capabilities, so a purge
  // whose second per-root revoke fails leaves a committed prefix behind.
  const AddrRange first = Scratch(kMiB, 4 * kPageSize);
  const AddrRange second = Scratch(2 * kMiB, 4 * kPageSize);
  ASSERT_EQ(Call(0, ApiOp::kShareMemory, OsMemCap(first), handle, first.base, first.size,
                 Perms::kRW, Pack(CapRights::kAll, 0))
                .error,
            0u);
  ASSERT_EQ(Call(0, ApiOp::kShareMemory, OsMemCap(second), handle, second.base,
                 second.size, Perms::kRW, Pack(CapRights::kAll, 0))
                .error,
            0u);
  ASSERT_EQ(monitor_->engine().DomainCaps(child).size(), 2u);

  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEnginePurgeRevoke, /*trigger=*/2,
                                           ErrorCode::kResourceExhausted));
    const ApiResult destroyed = Call(0, ApiOp::kDestroyDomain, handle);
    EXPECT_EQ(destroyed.error, static_cast<uint64_t>(ErrorCode::kResourceExhausted));
  }
  // Regression: the old code erased the domain anyway, orphaning the
  // still-active capability. Now the domain survives with exactly the
  // uncommitted remainder, and stays fully operational.
  EXPECT_TRUE(monitor_->engine().IsRegistered(child));
  EXPECT_EQ(monitor_->engine().DomainCaps(child).size(), 1u);
  EXPECT_EQ(Call(0, ApiOp::kEnumerate, handle).error, 0u);

  // The retry destroys it for good, and the journal -- committed prefix as
  // plain revokes, abort marker, then the purge of the remainder -- replays
  // to the live engine state.
  ASSERT_EQ(Call(0, ApiOp::kDestroyDomain, handle).error, 0u);
  EXPECT_FALSE(monitor_->engine().IsRegistered(child));
  EXPECT_TRUE(monitor_->engine().DomainCaps(child).empty());

  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  EXPECT_TRUE(VerifyJournal(wire, {}, monitor_->public_key(), &graph_json).ok());
}

TEST_F(ConcurrentDispatchTest, ConcurrencyAndSnapshotsAreMutuallyExclusive) {
  SnapshotStore store;
  ASSERT_TRUE(monitor_->EnableSnapshots(&store).ok());
  // The snapshot provider runs under the journal lock and reads monitor
  // state -- engaging concurrent dispatch now would invert the lock order.
  EXPECT_EQ(monitor_->EnableConcurrentDispatch().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(monitor_->concurrent_dispatch());
}

}  // namespace
}  // namespace tyche
