// Copyright 2026 The Tyche Reproduction Authors.
// Online invariant watchdog (src/monitor/watchdog.h): the first LIVE use of
// the audit machinery. The tests stage silent corruption -- state flipped
// without any operation failing, the class of bug no error path can see --
// through the fault framework's non-sweep sites, then assert the watchdog
// (a) detects it within the configured dispatch interval, (b) flips the
// exported health gauge, and (c) produces a flight-recorder capture whose
// span id names the violating dispatch.

#include "src/monitor/watchdog.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/support/faults.h"
#include "src/support/flight_recorder.h"
#include "src/support/journal.h"
#include "src/tyche/observe.h"

namespace tyche {
namespace {

JournalRecord MakeRecord(uint64_t span, uint32_t domain) {
  JournalRecord record;
  record.span = span;
  record.event = static_cast<uint8_t>(JournalEvent::kDispatch);
  record.domain = domain;
  return record;
}

// ===== Unit level: one watchdog over hand-built journal/engine state =====

class WatchdogUnitTest : public ::testing::Test {
 protected:
  WatchdogUnitTest() : flight_(nullptr, {}), watchdog_(&journal_, &engine_, &flight_) {}

  std::vector<FlightRecord> WatchdogCaptures() {
    std::vector<FlightRecord> out;
    for (const FlightRecord& record : flight_.Snapshot()) {
      if (record.reason == "watchdog") {
        out.push_back(record);
      }
    }
    return out;
  }

  Journal journal_;
  CapabilityEngine engine_;
  FlightRecorder flight_;
  InvariantWatchdog watchdog_;
};

TEST_F(WatchdogUnitTest, DisabledIntervalNeverChecks) {
  ASSERT_EQ(watchdog_.interval(), 0u);
  for (int i = 0; i < 100; ++i) {
    watchdog_.MaybeTick(/*op=*/1, /*span=*/static_cast<uint64_t>(i));
  }
  EXPECT_EQ(watchdog_.checks(), 0u);
  EXPECT_TRUE(watchdog_.healthy());
}

TEST_F(WatchdogUnitTest, TickHonorsInterval) {
  watchdog_.set_interval(4);
  for (int i = 0; i < 8; ++i) {
    watchdog_.MaybeTick(1, 0);
  }
  EXPECT_EQ(watchdog_.checks(), 2u);  // dispatches 4 and 8
  EXPECT_TRUE(watchdog_.healthy());
  EXPECT_EQ(watchdog_.violations(), 0u);
}

TEST_F(WatchdogUnitTest, CleanJournalStaysHealthyAcrossIncrementalChecks) {
  for (uint64_t i = 0; i < 16; ++i) {
    (void)journal_.Append(MakeRecord(i, 1));
    watchdog_.CheckNow(1, i);
  }
  EXPECT_TRUE(watchdog_.chain_healthy());
  EXPECT_EQ(watchdog_.violations(), 0u);
}

TEST_F(WatchdogUnitTest, ChainTamperDetectedStickyWithCapture) {
  (void)journal_.Append(MakeRecord(1, 1));
  watchdog_.CheckNow(1, 1);
  ASSERT_TRUE(watchdog_.chain_healthy());

  {
    // Flip a bit in the live chain head, silently, on the next append.
    ScopedFaultPlan plan(FaultPlan::Single(faults::kJournalHeadTamper, 1));
    (void)journal_.Append(MakeRecord(2, 1));
  }
  watchdog_.CheckNow(/*op=*/7, /*span=*/42);
  EXPECT_FALSE(watchdog_.chain_healthy());
  EXPECT_FALSE(watchdog_.healthy());
  EXPECT_EQ(watchdog_.violations(), 1u);

  const auto captures = WatchdogCaptures();
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].span, 42u);
  EXPECT_EQ(captures[0].op, 7u);
  EXPECT_NE(captures[0].detail.find("journal_chain"), std::string::npos);

  // Sticky: the broken chain is not re-verified (and not re-captured) on
  // every subsequent tick.
  watchdog_.CheckNow(7, 43);
  EXPECT_EQ(watchdog_.violations(), 1u);
  EXPECT_EQ(WatchdogCaptures().size(), 1u);
}

TEST_F(WatchdogUnitTest, OwnedIndexDesyncDetected) {
  engine_.RegisterDomain(1, CapabilityEngine::kNoCreator);
  ASSERT_TRUE(
      engine_.MintMemory(1, AddrRange{0x1000, 0x1000}, Perms(Perms::kRW), CapRights(CapRights::kAll)).ok());
  watchdog_.CheckNow(1, 1);
  ASSERT_TRUE(watchdog_.index_healthy());

  {
    // The next capability insertion silently skips the per-owner index.
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEngineOwnedDesync, 1));
    ASSERT_TRUE(
        engine_.MintMemory(1, AddrRange{0x3000, 0x1000}, Perms(Perms::kRW), CapRights(CapRights::kAll))
            .ok());
  }
  watchdog_.CheckNow(/*op=*/9, /*span=*/77);
  EXPECT_FALSE(watchdog_.index_healthy());
  EXPECT_EQ(watchdog_.violations(), 1u);
  const auto captures = WatchdogCaptures();
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].span, 77u);
  EXPECT_NE(captures[0].detail.find("owned_index"), std::string::npos);
}

// Transient backend check: the gauge recovers when the fail-safe count
// returns to zero, and only the healthy->unhealthy edge captures.
TEST_F(WatchdogUnitTest, BackendFailsafeIsTransientAndEdgeTriggered) {
  struct StubBackend : Backend {
    Status CreateDomainContext(DomainId, uint16_t) override { return OkStatus(); }
    Status DestroyDomainContext(DomainId) override { return OkStatus(); }
    Status SyncMemory(DomainId, const AddrRange&) override { return OkStatus(); }
    Status AttachDevice(DomainId, uint16_t) override { return OkStatus(); }
    Status DetachDevice(DomainId, uint16_t) override { return OkStatus(); }
    Status BindCore(DomainId, CoreId) override { return OkStatus(); }
    Status RegisterFastPath(DomainId, CoreId) override { return OkStatus(); }
    Status FastBindCore(DomainId, CoreId) override { return OkStatus(); }
    void FlushDomain(DomainId) override {}
    Result<bool> ValidateAgainst(const CapabilityEngine&, DomainId) override {
      return true;
    }
    const char* name() const override { return "stub"; }
    using Backend::NoteFailsafeCleared;
    using Backend::NoteFailsafeEntered;
  };
  StubBackend backend;
  watchdog_.set_backend(&backend);

  watchdog_.CheckNow(1, 1);
  EXPECT_TRUE(watchdog_.backend_healthy());

  backend.NoteFailsafeEntered();
  watchdog_.CheckNow(1, 2);
  EXPECT_FALSE(watchdog_.backend_healthy());
  EXPECT_EQ(WatchdogCaptures().size(), 1u);
  watchdog_.CheckNow(1, 3);  // still dirty: no second capture
  EXPECT_EQ(WatchdogCaptures().size(), 1u);

  backend.NoteFailsafeCleared();
  watchdog_.CheckNow(1, 4);
  EXPECT_TRUE(watchdog_.backend_healthy());  // transient: recovered

  backend.NoteFailsafeEntered();
  watchdog_.CheckNow(1, 5);  // fresh edge: captures again
  EXPECT_EQ(WatchdogCaptures().size(), 2u);
}

// ===== Integration level: corruption injected under live dispatch =====

std::vector<FlightRecord> CapturesWithReason(Monitor& monitor, const std::string& reason) {
  std::vector<FlightRecord> out;
  for (const FlightRecord& record : monitor.flight_recorder().Snapshot()) {
    if (record.reason == reason) {
      out.push_back(record);
    }
  }
  return out;
}

TEST(WatchdogDispatchTest, ChainTamperCaughtByViolatingDispatchAtIntervalOne) {
  auto testbed = Testbed::Create(TestbedOptions{});
  ASSERT_TRUE(testbed.ok());
  Monitor& monitor = testbed->monitor();
  monitor.EnableWatchdog(1);

  auto poll = [&] {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
    return Dispatch(&monitor, 0, regs);
  };
  poll();
  ASSERT_TRUE(monitor.watchdog().healthy());
  ASSERT_GE(monitor.watchdog().checks(), 1u);

  {
    // The journal record of the NEXT dispatch flips a chain-head bit as it
    // lands; that dispatch's own end-of-call tick must then catch it.
    ScopedFaultPlan plan(FaultPlan::Single(faults::kJournalHeadTamper, 1));
    poll();
  }
  EXPECT_FALSE(monitor.watchdog().chain_healthy());
  EXPECT_GE(monitor.watchdog().violations(), 1u);

  // The capture's span id names the violating dispatch: with interval 1 the
  // detecting tick runs inside that same dispatch, and the fault-site delta
  // capture (taken by the dispatcher for the same call) pins its span.
  const auto watchdog_captures = CapturesWithReason(monitor, "watchdog");
  const auto fault_captures = CapturesWithReason(monitor, "fault_site");
  ASSERT_EQ(watchdog_captures.size(), 1u);
  ASSERT_EQ(fault_captures.size(), 1u);
  EXPECT_NE(watchdog_captures[0].span, 0u);
  EXPECT_EQ(watchdog_captures[0].span, fault_captures[0].span);
  EXPECT_NE(watchdog_captures[0].detail.find("journal_chain"), std::string::npos);

  // The health gauge is exported and flipped.
  const std::string metrics = RenderPrometheus(MonitorMetrics(monitor));
  EXPECT_NE(metrics.find("tyche_watchdog_healthy"), std::string::npos);
  bool saw_flipped_gauge = false;
  std::istringstream lines(metrics);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("tyche_watchdog_healthy") != std::string::npos &&
        line.find("journal_chain") != std::string::npos) {
      saw_flipped_gauge = line.size() >= 2 && line.substr(line.size() - 2) == " 0";
    }
  }
  EXPECT_TRUE(saw_flipped_gauge);
}

TEST(WatchdogDispatchTest, OwnedIndexDesyncCaughtWithinInterval) {
  auto testbed = Testbed::Create(TestbedOptions{});
  ASSERT_TRUE(testbed.ok());
  Monitor& monitor = testbed->monitor();
  constexpr uint64_t kInterval = 4;
  monitor.EnableWatchdog(kInterval);

  auto poll = [&] {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
    return Dispatch(&monitor, 0, regs);
  };

  {
    // The management capability minted by this create skips the per-owner
    // index -- silent desync, the op itself succeeds.
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEngineOwnedDesync, 1));
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(ApiOp::kCreateDomain);
    const ApiResult created = Dispatch(&monitor, 0, regs);
    ASSERT_EQ(created.error, 0u);
  }

  // Detection within N further dispatches, by construction of the interval.
  for (uint64_t i = 0; i < kInterval; ++i) {
    poll();
  }
  EXPECT_FALSE(monitor.watchdog().index_healthy());
  EXPECT_GE(monitor.watchdog().violations(), 1u);
  const auto captures = CapturesWithReason(monitor, "watchdog");
  ASSERT_GE(captures.size(), 1u);
  EXPECT_NE(captures[0].detail.find("owned_index"), std::string::npos);
}

TEST(WatchdogDispatchTest, HealthyWorkloadExportsCleanGauges) {
  auto testbed = Testbed::Create(TestbedOptions{});
  ASSERT_TRUE(testbed.ok());
  Monitor& monitor = testbed->monitor();
  monitor.EnableWatchdog(2);

  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kCreateDomain);
  ASSERT_EQ(Dispatch(&monitor, 0, regs).error, 0u);
  regs = ApiRegs{};
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  for (int i = 0; i < 8; ++i) {
    Dispatch(&monitor, 0, regs);
  }
  EXPECT_TRUE(monitor.watchdog().healthy());
  EXPECT_GE(monitor.watchdog().checks(), 4u);
  EXPECT_EQ(monitor.watchdog().violations(), 0u);
  EXPECT_TRUE(CapturesWithReason(monitor, "watchdog").empty());

  const std::string metrics = RenderPrometheus(MonitorMetrics(monitor));
  EXPECT_NE(metrics.find("tyche_watchdog_checks_total"), std::string::npos);
}

}  // namespace
}  // namespace tyche
