// Copyright 2026 The Tyche Reproduction Authors.
// Fleet observability end-to-end: every signal the monitor's typed views
// report (stats(), backend().stats(), the trace ring, the journal) must be
// reachable through Monitor::ExportMetrics() (the Prometheus scrape), the
// flight recorder must capture fault-injected dispatch failures with the
// causal span id of the failing call, and the counter kill switch must
// freeze accounting without breaking the scrape.

#include <gtest/gtest.h>

#include <string>

#include "src/monitor/dispatch.h"
#include "src/support/faults.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class MetricsExportTest : public BootedMachineTest {
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

  // Runs create -> share -> revoke plus a few failing take-interrupts, the
  // same shape the telemetry-observability test validates against the
  // monitor's typed views.
  void RunWorkload() {
    const ApiResult created = Call(0, ApiOp::kCreateDomain);
    ASSERT_EQ(created.error, 0u);
    const AddrRange window = Scratch(kMiB, kMiB);
    const ApiResult shared =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1, window.base,
             window.size, Perms::kRW, Pack(CapRights::kAll, 0));
    ASSERT_EQ(shared.error, 0u);
    ASSERT_EQ(Call(0, ApiOp::kRevoke, shared.ret0).error, 0u);
    for (int i = 0; i < 4; ++i) {
      ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);
    }
  }

  // One exposed sample line, exactly as the scrape renders it.
  static std::string Sample(const std::string& series, uint64_t value) {
    return series + " " + std::to_string(value) + "\n";
  }
};

TEST_F(MetricsExportTest, ExportCoversEveryTypedStatsSignal) {
  RunWorkload();
  const MonitorStats stats = monitor_->stats();
  const std::string text = monitor_->ExportMetrics();

  // Every family the registry promises (and CI's check_metrics_format.py
  // requires) is present with its TYPE line.
  const char* kFamilies[] = {
      "tyche_api_calls_total",
      "tyche_dispatch_latency_ns",
      "tyche_transitions_total",
      "tyche_capability_ops_total",
      "tyche_revocations_cascaded_total",
      "tyche_recoveries_total",
      "tyche_effects_total",
      "tyche_backend_ops_total",
      "tyche_journal_records",
      "tyche_journal_checkpoints",
      "tyche_journal_group_commit_batches_total",
      "tyche_journal_group_commit_records_total",
      "tyche_journal_group_commit_max_batch",
      "tyche_trace_recorded_total",
      "tyche_trace_dropped_total",
      "tyche_lock_contention_total",
      "tyche_fault_injections_fired_total",
      "tyche_fault_injection_active",
      "tyche_domains_alive",
      "tyche_flight_captures_total",
  };
  for (const char* family : kFamilies) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "family missing from scrape: " << family;
  }

  // Counter samples agree with the typed stats view.
  const auto op_calls = [&stats](ApiOp op) {
    return stats.api_calls[static_cast<size_t>(op)];
  };
  EXPECT_NE(text.find(Sample("tyche_api_calls_total{op=\"create_domain\"}",
                             op_calls(ApiOp::kCreateDomain))),
            std::string::npos);
  EXPECT_NE(text.find(Sample("tyche_api_calls_total{op=\"take_interrupt\"}",
                             op_calls(ApiOp::kTakeInterrupt))),
            std::string::npos);
  EXPECT_NE(text.find(Sample("tyche_capability_ops_total{kind=\"share\"}", stats.shares)),
            std::string::npos);
  EXPECT_NE(
      text.find(Sample("tyche_capability_ops_total{kind=\"revoke\"}", stats.revokes)),
      std::string::npos);
  EXPECT_NE(text.find(Sample("tyche_revocations_cascaded_total",
                             stats.revocations_cascaded)),
            std::string::npos);

  // Pull callbacks agree with their owners: trace accounting, journal chain
  // length, live-domain gauge, backend projection counters.
  EXPECT_NE(text.find(Sample("tyche_trace_recorded_total",
                             monitor_->telemetry().ring().recorded())),
            std::string::npos);
  EXPECT_NE(text.find(Sample("tyche_domains_alive", monitor_->num_domains_alive())),
            std::string::npos);
  EXPECT_NE(text.find(Sample("tyche_journal_records", monitor_->audit().journal().size())),
            std::string::npos);
  const std::string backend_series = std::string("tyche_backend_ops_total{backend=\"") +
                                     monitor_->backend().name() +
                                     "\",op=\"memory_syncs\"}";
  EXPECT_NE(text.find(Sample(backend_series, monitor_->backend().stats().memory_syncs)),
            std::string::npos);

  // The per-op latency histogram made it across: the share op's histogram
  // rendered with its sample count and a terminating +Inf bucket.
  EXPECT_NE(text.find("tyche_dispatch_latency_ns_count{op=\"share_memory\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tyche_dispatch_latency_ns_bucket{op=\"share_memory\",le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST_F(MetricsExportTest, FaultInjectedDispatchErrorCapturesFlightRecord) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const AddrRange window = Scratch(kMiB, kMiB);

  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kVtxSyncMemory, /*trigger=*/1));
    const ApiResult shared =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1, window.base,
             window.size, Perms::kRW, Pack(CapRights::kAll, 0));
    EXPECT_EQ(shared.error, static_cast<uint64_t>(ErrorCode::kAccessViolation));
  }

  // The failing dispatch is the newest trace entry; the flight record must
  // carry the SAME span id, tying the post-mortem to the causal trail.
  const std::vector<TraceEntry> trace = monitor_->telemetry().ring().Snapshot();
  ASSERT_FALSE(trace.empty());
  const TraceEntry& failing = trace.back();
  ASSERT_EQ(failing.op, static_cast<uint16_t>(ApiOp::kShareMemory));
  ASSERT_NE(failing.span, 0u);

  const auto records = monitor_->flight_recorder().Snapshot();
  ASSERT_FALSE(records.empty());
  const FlightRecord& record = records.back();
  EXPECT_EQ(record.reason, "fault_site");
  EXPECT_EQ(record.op, static_cast<uint16_t>(ApiOp::kShareMemory));
  EXPECT_EQ(record.span, failing.span);
  EXPECT_EQ(record.error, static_cast<uint64_t>(ErrorCode::kAccessViolation));
  EXPECT_NE(record.detail.find("vtx.sync_memory"), std::string::npos);
  // The capture snapshotted the trace up to and including the failing call,
  // and saw the counters move since the recorder's baseline.
  ASSERT_FALSE(record.trace.empty());
  EXPECT_EQ(record.trace.back().span, failing.span);
  EXPECT_FALSE(record.metrics_delta.empty());

  // The lifetime injection counter is visible on the scrape.
  EXPECT_NE(monitor_->ExportMetrics().find("tyche_fault_injections_fired_total"),
            std::string::npos);

  // JSON dump renders the record for artifacts.
  const std::string json = monitor_->flight_recorder().DumpJson(
      [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); });
  EXPECT_NE(json.find("\"reason\":\"fault_site\""), std::string::npos);
  EXPECT_NE(json.find("share_memory"), std::string::npos);
}

TEST_F(MetricsExportTest, DispatchErrorsAreDedupedByShape) {
  monitor_->flight_recorder().Clear();
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);
  }
  size_t dispatch_errors = 0;
  for (const FlightRecord& record : monitor_->flight_recorder().Snapshot()) {
    if (record.reason == "dispatch_error" &&
        record.op == static_cast<uint16_t>(ApiOp::kTakeInterrupt)) {
      ++dispatch_errors;
    }
  }
  // Eight identical (op, error) failures -> one post-mortem record.
  EXPECT_EQ(dispatch_errors, 1u);
}

TEST_F(MetricsExportTest, CounterKillSwitchFreezesAccounting) {
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  const uint64_t before =
      monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)];
  ASSERT_GE(before, 1u);

  monitor_->set_counters_enabled(false);
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)],
            before);

  // Re-enabling resumes from the frozen value; the scrape works throughout.
  monitor_->set_counters_enabled(true);
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)],
            before + 1);
  EXPECT_NE(monitor_->ExportMetrics().find("tyche_api_calls_total"), std::string::npos);
}

}  // namespace
}  // namespace tyche
