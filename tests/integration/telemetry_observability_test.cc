// Copyright 2026 The Tyche Reproduction Authors.
// End-to-end observability: drive a create→share→revoke sequence through
// the register-level ABI and assert the telemetry subsystem saw exactly
// what happened -- trace entries in order, per-op latency histograms,
// effect counters by kind, backend projection counters, the capability
// graph with refcounts, and the kWarn/kTrace audit log lines.

#include <gtest/gtest.h>

#include "src/capability/graph_export.h"
#include "src/monitor/dispatch.h"
#include "src/support/log.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class TelemetryObservabilityTest : public BootedMachineTest {
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

TEST_F(TelemetryObservabilityTest, TraceMatchesIssuedOps) {
  // create → share → revoke, all through Dispatch().
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const uint64_t handle = created.ret1;

  const AddrRange window = Scratch(kMiB, kMiB);
  const ApiResult shared =
      Call(0, ApiOp::kShareMemory, OsMemCap(window), handle, window.base, window.size,
           Perms::kRW, Pack(CapRights::kAll, 0));
  ASSERT_EQ(shared.error, 0u);
  const uint64_t share_cap = shared.ret0;

  ASSERT_EQ(Call(0, ApiOp::kRevoke, share_cap).error, 0u);

  // The trace holds exactly the three issued ops, in order, attributed to
  // the OS domain on core 0, all successful.
  const TraceRing& ring = monitor_->telemetry().ring();
  const std::vector<TraceEntry> trace = ring.Snapshot();
  ASSERT_EQ(trace.size(), 3u);
  const ApiOp expected[] = {ApiOp::kCreateDomain, ApiOp::kShareMemory, ApiOp::kRevoke};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace[i].op, static_cast<uint16_t>(expected[i]));
    EXPECT_EQ(trace[i].core, 0u);
    EXPECT_EQ(trace[i].domain, os_domain_);
    EXPECT_EQ(trace[i].error, 0u);
    EXPECT_EQ(trace[i].seq, i);
  }
  // Different registers produced different argument digests.
  EXPECT_NE(trace[1].args_digest, trace[2].args_digest);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);

  // Per-op latency histograms carry one sample each.
  const auto latency = [this](ApiOp op) {
    return monitor_->telemetry().OpHistogram(static_cast<size_t>(op));
  };
  EXPECT_EQ(latency(ApiOp::kCreateDomain).count, 1u);
  EXPECT_EQ(latency(ApiOp::kShareMemory).count, 1u);
  EXPECT_EQ(latency(ApiOp::kRevoke).count, 1u);
  EXPECT_GT(latency(ApiOp::kShareMemory).Percentile(99), 0u);

  // Engine-event and effect counters: one share, one revoke that cascaded,
  // at least one map and one unmap effect.
  const MonitorStats stats = monitor_->stats();
  EXPECT_EQ(stats.shares, 1u);
  EXPECT_EQ(stats.revokes, 1u);
  EXPECT_GE(stats.revocations_cascaded, 1u);
  using Kind = CapEffect::Kind;
  EXPECT_GE(stats.effects_by_kind[static_cast<size_t>(Kind::kMapMemory)], 1u);
  EXPECT_GE(stats.effects_by_kind[static_cast<size_t>(Kind::kUnmapMemory)], 1u);

  // The backend did real work projecting those policies.
  const BackendStats& backend = monitor_->backend().stats();
  EXPECT_GE(backend.memory_syncs, 2u);  // share + revoke
  EXPECT_GE(backend.pages_mapped, window.size / kPageSize);
  EXPECT_GE(backend.pages_unmapped, window.size / kPageSize);

  // The summary is printable and names the ops.
  const std::string text = monitor_->telemetry().SummaryText(
      [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); });
  EXPECT_NE(text.find("share_memory"), std::string::npos);
  EXPECT_NE(text.find("revoke"), std::string::npos);
}

TEST_F(TelemetryObservabilityTest, CapabilityGraphExportCarriesRefcounts) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const uint64_t handle = created.ret1;
  const AddrRange window = Scratch(kMiB, kMiB);
  const ApiResult shared =
      Call(0, ApiOp::kShareMemory, OsMemCap(window), handle, window.base, window.size,
           Perms::kRW, Pack(CapRights::kAll, 0));
  ASSERT_EQ(shared.error, 0u);

  // DOT: valid digraph with lineage edges and the shared window at
  // refcount 2 (OS + child both hold the bytes).
  const std::string dot = ExportCapabilityGraphDot(monitor_->engine());
  EXPECT_NE(dot.find("digraph capabilities"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("refcount=2"), std::string::npos);
  // JSON: parseable structure with nodes, edges, and a ref_count 2 node.
  const std::string json = ExportCapabilityGraphJson(monitor_->engine());
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"edges\":["), std::string::npos);
  EXPECT_NE(json.find("\"ref_count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"origin\":\"share\""), std::string::npos);

  // Revoking the share reclaims the node: it leaves both exports, and the
  // lineage history lives in the journal instead.
  ASSERT_EQ(Call(0, ApiOp::kRevoke, shared.ret0).error, 0u);
  const std::string active_only =
      ExportCapabilityGraphJson(monitor_->engine(), {.include_inactive = false});
  EXPECT_EQ(active_only.find("\"origin\":\"share\""), std::string::npos);
  const std::string full = ExportCapabilityGraphJson(monitor_->engine());
  EXPECT_EQ(full.find("\"origin\":\"share\""), std::string::npos);
  EXPECT_EQ(full.find("\"state\":\"revoked\""), std::string::npos);
  EXPECT_EQ(monitor_->engine().Get(shared.ret0).code(), ErrorCode::kCapabilityRevoked);
}

TEST_F(TelemetryObservabilityTest, TelemetryOffRecordsNothing) {
  monitor_->telemetry().set_trace_enabled(false);
  monitor_->telemetry().set_histograms_enabled(false);
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  EXPECT_TRUE(monitor_->telemetry().ring().Snapshot().empty());
  EXPECT_EQ(
      monitor_->telemetry().OpHistogram(static_cast<size_t>(ApiOp::kCreateDomain)).count,
      0u);
  // Counters still work: they are part of enforcement accounting, not the
  // optional tracing layer.
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)], 1u);
}

TEST_F(TelemetryObservabilityTest, RingOverflowCountsDrops) {
  // A burst larger than the ring: oldest entries are overwritten, drop
  // accounting stays exact.
  const size_t capacity = monitor_->telemetry().ring().capacity();
  const size_t burst = capacity + 64;
  for (size_t i = 0; i < burst; ++i) {
    ASSERT_EQ(Call(0, ApiOp::kTakeInterrupt).error,
              static_cast<uint64_t>(ErrorCode::kNotFound));
  }
  const TraceRing& ring = monitor_->telemetry().ring();
  const std::vector<TraceEntry> trace = ring.Snapshot();
  EXPECT_EQ(trace.size(), capacity);
  EXPECT_EQ(ring.recorded(), burst);
  EXPECT_EQ(ring.dropped(), 64u);
  // Failed calls are traced too, with their error code.
  EXPECT_EQ(trace.back().error, static_cast<uint64_t>(ErrorCode::kNotFound));
}

TEST_F(TelemetryObservabilityTest, SealedShareDenialLogsWarn) {
  // Build and seal an enclave-like domain, then watch a capturing sink see
  // the kWarn security rejection when the OS tries to extend it.
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const uint64_t handle = created.ret1;
  const AddrRange window = Scratch(kMiB, kMiB);
  ASSERT_EQ(Call(0, ApiOp::kGrantMemory, OsMemCap(window), handle, window.base,
                 window.size, Perms::kRWX, Pack(CapRights::kAll, 0))
                .error,
            0u);
  ASSERT_EQ(Call(0, ApiOp::kSetEntryPoint, handle, window.base).error, 0u);
  ASSERT_EQ(Call(0, ApiOp::kSeal, handle).error, 0u);

  std::vector<std::pair<LogLevel, std::string>> captured;
  Logger::Get().set_sink([&captured](LogLevel level, const std::string& message) {
    captured.emplace_back(level, message);
  });
  const LogLevel saved = Logger::Get().level();
  Logger::Get().set_level(LogLevel::kWarn);

  const AddrRange extra = Scratch(4 * kMiB, kMiB);
  const ApiResult denied =
      Call(0, ApiOp::kShareMemory, OsMemCap(extra), handle, extra.base, extra.size,
           Perms::kRW, Pack(CapRights::kAll, 0));
  EXPECT_EQ(denied.error, static_cast<uint64_t>(ErrorCode::kDomainSealed));

  Logger::Get().set_level(saved);
  Logger::Get().set_sink(nullptr);

  ASSERT_FALSE(captured.empty());
  bool saw_denial = false;
  for (const auto& [level, message] : captured) {
    if (level == LogLevel::kWarn &&
        message.find("sealing rules deny transfer") != std::string::npos) {
      saw_denial = true;
    }
  }
  EXPECT_TRUE(saw_denial);
}

TEST_F(TelemetryObservabilityTest, RevocationCascadeEmitsTraceLines) {
  // OS shares to child A, A shares onward to child B; revoking the root of
  // the share subtree cascades through both and logs one kTrace line per
  // deactivated capability, carrying the visited-set size.
  const ApiResult a = Call(0, ApiOp::kCreateDomain);
  const ApiResult b = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(a.error, 0u);
  ASSERT_EQ(b.error, 0u);

  const AddrRange window = Scratch(kMiB, kMiB);
  const ApiResult to_a =
      Call(0, ApiOp::kShareMemory, OsMemCap(window), a.ret1, window.base, window.size,
           Perms::kRW, Pack(CapRights::kAll, 0));
  ASSERT_EQ(to_a.error, 0u);

  std::vector<std::string> trace_lines;
  Logger::Get().set_sink([&trace_lines](LogLevel level, const std::string& message) {
    if (level == LogLevel::kTrace) {
      trace_lines.push_back(message);
    }
  });
  const LogLevel saved = Logger::Get().level();
  Logger::Get().set_level(LogLevel::kTrace);

  ASSERT_EQ(Call(0, ApiOp::kRevoke, to_a.ret0).error, 0u);

  Logger::Get().set_level(saved);
  Logger::Get().set_sink(nullptr);

  ASSERT_FALSE(trace_lines.empty());
  for (const std::string& line : trace_lines) {
    if (line.find("revoke cascade") != std::string::npos) {
      EXPECT_NE(line.find("visited="), std::string::npos);
      return;
    }
  }
  FAIL() << "no revoke-cascade trace line captured";
}

}  // namespace
}  // namespace tyche
