// Copyright 2026 The Tyche Reproduction Authors.
// Chrome trace_event exporter tool.
//
// Boots a simulated deployment, drives a workload through the dispatch ABI
// (domain lifecycle, sharing both ways, a cascading revoke, interrupt polls
// including the routine kNotFound misses), then converts the trace ring plus
// the audit journal's span tree into a chrome://tracing-loadable timeline
// via ExportChromeTrace(). The output is round-trip validated with
// ParseChromeTrace() before it is written, so a schema regression fails the
// tool instead of producing a file the viewer rejects.
//
// The dispatch profiler runs during the workload, and each (op, phase)
// slowest-sample exemplar is joined into the timeline as an instant event
// inside its owning dispatch slice -- a histogram outlier in the metrics
// snapshot is clickable into the trace by span id.
//
// Usage:
//   trace_export [--out trace.json] [--metrics metrics.prom]
//                [--flight flight.json] [--empty-ring]
//
// With no --out the trace JSON goes to stdout. --metrics additionally
// writes the monitor's Prometheus snapshot, --flight the post-mortem
// flight-recorder dump; both cover the same workload, so CI can archive a
// coherent artifact set from one invocation. --empty-ring skips the
// workload so the trace ring stays empty: the self-check must then fail
// with exit 1 (regression coverage for the empty-export bug, where an
// empty ring used to produce a vacuously "valid" zero-slice trace).
//
// Exit codes: 0 ok, 1 self-check failed, 2 usage / IO error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/tyche/observe.h"
#include "src/tyche/trace_export.h"

namespace tyche {
namespace {

bool WriteFile(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << content;
  return out.good();
}

int Run(const char* out_path, const char* metrics_path, const char* flight_path,
        bool empty_ring) {
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", testbed.status().ToString().c_str());
    return 2;
  }
  Monitor& monitor = testbed->monitor();
  monitor.profiler().set_enabled(true);

  auto call = [&](ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                  uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5};
    return Dispatch(&monitor, /*core=*/0, regs);
  };

  // Workload: enough op diversity that the timeline shows slices of several
  // names, nested journal ticks under the revoke cascade, and a couple of
  // flight-recorder captures from the failing interrupt polls.
  if (!empty_ring) {
    const ApiResult created_a = call(ApiOp::kCreateDomain);
    const ApiResult created_b = call(ApiOp::kCreateDomain);
    if (created_a.error != 0 || created_b.error != 0) {
      std::fprintf(stderr, "create_domain failed\n");
      return 2;
    }
    const uint64_t scratch = testbed->Scratch(0);
    const auto os_mem = testbed->OsMemCap(AddrRange{scratch, 64 * kPageSize});
    if (!os_mem.ok()) {
      std::fprintf(stderr, "no OS memory capability found\n");
      return 2;
    }
    const uint64_t rights_policy =
        (static_cast<uint64_t>(CapRights::kAll) << 8) | RevocationPolicy::kZeroMemory;
    const ApiResult shared = call(ApiOp::kShareMemory, *os_mem, created_a.ret1, scratch,
                                  8 * kPageSize, Perms::kRW, rights_policy);
    const ApiResult shared_b = call(ApiOp::kShareMemory, *os_mem, created_b.ret1,
                                    scratch, 4 * kPageSize, Perms::kRW, rights_policy);
    if (shared.error != 0 || shared_b.error != 0) {
      std::fprintf(stderr, "share_memory failed\n");
      return 2;
    }
    if (call(ApiOp::kRevoke, shared.ret0).error != 0) {
      std::fprintf(stderr, "revoke failed\n");
      return 2;
    }
    for (int i = 0; i < 8; ++i) {
      call(ApiOp::kTakeInterrupt);  // kNotFound: routine error, flight-recorded once
    }
    call(ApiOp::kEnumerate, created_b.ret1);
  }

  const std::vector<TraceEntry> trace = monitor.telemetry().ring().Snapshot();
  const std::vector<JournalRecord> records = monitor.audit().journal().Records();

  // Join the profiler's slowest-sample exemplars into the timeline so a
  // histogram outlier in the metrics snapshot is clickable by span id.
  const DispatchProfiler& profiler = monitor.profiler();
  std::vector<TraceExemplarMark> marks;
  for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      const DispatchPhase phase = static_cast<DispatchPhase>(p);
      const DispatchProfiler::ExemplarSample sample = profiler.Exemplar(op, phase);
      if (sample.ns == 0) {
        continue;
      }
      TraceExemplarMark mark;
      mark.name = "slowest " + std::string(ApiOpName(static_cast<ApiOp>(op))) + "/" +
                  DispatchPhaseName(phase);
      mark.span = sample.span;
      mark.ts_ns = sample.ts_ns;
      mark.duration_ns = sample.ns;
      marks.push_back(std::move(mark));
    }
  }

  const std::string trace_json = ExportChromeTrace(
      trace, records,
      [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); },
      [](uint8_t event) {
        return std::string(JournalEventName(static_cast<JournalEvent>(event)));
      },
      marks);

  // Self-check: the ring must be non-empty (a workload ran and tracing was
  // actually on -- an empty export used to pass vacuously), the export must
  // parse back with dispatch slices present, and every slice span must be
  // resolvable in the journal's span set.
  if (trace.empty()) {
    std::fprintf(stderr, "self-check failed: trace ring is empty (no dispatches "
                         "recorded, nothing to export)\n");
    return 1;
  }
  const auto parsed = ParseChromeTrace(trace_json);
  if (!parsed.ok()) {
    std::fprintf(stderr, "self-check failed: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  size_t slices = 0;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X") {
      ++slices;
    }
  }
  if (slices != trace.size()) {
    std::fprintf(stderr, "self-check failed: %zu slices for %zu trace entries\n", slices,
                 trace.size());
    return 1;
  }

  if (out_path != nullptr) {
    if (!WriteFile(out_path, trace_json)) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 2;
    }
    std::printf("wrote %zu bytes of trace JSON (%zu events, %zu slices) to %s\n",
                trace_json.size(), parsed->size(), slices, out_path);
  } else {
    std::fputs(trace_json.c_str(), stdout);
    std::fputc('\n', stdout);
  }

  if (metrics_path != nullptr) {
    const std::string metrics = RenderPrometheus(MonitorMetrics(monitor));
    if (!WriteFile(metrics_path, metrics)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path);
      return 2;
    }
    std::printf("wrote %zu bytes of metrics to %s\n", metrics.size(), metrics_path);
  }
  if (flight_path != nullptr) {
    const std::string flight = ExportFlightJson(
        monitor.flight_recorder(),
        [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); },
        MonitorCounterName);
    if (!WriteFile(flight_path, flight)) {
      std::fprintf(stderr, "cannot write %s\n", flight_path);
      return 2;
    }
    std::printf("wrote %zu bytes of flight records to %s\n", flight.size(), flight_path);
  }
  return 0;
}

}  // namespace
}  // namespace tyche

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  const char* metrics_path = nullptr;
  const char* flight_path = nullptr;
  bool empty_ring = false;
  for (int i = 1; i < argc; ++i) {
    auto take = [&](const char* flag, const char** slot) {
      if (std::strcmp(argv[i], flag) != 0) {
        return false;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a file argument\n", flag);
        std::exit(2);
      }
      *slot = argv[++i];
      return true;
    };
    if (take("--out", &out_path) || take("--metrics", &metrics_path) ||
        take("--flight", &flight_path)) {
      continue;
    }
    if (std::strcmp(argv[i], "--empty-ring") == 0) {
      empty_ring = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--out trace.json] [--metrics metrics.prom] "
                 "[--flight flight.json] [--empty-ring]\n",
                 argv[0]);
    return 2;
  }
  return tyche::Run(out_path, metrics_path, flight_path, empty_ring);
}
