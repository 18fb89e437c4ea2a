// Copyright 2026 The Tyche Reproduction Authors.
// Shared setup for the example programs: a booted machine with LinOS as the
// initial domain, plus small printing helpers.

#ifndef EXAMPLES_DEMO_COMMON_H_
#define EXAMPLES_DEMO_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/boot.h"
#include "src/monitor/dispatch.h"
#include "src/os/kernel.h"
#include "src/support/profiler.h"
#include "src/support/trace_export.h"
#include "src/tyche/loader.h"

namespace tyche {

constexpr uint64_t kMiB = 1ull << 20;

struct DemoWorld {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Monitor> monitor;
  std::unique_ptr<LinOs> os;
  DomainId os_domain = kInvalidDomain;
  Digest golden_firmware;
  Digest golden_monitor;
  std::vector<uint8_t> firmware_image = DemoFirmwareImage();
  std::vector<uint8_t> monitor_image = DemoMonitorImage();

  CapId OsMemCap(AddrRange range) { return *FindMemoryCap(*monitor, os_domain, range); }
  CapId OsCoreCap(CoreId core) {
    return *FindUnitCap(*monitor, os_domain, ResourceKind::kCpuCore, core);
  }
  CapId OsDeviceCap(uint16_t bdf) {
    return *FindUnitCap(*monitor, os_domain, ResourceKind::kPciDevice, bdf);
  }
  // Kernel-reserved scratch space for direct domain placement.
  uint64_t Scratch(uint64_t offset) const { return monitor->monitor_range().end() + offset; }
};

inline DemoWorld MakeDemoWorld(IsaArch arch = IsaArch::kX86_64,
                               uint64_t memory_bytes = 128ull << 20, bool with_gpu = false,
                               bool with_nic = false) {
  DemoWorld world;
  MachineConfig config;
  config.arch = arch;
  config.memory_bytes = memory_bytes;
  config.num_cores = 4;
  world.machine = std::make_unique<Machine>(config);
  if (with_gpu) {
    (void)world.machine->AddDevice(std::make_unique<GpuDevice>(PciBdf(0, 4, 0), "gpu0"));
  }
  if (with_nic) {
    (void)world.machine->AddDevice(std::make_unique<DmaEngine>(PciBdf(0, 3, 0), "nic0"));
  }

  BootParams params;
  params.firmware_image = world.firmware_image;
  params.monitor_image = world.monitor_image;
  auto outcome = MeasuredBoot(world.machine.get(), params);
  if (!outcome.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", outcome.status().ToString().c_str());
    std::abort();
  }
  world.monitor = std::move(outcome->monitor);
  world.os_domain = outcome->initial_domain;
  world.golden_firmware = outcome->firmware_measurement;
  world.golden_monitor = outcome->monitor_measurement;

  // Opt-in observability for CI and ad-hoc runs, armed up front so the
  // whole demo workload is covered: TYCHE_PROF_OUT=<path> enables the
  // dispatch phase profiler (DumpObservability writes the folded stacks
  // there on exit); TYCHE_WATCHDOG_N=<n> arms the invariant watchdog to
  // check every n dispatches.
  if (const char* prof = std::getenv("TYCHE_PROF_OUT"); prof != nullptr && *prof) {
    world.monitor->profiler().set_enabled(true);
  }
  if (const char* wd = std::getenv("TYCHE_WATCHDOG_N"); wd != nullptr && *wd) {
    world.monitor->EnableWatchdog(std::strtoull(wd, nullptr, 10));
  }

  const uint64_t os_base = world.monitor->monitor_range().end();
  const uint64_t os_size = memory_bytes - os_base;
  world.os = std::make_unique<LinOs>(
      world.monitor.get(), world.os_domain,
      *FindMemoryCap(*world.monitor, world.os_domain, AddrRange{os_base, os_size}),
      AddrRange{os_base + os_size / 2, os_size / 2});
  return world;
}

#define DEMO_CHECK(expr)                                                      \
  do {                                                                        \
    if (!(expr)) {                                                            \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__, #expr);   \
      std::abort();                                                           \
    }                                                                         \
  } while (0)

inline void Banner(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Prints the per-op latency table, every nonzero registry scalar, and the
// audit-journal summary, then closes the loop: exports the journal and
// verifies it offline (hash chain, checkpoint signatures, shadow replay
// against the live capability graph), the same path a remote verifier would
// run on a captured journal.
inline void DumpObservability(Monitor& monitor) {
  Banner("observability");
  // Taken before the profiling load below, so TYCHE_TRACE_OUT shows the
  // demo's own dispatches.
  const std::vector<TraceEntry> trace = monitor.telemetry().ring().Snapshot();
  const auto op_name = [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); };
  std::printf("%s", monitor.telemetry().SummaryText(op_name).c_str());
  for (const auto& [series, value] : monitor.metrics().ScalarValues()) {
    if (value != 0) {
      std::printf("%s %llu\n", series.c_str(), static_cast<unsigned long long>(value));
    }
  }
  std::printf("%s\n", monitor.audit().Summary().c_str());
  const std::vector<uint8_t> wire = monitor.ExportJournal();
  const std::string graph_json = ExportCapabilityGraphJson(monitor.engine());
  const Status verdict =
      RemoteVerifier::VerifyJournal(wire, monitor.public_key(), &graph_json);
  std::printf("offline journal verification (%zu bytes): %s\n", wire.size(),
              verdict.ok() ? "chain + checkpoint signatures + graph replay OK"
                           : verdict.ToString().c_str());
  DEMO_CHECK(verdict.ok());

  // The demos exercise the high-level Monitor API; the phase profiler and
  // the invariant watchdog instrument the raw dispatch ABI boundary. When
  // profiling was armed, drive a short representative ABI load over the
  // demo's final world state so the folded stacks have samples and the
  // watchdog has dispatches to check -- the profile attributes dispatch
  // phases on this world, not the high-level demo calls themselves.
  if (monitor.profiler().enabled()) {
    const auto call = [&monitor](ApiOp op, uint64_t a0 = 0) {
      ApiRegs regs{static_cast<uint64_t>(op), a0, 0, 0, 0, 0, 0};
      return Dispatch(&monitor, /*core=*/0, regs);
    };
    for (int i = 0; i < 64; ++i) {
      const ApiResult created = call(ApiOp::kCreateDomain);
      if (created.error != 0) {
        break;  // pool exhausted by the demo: keep whatever was profiled
      }
      (void)call(ApiOp::kEnumerate, created.ret1);
      (void)call(ApiOp::kDestroyDomain, created.ret1);
      (void)call(ApiOp::kTakeInterrupt);  // routine kNotFound error path
    }
  }

  // Optional scrape artifacts for CI and ad-hoc inspection: set
  // TYCHE_METRICS_OUT / TYCHE_TRACE_OUT / TYCHE_FLIGHT_OUT to file paths and
  // the demo writes the Prometheus snapshot, the chrome://tracing timeline,
  // and the flight-recorder dump alongside its normal output.
  const auto write_artifact = [](const char* env, const std::string& body,
                                 const char* what) {
    const char* path = std::getenv(env);
    if (path == nullptr || *path == '\0') {
      return;
    }
    std::ofstream out(path, std::ios::trunc);
    out << body;
    out.close();
    std::printf("wrote %s to %s (%zu bytes)\n", what, path, body.size());
    DEMO_CHECK(out.good());
  };
  write_artifact("TYCHE_METRICS_OUT", monitor.ExportMetrics(), "metrics snapshot");
  write_artifact(
      "TYCHE_TRACE_OUT",
      ExportChromeTrace(
          trace, monitor.audit().journal().Records(),
          [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); },
          [](uint8_t event) {
            return std::string(JournalEventName(static_cast<JournalEvent>(event)));
          }),
      "chrome trace");
  write_artifact("TYCHE_FLIGHT_OUT",
                 monitor.flight_recorder().DumpJson([](uint16_t op) {
                   return std::string(ApiOpName(static_cast<ApiOp>(op)));
                 }),
                 "flight-recorder dump");
  write_artifact("TYCHE_PROF_OUT",
                 ExportFoldedStacks(monitor.profiler(), [](uint16_t op) {
                   return std::string(ApiOpName(static_cast<ApiOp>(op)));
                 }),
                 "folded phase stacks");
}

}  // namespace tyche

#endif  // EXAMPLES_DEMO_COMMON_H_
