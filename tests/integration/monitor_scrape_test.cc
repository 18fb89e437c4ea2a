// Copyright 2026 The Tyche Reproduction Authors.
// The monitor's Prometheus scrape, pinned line for line on both backends.
//
// Each golden under tests/integration/testdata/ is the scrape of the fixed
// serial workload below, captured when the monitor still named its own
// metrics (a registry of counters and pull callbacks inside the TCB), with
// only the timing-driven values masked: histogram bucket lines are dropped,
// and the value of every `_sum`, slowest-sample exemplar and wait-ns series
// reads `*`. Everything else is pinned: each family's HELP and TYPE line,
// every series name with its labels in scrape order, every counter and
// gauge value, and every histogram `_count`. A change that alters one of
// them changes what dashboards read, not a golden to update.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/monitor/dispatch.h"
#include "src/tyche/observe.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

// Series whose value the clock decides.
bool TimingDriven(const std::string& name) {
  const auto ends_with = [&name](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with("_sum") || name.rfind("tyche_dispatch_phase_slowest_", 0) == 0 ||
         name.find("wait_ns") != std::string::npos;
}

std::vector<std::string> MaskedScrape(const std::string& scrape) {
  std::vector<std::string> lines;
  std::istringstream in(scrape);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      lines.push_back(line);
      continue;
    }
    const std::string series = line.substr(0, line.rfind(' '));
    const std::string name = series.substr(0, series.find('{'));
    if (name.size() >= 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
      continue;
    }
    lines.push_back(TimingDriven(name) ? series + " *" : line);
  }
  return lines;
}

std::vector<std::string> ReadGolden(const std::string& file) {
  std::vector<std::string> lines;
  std::ifstream in(std::string(TYCHE_TESTDATA_DIR) + "/" + file);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// create, share, revoke, grant, enumerate, destroy, one failing revoke and
// four failing interrupt takes, all through Dispatch(), with the journal on
// and the watchdog checking every second call. The profiler stays off: its
// per-phase sample counts depend on which phases took measurable time.
void RunWorkload(BootedMachine& world) {
  Monitor* monitor = world.monitor_.get();
  monitor->EnableWatchdog(2);
  const auto call = [monitor](ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                              uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    return Dispatch(monitor, 0, ApiRegs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5});
  };
  const uint64_t all_rights = static_cast<uint64_t>(CapRights::kAll) << 8;

  const ApiResult created = call(ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const AddrRange shared_window = world.Scratch(BootedMachine::kMiB, BootedMachine::kMiB);
  const ApiResult shared =
      call(ApiOp::kShareMemory, world.OsMemCap(shared_window), created.ret1,
           shared_window.base, shared_window.size, Perms::kRW, all_rights);
  ASSERT_EQ(shared.error, 0u);
  ASSERT_EQ(call(ApiOp::kRevoke, shared.ret0).error, 0u);
  const AddrRange granted_window =
      world.Scratch(2 * BootedMachine::kMiB, BootedMachine::kMiB);
  ASSERT_EQ(call(ApiOp::kGrantMemory, world.OsMemCap(granted_window), created.ret1,
                 granted_window.base, granted_window.size, Perms::kRW, all_rights)
                .error,
            0u);
  ASSERT_EQ(call(ApiOp::kEnumerate, created.ret1).error, 0u);
  ASSERT_NE(call(ApiOp::kRevoke, /*cap=*/0xdead).error, 0u);
  ASSERT_EQ(call(ApiOp::kDestroyDomain, created.ret1).error, 0u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(call(ApiOp::kTakeInterrupt).error, 0u);
  }
}

struct PinCase {
  IsaArch arch;
  const char* golden;
};

const PinCase kCases[] = {
    {IsaArch::kX86_64, "monitor_scrape_vtx.txt"},
    {IsaArch::kRiscV, "monitor_scrape_pmp.txt"},
};

TEST(MonitorScrapeTest, ScrapeMatchesThePinnedLines) {
  for (const PinCase& pin : kCases) {
    SCOPED_TRACE(pin.golden);
    BootedMachine::FixtureOptions options;
    options.arch = pin.arch;
    BootedMachine world(options);
    RunWorkload(world);
    const std::vector<std::string> actual =
        MaskedScrape(RenderPrometheus(MonitorMetrics(*world.monitor_)));
    const std::vector<std::string> expected = ReadGolden(pin.golden);
    ASSERT_FALSE(expected.empty()) << "golden file missing or empty";
    for (size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
      ASSERT_EQ(i < actual.size() ? actual[i] : "<end of scrape>",
                i < expected.size() ? expected[i] : "<end of golden>")
          << "first difference at line " << i + 1;
    }
  }
}

}  // namespace
}  // namespace tyche
