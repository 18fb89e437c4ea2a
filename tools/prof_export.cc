// Copyright 2026 The Tyche Reproduction Authors.
// Dispatch phase-profile exporter tool.
//
// Boots a simulated deployment with the dispatch phase profiler armed,
// drives a repetitive workload through the dispatch ABI (domain lifecycle,
// sharing, cascading revokes, attestation, interrupt polls), then renders
// where the nanoseconds went:
//
//  - folded-stack output ("op;phase count", count = accumulated ns), one
//    line per (op, phase) cell with samples -- pipe straight into
//    flamegraph.pl for an attribution flamegraph;
//  - a top-N attribution table (count, total, mean, share of all profiled
//    time) on stdout for humans and CI logs.
//
// The folded output is self-checked before it is written: it must be
// non-empty (the profiler actually ran) and every line must match the
// "frame;frame weight" shape flamegraph.pl expects, so a profiler or
// exporter regression fails the tool instead of producing a silently
// useless artifact.
//
// Usage:
//   prof_export [--folded out.folded] [--top N] [--iters N]
//
// With no --folded the folded stacks go to stdout (table to stderr so the
// two streams stay pipeable). Exit codes: 0 ok, 1 self-check failed,
// 2 usage / IO error.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/tyche/observe.h"

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

// Validates the folded-stack shape: every non-empty line is
// "frame(;frame)* <digits>" with a non-empty frame set and a positive
// weight. Returns an empty string on success, else a description.
std::string CheckFolded(const std::string& folded, size_t* lines_out) {
  size_t lines = 0;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return "line " + std::to_string(lines + 1) + " has no 'stack weight' split: " + line;
    }
    const std::string stack = line.substr(0, space);
    const std::string weight = line.substr(space + 1);
    for (const char c : weight) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return "line " + std::to_string(lines + 1) + " has a non-numeric weight: " + line;
      }
    }
    if (stack.find(';') == std::string::npos) {
      return "line " + std::to_string(lines + 1) + " has no phase frame: " + line;
    }
    if (stack.front() == ';' || stack.back() == ';') {
      return "line " + std::to_string(lines + 1) + " has an empty frame: " + line;
    }
    ++lines;
  }
  *lines_out = lines;
  if (lines == 0) {
    return "folded output is empty (profiler recorded no samples)";
  }
  return std::string();
}

int Run(const char* folded_path, size_t top_n, size_t iters) {
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

  const uint64_t scratch = testbed->Scratch(0);
  const auto os_mem = testbed->OsMemCap(AddrRange{scratch, 64 * kPageSize});
  if (!os_mem.ok()) {
    std::fprintf(stderr, "no OS memory capability found\n");
    return 2;
  }
  const uint64_t rights_policy =
      (static_cast<uint64_t>(CapRights::kAll) << 8) | RevocationPolicy::kZeroMemory;

  // Workload: `iters` full domain lifecycles so every phase -- engine
  // mutation, backend apply, journal append, telemetry record -- collects
  // enough samples for a stable attribution, plus routine interrupt polls
  // for an error-path op in the profile.
  for (size_t i = 0; i < iters; ++i) {
    const ApiResult created = call(ApiOp::kCreateDomain);
    if (created.error != 0) {
      std::fprintf(stderr, "create_domain failed on iteration %zu\n", i);
      return 2;
    }
    const uint64_t handle = created.ret1;
    const ApiResult shared = call(ApiOp::kShareMemory, *os_mem, handle, scratch,
                                  8 * kPageSize, Perms::kRW, rights_policy);
    if (shared.error != 0) {
      std::fprintf(stderr, "share_memory failed on iteration %zu\n", i);
      return 2;
    }
    call(ApiOp::kEnumerate, handle);
    if (call(ApiOp::kRevoke, shared.ret0).error != 0) {
      std::fprintf(stderr, "revoke failed on iteration %zu\n", i);
      return 2;
    }
    if (call(ApiOp::kDestroyDomain, handle).error != 0) {
      std::fprintf(stderr, "destroy_domain failed on iteration %zu\n", i);
      return 2;
    }
    if (i % 8 == 0) {
      call(ApiOp::kTakeInterrupt);  // kNotFound: routine error path
    }
  }

  const auto op_name = [](uint16_t op) {
    return std::string(ApiOpName(static_cast<ApiOp>(op)));
  };
  const std::string folded = ExportFoldedStacks(monitor.profiler(), op_name);
  size_t lines = 0;
  const std::string problem = CheckFolded(folded, &lines);
  if (!problem.empty()) {
    std::fprintf(stderr, "self-check failed: %s\n", problem.c_str());
    return 1;
  }

  const std::string table = ExportAttributionTable(monitor.profiler(), op_name, top_n);
  if (folded_path != nullptr) {
    if (!WriteFile(folded_path, folded)) {
      std::fprintf(stderr, "cannot write %s\n", folded_path);
      return 2;
    }
    std::printf("wrote %zu folded-stack lines (%zu samples) to %s\n", lines,
                static_cast<size_t>(monitor.profiler().TotalSamples()), folded_path);
    std::printf("%s", table.c_str());
  } else {
    std::fputs(folded.c_str(), stdout);
    std::fputs(table.c_str(), stderr);
  }
  return 0;
}

}  // namespace
}  // namespace tyche

int main(int argc, char** argv) {
  const char* folded_path = nullptr;
  size_t top_n = 10;
  size_t iters = 200;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) {
        return nullptr;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = value("--folded")) {
      folded_path = v;
      continue;
    }
    if (const char* v = value("--top")) {
      top_n = std::strtoull(v, nullptr, 10);
      continue;
    }
    if (const char* v = value("--iters")) {
      iters = std::strtoull(v, nullptr, 10);
      continue;
    }
    std::fprintf(stderr, "usage: %s [--folded out.folded] [--top N] [--iters N]\n",
                 argv[0]);
    return 2;
  }
  return tyche::Run(folded_path, top_n, iters);
}
