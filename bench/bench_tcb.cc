// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C7: TCB minimality (§3.5 / §4).
// Paper claims: the monitor is "minimal (<10K LOC)" and "orders of magnitude
// smaller ... than a typical monolithic kernel or hypervisor", with a
// "narrow API". This harness measures OUR reproduction the same way:
// lines of code per module (what a verifier must trust), the external API
// surface, and the per-domain metadata footprint.
//
// Not a timing benchmark: prints a table. Exits non-zero when the TCB total
// exceeds kTcbBudget (or the source tree cannot be found), so the tcb_budget
// ctest fails on any growth that a reviewed diff has not budgeted for.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/monitor/monitor.h"
#include "src/monitor/vtx_backend.h"
#include "src/os/testbed.h"
#include "src/tyche/enclave.h"

namespace tyche {
namespace {

// TCB code lines this tree is allowed. Lower it when a change shrinks the
// TCB; raising it is a deliberate, reviewed decision. The paper's bar is
// 10 000 (§3.5).
constexpr uint64_t kTcbBudget = 9977;

struct ModuleCount {
  std::string name;
  uint64_t files = 0;
  uint64_t lines = 0;
  uint64_t code_lines = 0;  // excluding blanks and pure comments
};

ModuleCount CountModule(const std::filesystem::path& dir, const std::string& name) {
  ModuleCount count;
  count.name = name;
  if (!std::filesystem::exists(dir)) {
    return count;
  }
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    ++count.files;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      ++count.lines;
      const size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos) {
        continue;  // blank
      }
      if (line.compare(first, 2, "//") == 0) {
        continue;  // comment
      }
      ++count.code_lines;
    }
  }
  return count;
}

std::filesystem::path FindSourceRoot() {
  // Walk up from the CWD until a directory containing src/monitor appears.
  std::filesystem::path current = std::filesystem::current_path();
  for (int depth = 0; depth < 6; ++depth) {
    if (std::filesystem::exists(current / "src" / "monitor")) {
      return current;
    }
    current = current.parent_path();
  }
  return {};
}

int Run() {
  std::printf("=== C7: TCB accounting ===\n\n");
  const std::filesystem::path root = FindSourceRoot();
  if (root.empty()) {
    std::printf("source tree not found from CWD; cannot check the TCB budget\n");
    return 1;
  }
  uint64_t tcb_code = 0;
  // The TRUSTED computing base is what enforces + attests isolation:
  // capability engine, monitor, backends, crypto. The hardware model and
  // the OS are explicitly NOT in the TCB.
  const std::vector<std::pair<std::string, std::string>> modules = {
      {"src/capability", "capability engine   [TCB]"},
      {"src/monitor", "isolation monitor   [TCB]"},
      {"src/crypto", "crypto (hash/sign)  [TCB]"},
      {"src/support", "support lib         [TCB]"},
      {"src/tyche", "libtyche            [untrusted]"},
      {"src/os", "LinOS               [untrusted]"},
      {"src/hw", "hardware model      [substrate]"},
      {"src/baseline", "baselines           [harness]"},
  };
  std::printf("%-34s %6s %8s %10s\n", "module", "files", "lines", "code-lines");
  for (const auto& [dir, label] : modules) {
    const ModuleCount count = CountModule(root / dir, label);
    std::printf("%-34s %6llu %8llu %10llu\n", label.c_str(),
                static_cast<unsigned long long>(count.files),
                static_cast<unsigned long long>(count.lines),
                static_cast<unsigned long long>(count.code_lines));
    if (label.find("[TCB]") != std::string::npos) {
      tcb_code += count.code_lines;
    }
  }
  std::printf("\nTCB total (code lines):            %llu   (paper target: < 10,000)\n",
              static_cast<unsigned long long>(tcb_code));
  std::printf("TCB budget (kTcbBudget):           %llu\n",
              static_cast<unsigned long long>(kTcbBudget));
  std::printf("Linux kernel for comparison:       > 20,000,000\n");

  std::printf("\n--- API surface ---\n");
  std::printf("monitor API operations:            %d\n", static_cast<int>(ApiOp::kOpCount));
  for (int op = 0; op < static_cast<int>(ApiOp::kOpCount); ++op) {
    std::printf("  %2d. %s\n", op + 1, ApiOpName(static_cast<ApiOp>(op)));
  }
  std::printf("(Linux syscall surface for comparison: ~450 syscalls + ioctls)\n");

  std::printf("\n--- per-domain monitor metadata ---\n");
  auto testbed = Testbed::Create(TestbedOptions{});
  if (testbed.ok()) {
    auto* backend = dynamic_cast<VtxBackend*>(&testbed->monitor().backend());
    const uint64_t before = backend != nullptr ? backend->TotalTableFrames() : 0;
    const TycheImage image = TycheImage::MakeDemo("probe", kPageSize, 0);
    LoadOptions load;
    load.base = testbed->Scratch(1ull << 20);
    load.size = 1ull << 20;
    load.cores = {1};
    load.core_caps = {*testbed->OsCoreCap(1)};
    auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
    if (enclave.ok() && backend != nullptr) {
      std::printf("EPT table frames for a 1 MiB domain: %llu (%llu KiB)\n",
                  static_cast<unsigned long long>(backend->TotalTableFrames() - before),
                  static_cast<unsigned long long>((backend->TotalTableFrames() - before) *
                                                  4));
    }
    std::printf("capability-tree nodes after 1 load:  %llu\n",
                static_cast<unsigned long long>(testbed->monitor().engine().total_caps()));
    std::printf("monitor API calls for 1 load:        %llu\n",
                static_cast<unsigned long long>(testbed->monitor().stats().TotalCalls()));
  }
  if (tcb_code > kTcbBudget) {
    std::printf("\nFAIL: TCB total %llu exceeds the budget of %llu code lines\n",
                static_cast<unsigned long long>(tcb_code),
                static_cast<unsigned long long>(kTcbBudget));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tyche

int main() { return tyche::Run(); }
