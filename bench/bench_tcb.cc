// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C7: TCB minimality (§3.5 / §4).
// Paper claims: the monitor is "minimal (<10K LOC)" and "orders of magnitude
// smaller ... than a typical monolithic kernel or hypervisor", with a
// "narrow API". This harness measures OUR reproduction the same way:
// lines of code per module (what a verifier must trust), the external API
// surface, and the per-domain metadata footprint.
//
// Not a timing benchmark: prints a table. The TCB is tyche_monitor's link
// closure with the hardware model excluded: the sources of every library it
// links, from the manifest bench/CMakeLists.txt generates, plus every header
// those reach through #include "src/..." (src/hw/ excluded). Exits non-zero
// when the TCB total exceeds kTcbBudget, when a TCB file names test or
// presentation machinery (kOutsideTcb), or when the manifest is missing,
// empty or names a file that does not exist, so the tcb_budget ctest fails on
// any growth that a reviewed diff has not budgeted for.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
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
constexpr uint64_t kTcbBudget = 7840;

constexpr std::string_view kExcludedPrefix = "src/hw/";

// Names that belong outside the monitor: the fault injector (libtyche links
// it; the monitor keeps only the hook in fault_hook.h) and the metrics
// registry (libtyche renders the monitor's typed stats). A TCB file that
// names one, even in a comment, fails the run.
constexpr std::string_view kOutsideTcb[] = {"FaultInjector", "FaultPlan",
                                            "MetricsRegistry"};

struct FileCount {
  uint64_t lines = 0;
  uint64_t code_lines = 0;  // excluding blanks and pure comments
  std::vector<std::string> includes;  // "src/..." paths it includes
  std::set<std::string_view> outside_names;  // kOutsideTcb entries it names
};

FileCount CountFile(const std::filesystem::path& path) {
  FileCount count;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    ++count.lines;
    for (const std::string_view name : kOutsideTcb) {
      if (line.find(name) != std::string::npos) {
        count.outside_names.insert(name);
      }
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;  // blank
    }
    if (line.compare(first, 2, "//") == 0) {
      continue;  // comment
    }
    ++count.code_lines;
    constexpr std::string_view kInclude = "#include \"src/";
    if (line.compare(first, kInclude.size(), kInclude) == 0) {
      const size_t begin = line.find('"', first) + 1;
      const size_t close = line.find('"', begin);
      if (close != std::string::npos) {
        count.includes.push_back(line.substr(begin, close - begin));
      }
    }
  }
  return count;
}

struct LibraryCount {
  uint64_t files = 0;
  uint64_t lines = 0;
  uint64_t code_lines = 0;
};

// The directory and file name without extension: a header joins the library
// that compiles its same-stem source.
std::string Stem(const std::string& path) {
  return path.substr(0, path.rfind('.'));
}
std::string Directory(const std::string& path) {
  return path.substr(0, path.rfind('/') + 1);
}

int Run() {
  std::printf("=== C7: TCB accounting (tyche_monitor link closure, hw excluded) ===\n\n");
  const std::filesystem::path root = TYCHE_SOURCE_ROOT;
  std::ifstream manifest(TYCHE_TCB_MANIFEST);
  if (!manifest) {
    std::printf("FAIL: TCB manifest %s missing; re-run cmake\n", TYCHE_TCB_MANIFEST);
    return 1;
  }
  // Library of each manifest source, in manifest order.
  std::vector<std::pair<std::string, std::string>> sources;
  std::string library;
  std::string path;
  while (manifest >> library >> path) {
    sources.emplace_back(library, path);
  }
  if (sources.empty()) {
    std::printf("FAIL: TCB manifest %s is empty\n", TYCHE_TCB_MANIFEST);
    return 1;
  }
  std::map<std::string, std::string> library_of_stem;
  std::map<std::string, std::string> library_of_dir;
  for (const auto& [lib, source] : sources) {
    library_of_stem.emplace(Stem(source), lib);
    library_of_dir.emplace(Directory(source), lib);
  }

  // Sources first, then every header they reach, breadth first.
  std::vector<std::string> pending;
  for (const auto& [lib, source] : sources) {
    pending.push_back(source);
  }
  std::set<std::string> seen(pending.begin(), pending.end());
  std::map<std::string, LibraryCount> libraries;
  std::vector<std::string> order;  // libraries in first-seen order
  uint64_t tcb_code = 0;
  std::vector<std::string> outside;  // "file names X" findings
  for (size_t i = 0; i < pending.size(); ++i) {
    const std::string file = pending[i];
    if (!std::filesystem::is_regular_file(root / file)) {
      std::printf("FAIL: TCB file %s does not exist\n", file.c_str());
      return 1;
    }
    const FileCount count = CountFile(root / file);
    for (const std::string_view name : count.outside_names) {
      outside.push_back(file + " names " + std::string(name));
    }
    for (const std::string& include : count.includes) {
      if (include.compare(0, kExcludedPrefix.size(), kExcludedPrefix) != 0 &&
          seen.insert(include).second) {
        pending.push_back(include);
      }
    }
    const auto by_stem = library_of_stem.find(Stem(file));
    const auto by_dir = library_of_dir.find(Directory(file));
    const std::string lib = by_stem != library_of_stem.end() ? by_stem->second
                            : by_dir != library_of_dir.end() ? by_dir->second
                                                             : Directory(file);
    LibraryCount& entry = libraries[lib];
    if (entry.files == 0) {
      order.push_back(lib);
    }
    ++entry.files;
    entry.lines += count.lines;
    entry.code_lines += count.code_lines;
    tcb_code += count.code_lines;
  }

  std::printf("%-20s %6s %8s %10s\n", "library", "files", "lines", "code-lines");
  for (const std::string& lib : order) {
    const LibraryCount& entry = libraries[lib];
    std::printf("%-20s %6llu %8llu %10llu\n", lib.c_str(),
                static_cast<unsigned long long>(entry.files),
                static_cast<unsigned long long>(entry.lines),
                static_cast<unsigned long long>(entry.code_lines));
  }
  std::printf("\nTCB total (code lines):            %llu in %llu files"
              "   (paper target: < 10,000)\n",
              static_cast<unsigned long long>(tcb_code),
              static_cast<unsigned long long>(pending.size()));
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
  if (!outside.empty()) {
    std::printf("\n");
    for (const std::string& finding : outside) {
      std::printf("FAIL: TCB file %s, which belongs outside the monitor\n", finding.c_str());
    }
    return 1;
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
