// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C5: Tyche-enclaves vs the SGX model (§4.2).
// Shapes to check:
//   - build cost: SGX pays per-EPC-page EADD+EEXTEND; Tyche pays grants +
//     measurement (both linear in size, different constants);
//   - enclaves per host: SGX capped by the EPC, Tyche by total memory;
//   - nesting: SGX depth 0, Tyche arbitrary;
//   - address reuse: SGX forbids, Tyche allows (reported as a counter);
//   - customer check: verifying a launched enclave against its image costs
//     the same whatever the measured segment's size (gated in
//     bench/baselines/enclave_verify_baseline.json);
//   - journal share: one launch and teardown writes at most 11 journal
//     records, and costs at most a bounded factor more with the journal on
//     than off (gated in bench/baselines/enclave_journal_baseline.json).

#include <benchmark/benchmark.h>

#include <chrono>

#include "src/baseline/sgx_model.h"
#include "src/os/testbed.h"
#include "src/tyche/enclave.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// --- Build + teardown, vs enclave size ---

void BM_TycheEnclaveLifecycle(benchmark::State& state) {
  TestbedOptions options;
  options.memory_bytes = 512ull << 20;
  auto testbed = Testbed::Create(options);
  const uint64_t size = static_cast<uint64_t>(state.range(0)) * kMiB;
  TycheImage image("e");
  ImageSegment text;
  text.name = "text";
  text.size = size / 2;  // half the enclave is measured content
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  text.data.assign(4096, 0x11);
  (void)image.AddSegment(std::move(text));
  image.set_entry_offset(0);

  const uint64_t start = testbed->machine().cycles().cycles();
  uint64_t ops = 0;
  for (auto _ : state) {
    LoadOptions load;
    load.base = testbed->Scratch(kMiB);
    load.size = size;
    load.cores = {1};
    load.core_caps = {*testbed->OsCoreCap(1)};
    auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
    if (!enclave.ok()) {
      state.SkipWithError(enclave.status().ToString().c_str());
      return;
    }
    if (!testbed->monitor().DestroyDomain(0, enclave->handle()).ok()) {
      state.SkipWithError("destroy failed");
      return;
    }
    ++ops;
  }
  state.counters["enclave_MiB"] = static_cast<double>(state.range(0));
  state.counters["sim_cycles/op"] = benchmark::Counter(
      static_cast<double>(testbed->machine().cycles().cycles() - start) /
      static_cast<double>(ops));
}
BENCHMARK(BM_TycheEnclaveLifecycle)->Arg(1)->Arg(4)->Arg(16)->Iterations(20);

void BM_SgxEnclaveLifecycle(benchmark::State& state) {
  CycleAccount cycles;
  SgxProcessor sgx(1u << 20, &cycles);  // effectively unlimited EPC
  const uint64_t size = static_cast<uint64_t>(state.range(0)) * kMiB;
  const std::vector<uint8_t> page(kPageSize, 0x11);
  const uint64_t start = cycles.cycles();
  uint64_t ops = 0;
  uint32_t process = 0;
  for (auto _ : state) {
    // Fresh process id per round: SGX forbids ELRANGE reuse.
    const auto id = sgx.Ecreate(process++, AddrRange{1ull << 32, size});
    if (!id.ok()) {
      state.SkipWithError("ecreate failed");
      return;
    }
    // Populate half the range (mirroring the Tyche benchmark's content).
    for (uint64_t off = 0; off < size / 2; off += kPageSize) {
      (void)sgx.Eadd(*id, off, std::span<const uint8_t>(page));
    }
    (void)sgx.Einit(*id);
    (void)sgx.Eremove(*id);
    ++ops;
  }
  state.counters["enclave_MiB"] = static_cast<double>(state.range(0));
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(cycles.cycles() - start) /
                         static_cast<double>(ops));
}
BENCHMARK(BM_SgxEnclaveLifecycle)->Arg(1)->Arg(4)->Arg(16)->Iterations(20);

// --- Customer check of one launched enclave, vs measured segment size ---

// One enclave whose single measured segment is state.range(0) KiB (4 KiB of
// content, zero-padded), launched and attested once; each iteration is the
// customer's VerifyDomainAgainstImage on that report: the offline golden
// measurement from the image plus the report's signature check. The monitor
// measures the segment's memory at launch, outside the timed loop.
void BM_CustomerVerifyImage(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  const uint64_t segment_bytes = static_cast<uint64_t>(state.range(0)) * 1024;
  TycheImage image("verify");
  ImageSegment text;
  text.name = "text";
  text.size = segment_bytes;
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  text.data.assign(kPageSize, 0x5a);
  (void)image.AddSegment(std::move(text));
  image.set_entry_offset(0);

  LoadOptions load;
  load.base = testbed->Scratch(kMiB);
  load.size = segment_bytes;
  load.cores = {1};
  load.core_caps = {*testbed->OsCoreCap(1)};
  auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
  if (!enclave.ok()) {
    state.SkipWithError(enclave.status().ToString().c_str());
    return;
  }
  constexpr uint64_t kNonce = 0x5eed;
  const auto report = enclave->Attest(0, kNonce);
  const auto identity = testbed->monitor().Identity(kNonce);
  CustomerVerifier customer(testbed->machine().tpm().attestation_key(),
                            testbed->golden_firmware(), testbed->golden_monitor());
  if (!report.ok() || !identity.ok() || !customer.VerifyMonitor(*identity, kNonce).ok()) {
    state.SkipWithError("attestation setup failed");
    return;
  }
  for (auto _ : state) {
    if (!customer.VerifyDomainAgainstImage(*report, image, load.base, load.size, load.cores,
                                           kNonce)
             .ok()) {
      state.SkipWithError("customer check failed");
      return;
    }
  }
  state.counters["segment_KiB"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CustomerVerifyImage)->Arg(16)->Arg(1024);

// --- Journal share of one enclave launch ---

// One 16 KiB enclave (one 8 KiB measured segment holding 4 KiB of content,
// one core) launched and destroyed at one address, twice per iteration: once
// with the audit journal on and once with it off (set_enabled), in
// alternating order, each timed on its own. Alternating launch by launch
// cancels the machine's drift, which a separate on and off run would not.
// Counters: `journal_on_ns` and `journal_off_ns` per launch, `journal_share`
// (on ÷ off) and `journal_records` (records one launch and teardown
// writes); gated in bench/baselines/enclave_journal_baseline.json.
void BM_EnclaveLaunchDestroy(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  Monitor& monitor = testbed->monitor();
  TycheImage image("launch");
  ImageSegment text;
  text.name = "text";
  text.size = 8 * 1024;
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  text.data.assign(4 * 1024, 0x3c);
  (void)image.AddSegment(std::move(text));
  image.set_entry_offset(0);
  LoadOptions load;
  load.base = testbed->Scratch(kMiB);
  load.size = 16 * 1024;
  load.cores = {1};
  load.core_caps = {*testbed->OsCoreCap(1)};

  // One launch and teardown with the journal on or off; returns its ns.
  const auto launch = [&](bool journal_on) -> int64_t {
    monitor.audit().set_enabled(journal_on);
    const auto start = std::chrono::steady_clock::now();
    auto enclave = Enclave::Create(&monitor, 0, image, load);
    if (!enclave.ok() || !monitor.DestroyDomain(0, enclave->handle()).ok()) {
      return -1;
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const size_t records_before = monitor.audit().journal().size();
  int64_t on_ns = 0;
  int64_t off_ns = 0;
  uint64_t launches = 0;
  for (auto _ : state) {
    const bool on_first = launches % 2 == 0;
    const int64_t first = launch(on_first);
    const int64_t second = launch(!on_first);
    if (first < 0 || second < 0) {
      state.SkipWithError("enclave launch or teardown failed");
      return;
    }
    on_ns += on_first ? first : second;
    off_ns += on_first ? second : first;
    ++launches;
  }
  const auto per_launch = [launches](double total) {
    return total / static_cast<double>(launches);
  };
  state.counters["journal_on_ns"] = per_launch(static_cast<double>(on_ns));
  state.counters["journal_off_ns"] = per_launch(static_cast<double>(off_ns));
  state.counters["journal_share"] = static_cast<double>(on_ns) / static_cast<double>(off_ns);
  state.counters["journal_records"] =
      per_launch(static_cast<double>(monitor.audit().journal().size() - records_before));
}
BENCHMARK(BM_EnclaveLaunchDestroy);

// --- Enclaves per host until the platform says no ---

void BM_TycheEnclavesPerHost(benchmark::State& state) {
  for (auto _ : state) {
    TestbedOptions options;
    options.memory_bytes = 256ull << 20;
    // Give the monitor a 32 MiB metadata pool so the experiment is bounded
    // by machine memory rather than by EPT-frame budget (with the default
    // 4 MiB pool the answer is ~220 -- still far beyond the SGX EPC story,
    // and a knob the OS controls at boot).
    options.monitor_memory_bytes = 32ull << 20;
    auto testbed = Testbed::Create(options);
    const TycheImage image = TycheImage::MakeDemo("many", kPageSize, 0);
    int built = 0;
    for (int i = 0; i < 1024; ++i) {
      LoadOptions load;
      load.base = testbed->Scratch(kMiB + static_cast<uint64_t>(i) * 128 * 1024);
      load.size = 128 * 1024;
      load.cores = {1};
      load.core_caps = {*testbed->OsCoreCap(1)};
      if (load.base + load.size > testbed->machine().memory().size()) {
        break;
      }
      auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
      if (!enclave.ok()) {
        break;
      }
      ++built;
    }
    state.counters["enclaves_built"] = built;
  }
}
BENCHMARK(BM_TycheEnclavesPerHost)->Iterations(1);

void BM_SgxEnclavesPerHost(benchmark::State& state) {
  // Classic client EPC: 93.5 MiB usable ~= 23936 pages. Each enclave here
  // uses 32 pages (128 KiB), mirroring the Tyche benchmark.
  for (auto _ : state) {
    CycleAccount cycles;
    SgxProcessor sgx(23936, &cycles);
    const std::vector<uint8_t> page(kPageSize, 1);
    int built = 0;
    for (int i = 0; i < 1024; ++i) {
      const auto id = sgx.Ecreate(static_cast<uint32_t>(i), AddrRange{1ull << 32, 128 * 1024});
      if (!id.ok()) {
        break;
      }
      bool ok = true;
      for (int p = 0; p < 32; ++p) {
        if (!sgx.Eadd(*id, static_cast<uint64_t>(p) * kPageSize,
                      std::span<const uint8_t>(page))
                 .ok()) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        break;
      }
      (void)sgx.Einit(*id);
      ++built;
    }
    state.counters["enclaves_built"] = built;
  }
}
BENCHMARK(BM_SgxEnclavesPerHost)->Iterations(1);

// --- Nesting depth until failure ---

void BM_TycheNestingDepth(benchmark::State& state) {
  for (auto _ : state) {
    TestbedOptions options;
    options.memory_bytes = 512ull << 20;
    auto testbed = Testbed::Create(options);
    const TycheImage image = TycheImage::MakeDemo("nest", kPageSize, 0);
    LoadOptions load;
    load.base = testbed->Scratch(kMiB);
    load.size = 256 * kMiB;
    load.cores = {1};
    load.core_caps = {*testbed->OsCoreCap(1)};
    auto current = Enclave::Create(&testbed->monitor(), 0, image, load);
    int depth = 0;
    if (current.ok()) {
      std::vector<Enclave> chain;
      chain.push_back(std::move(*current));
      uint64_t size = 256 * kMiB;
      while (size > 64 * 1024) {
        if (!chain.back().Enter(1).ok()) {
          break;
        }
        size /= 2;
        auto child = chain.back().SpawnNested(
            1, image, chain.back().base() + chain.back().size() - size, size, {1});
        if (!child.ok()) {
          break;
        }
        chain.push_back(std::move(*child));
        ++depth;
      }
    }
    state.counters["max_depth"] = depth;
  }
}
BENCHMARK(BM_TycheNestingDepth)->Iterations(1);

void BM_SgxNestingDepth(benchmark::State& state) {
  for (auto _ : state) {
    CycleAccount cycles;
    SgxProcessor sgx(4096, &cycles);
    const std::vector<uint8_t> page(64, 1);
    const auto outer = sgx.Ecreate(1, AddrRange{1ull << 32, kMiB});
    (void)sgx.Eadd(*outer, 0, std::span<const uint8_t>(page));
    (void)sgx.Einit(*outer);
    (void)sgx.Eenter(*outer);
    int depth = 0;
    // Any attempt to create an enclave from enclave mode fails.
    if (sgx.Ecreate(1, AddrRange{1ull << 33, kMiB}).ok()) {
      ++depth;
    }
    (void)sgx.Eexit(*outer);
    state.counters["max_depth"] = depth;
  }
}
BENCHMARK(BM_SgxNestingDepth)->Iterations(1);

// --- Address reuse after teardown ---

void BM_AddressReuse(benchmark::State& state) {
  const bool tyche = state.range(0) == 1;
  for (auto _ : state) {
    int reuses = 0;
    if (tyche) {
      TestbedOptions options;
      auto testbed = Testbed::Create(options);
      const TycheImage image = TycheImage::MakeDemo("reuse", kPageSize, 0);
      for (int i = 0; i < 16; ++i) {
        LoadOptions load;
        load.base = testbed->Scratch(kMiB);  // SAME address every round
        load.size = kMiB;
        load.cores = {1};
        load.core_caps = {*testbed->OsCoreCap(1)};
        auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
        if (!enclave.ok() ||
            !testbed->monitor().DestroyDomain(0, enclave->handle()).ok()) {
          break;
        }
        ++reuses;
      }
    } else {
      CycleAccount cycles;
      SgxProcessor sgx(4096, &cycles);
      const std::vector<uint8_t> page(64, 1);
      for (int i = 0; i < 16; ++i) {
        const auto id = sgx.Ecreate(1, AddrRange{1ull << 32, kMiB});  // SAME range
        if (!id.ok()) {
          break;
        }
        (void)sgx.Eadd(*id, 0, std::span<const uint8_t>(page));
        (void)sgx.Einit(*id);
        (void)sgx.Eremove(*id);
        ++reuses;
      }
    }
    state.counters["successful_reuses_of_16"] = reuses;
  }
  state.counters["tyche"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AddressReuse)->Arg(0)->Arg(1)->Iterations(1);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
