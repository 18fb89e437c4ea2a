// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C3: the two-tier attestation pipeline (§3.4).
// Shape to check: measurement cost scales linearly with the measured bytes;
// report generation/verification are (cheap) constants on top; the boot
// quote is a one-time cost.

#include <benchmark/benchmark.h>

#include "src/os/testbed.h"
#include "src/tyche/enclave.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// Builds an enclave whose measured text segment is `measured_bytes` long.
struct AttestWorld {
  Testbed testbed;
  Enclave enclave;
  TycheImage image;
  LoadOptions load;
};

AttestWorld MakeWorld(uint64_t measured_bytes) {
  TestbedOptions options;
  options.memory_bytes = 256ull << 20;
  auto testbed = Testbed::Create(options);
  if (!testbed.ok()) {
    std::abort();
  }
  TycheImage image("measured");
  ImageSegment text;
  text.name = "text";
  text.size = AlignUp(measured_bytes, kPageSize);
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  text.data.assign(measured_bytes, 0x7a);
  (void)image.AddSegment(std::move(text));
  image.set_entry_offset(0);
  LoadOptions load;
  load.base = testbed->Scratch(kMiB);
  load.size = AlignUp(2 * measured_bytes + kMiB, kMiB);
  load.cores = {1};
  load.core_caps = {*testbed->OsCoreCap(1)};
  auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
  if (!enclave.ok()) {
    std::abort();
  }
  return AttestWorld{std::move(*testbed), std::move(*enclave), std::move(image), load};
}

// Full domain build incl. measurement, vs measured size.
void BM_MeasuredLoad(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0)) * kMiB;
  uint64_t sim = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TestbedOptions options;
    options.memory_bytes = 256ull << 20;
    auto testbed = Testbed::Create(options);
    TycheImage image("m");
    ImageSegment text;
    text.name = "text";
    text.size = bytes;
    text.perms = Perms(Perms::kRWX);
    text.measured = true;
    text.data.assign(1024, 1);
    (void)image.AddSegment(std::move(text));
    image.set_entry_offset(0);
    LoadOptions load;
    load.base = testbed->Scratch(kMiB);
    load.size = bytes + kMiB;
    load.cores = {1};
    load.core_caps = {*testbed->OsCoreCap(1)};
    const uint64_t before = testbed->machine().cycles().cycles();
    state.ResumeTiming();
    auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
    state.PauseTiming();
    if (!enclave.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    sim += testbed->machine().cycles().cycles() - before;
    state.ResumeTiming();
  }
  state.counters["measured_MiB"] = static_cast<double>(state.range(0));
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(sim) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MeasuredLoad)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Iterations(5);

// Report generation (monitor side).
void BM_AttestDomain(benchmark::State& state) {
  AttestWorld world = MakeWorld(static_cast<uint64_t>(state.range(0)) * kMiB);
  const uint64_t start = world.testbed.machine().cycles().cycles();
  uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.enclave.Attest(0, nonce++));
  }
  state.counters["measured_MiB"] = static_cast<double>(state.range(0));
  state.counters["sim_cycles/op"] = benchmark::Counter(
      static_cast<double>(world.testbed.machine().cycles().cycles() - start) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_AttestDomain)->Arg(1)->Arg(16);

// Report generation for a sealed one-window domain while the engine holds
// `range(0)` other memory caps (one-page shares to a bystander). The report
// carries reference counts over its own window only, so its cost should
// barely follow the rest of the machine's capability count; gated as the
// /1024 : /16 ratio (bench/baselines/attestation_baseline.json).
void BM_AttestOneWindow(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::abort();
  }
  Monitor& monitor = testbed->monitor();
  const auto bystander = monitor.CreateDomain(0, "bystander");
  const uint64_t others = static_cast<uint64_t>(state.range(0));
  const AddrRange pool{testbed->Scratch(kMiB), others * kPageSize};
  const auto pool_cap = testbed->OsMemCap(pool);
  if (!bystander.ok() || !pool_cap.ok()) {
    std::abort();
  }
  for (uint64_t i = 0; i < others; ++i) {
    if (!monitor
             .ShareMemory(0, *pool_cap, bystander->handle,
                          AddrRange{pool.base + i * kPageSize, kPageSize}, Perms(Perms::kRW),
                          CapRights{}, RevocationPolicy{})
             .ok()) {
      std::abort();
    }
  }
  const auto service = monitor.CreateDomain(0, "service");
  const AddrRange window{AlignUp(pool.end(), kMiB) + kMiB, 16 * kPageSize};
  const auto window_cap = testbed->OsMemCap(window);
  if (!service.ok() || !window_cap.ok() ||
      !monitor
           .GrantMemory(0, *window_cap, service->handle, window, Perms(Perms::kRWX),
                        CapRights(CapRights::kAll), RevocationPolicy{})
           .ok() ||
      !monitor.SetEntryPoint(0, service->handle, window.base).ok() ||
      !monitor.ExtendMeasurement(0, service->handle, window).ok() ||
      !monitor.Seal(0, service->handle).ok()) {
    std::abort();
  }
  uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.AttestDomain(0, service->handle, nonce++));
  }
  state.counters["active_caps"] = static_cast<double>(monitor.engine().active_caps());
}
BENCHMARK(BM_AttestOneWindow)->Arg(16)->Arg(1024);

// Report verification (customer side; wall time is the honest metric here
// since verification runs on the verifier's real CPU).
void BM_VerifyDomainReport(benchmark::State& state) {
  AttestWorld world = MakeWorld(4 * kMiB);
  const auto report = world.enclave.Attest(0, 9);
  CustomerVerifier customer(world.testbed.machine().tpm().attestation_key(),
                            world.testbed.golden_firmware(),
                            world.testbed.golden_monitor());
  (void)customer.VerifyMonitor(*world.testbed.monitor().Identity(1), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(customer.VerifyDomainAgainstImage(
        *report, world.image, world.load.base, world.load.size, world.load.cores, 9));
  }
}
BENCHMARK(BM_VerifyDomainReport);

// Offline golden-measurement computation (customer side).
void BM_ComputeExpectedMeasurement(benchmark::State& state) {
  AttestWorld world = MakeWorld(static_cast<uint64_t>(state.range(0)) * kMiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeExpectedMeasurement(world.image, world.load.base,
                                                        world.load.size, world.load.cores));
  }
  state.counters["measured_MiB"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ComputeExpectedMeasurement)->Arg(1)->Arg(16);

// Tier-1: boot quote generation + verification.
void BM_MonitorIdentityQuote(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  const uint64_t start = testbed->machine().cycles().cycles();
  uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(testbed->monitor().Identity(nonce++));
  }
  state.counters["sim_cycles/op"] = benchmark::Counter(
      static_cast<double>(testbed->machine().cycles().cycles() - start) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MonitorIdentityQuote);

void BM_VerifyMonitorIdentity(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  const auto identity = testbed->monitor().Identity(3);
  CustomerVerifier customer(testbed->machine().tpm().attestation_key(),
                            testbed->golden_firmware(), testbed->golden_monitor());
  for (auto _ : state) {
    benchmark::DoNotOptimize(customer.VerifyMonitor(*identity, 3));
  }
}
BENCHMARK(BM_VerifyMonitorIdentity);

// The whole measured boot (one-time cost).
void BM_MeasuredBoot(benchmark::State& state) {
  uint64_t sim = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    auto testbed = Testbed::Create(TestbedOptions{});
    benchmark::DoNotOptimize(testbed);
    sim += testbed->machine().cycles().cycles();
    ++ops;
  }
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(sim) / static_cast<double>(ops));
}
BENCHMARK(BM_MeasuredBoot)->Iterations(10);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
