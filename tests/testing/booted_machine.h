// Copyright 2026 The Tyche Reproduction Authors.
// Shared fixture: a machine booted under the monitor with LinOS as the
// initial domain. Used by libtyche, OS, and integration tests; the fault
// and migration sweeps build their fresh worlds on BootedMachine.

#ifndef TESTS_TESTING_BOOTED_MACHINE_H_
#define TESTS_TESTING_BOOTED_MACHINE_H_

#include <gtest/gtest.h>

#include "src/monitor/boot.h"
#include "src/os/kernel.h"
#include "src/tyche/loader.h"

namespace tyche {

struct BootedMachine {
  static constexpr uint64_t kMiB = 1ull << 20;

  struct FixtureOptions {
    IsaArch arch = IsaArch::kX86_64;
    uint64_t memory_bytes = 128ull << 20;
    uint32_t cores = 4;
    bool with_nic = false;  // DmaEngine at 0:3.0
    bool with_gpu = false;  // GpuDevice at 0:4.0
  };

  static constexpr PciBdf kNicBdf = PciBdf(0, 3, 0);
  static constexpr PciBdf kGpuBdf = PciBdf(0, 4, 0);

  explicit BootedMachine(const FixtureOptions& fixture) {
    MachineConfig config;
    config.arch = fixture.arch;
    config.memory_bytes = fixture.memory_bytes;
    config.num_cores = fixture.cores;
    machine_ = std::make_unique<Machine>(config);
    if (fixture.with_nic) {
      EXPECT_TRUE(machine_->AddDevice(std::make_unique<DmaEngine>(kNicBdf, "nic0")).ok());
    }
    if (fixture.with_gpu) {
      EXPECT_TRUE(machine_->AddDevice(std::make_unique<GpuDevice>(kGpuBdf, "gpu0")).ok());
    }

    firmware_ = DemoFirmwareImage();
    monitor_image_ = DemoMonitorImage();
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = monitor_image_;
    auto outcome = MeasuredBoot(machine_.get(), params);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    monitor_ = std::move(outcome->monitor);
    os_domain_ = outcome->initial_domain;
    golden_firmware_ = outcome->firmware_measurement;
    golden_monitor_ = outcome->monitor_measurement;

    // LinOS manages the upper half of its memory through its allocator; the
    // lower half stays "kernel reserved" (and is where tests place enclaves
    // loaded directly, outside the allocator).
    const uint64_t os_base = monitor_->monitor_range().end();
    const uint64_t os_size = fixture.memory_bytes - os_base;
    managed_ = AddrRange{os_base + os_size / 2, os_size / 2};
    os_ = std::make_unique<LinOs>(monitor_.get(), os_domain_,
                                  *FindMemoryCap(*monitor_, os_domain_,
                                                 AddrRange{os_base, os_size}),
                                  managed_);
  }

  // kInvalidCap when the OS holds no such capability, so the call it feeds
  // fails with a typed error instead of the lookup reading an empty Result.
  CapId OsMemCap(AddrRange range) const {
    return OrInvalid(FindMemoryCap(*monitor_, os_domain_, range));
  }
  CapId OsCoreCap(CoreId core) const {
    return OrInvalid(FindUnitCap(*monitor_, os_domain_, ResourceKind::kCpuCore, core));
  }
  CapId OsDeviceCap(uint16_t bdf) const {
    return OrInvalid(FindUnitCap(*monitor_, os_domain_, ResourceKind::kPciDevice, bdf));
  }
  static CapId OrInvalid(const Result<CapId>& cap) { return cap.ok() ? *cap : kInvalidCap; }

  // Unmanaged scratch region for direct domain placement.
  AddrRange Scratch(uint64_t offset, uint64_t size) const {
    return AddrRange{monitor_->monitor_range().end() + offset, size};
  }

  std::vector<uint8_t> firmware_;
  std::vector<uint8_t> monitor_image_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<LinOs> os_;
  DomainId os_domain_ = kInvalidDomain;
  AddrRange managed_;
  Digest golden_firmware_;
  Digest golden_monitor_;
};

class BootedMachineTest : public ::testing::Test, public BootedMachine {
 protected:
  BootedMachineTest() : BootedMachineTest(FixtureOptions{}) {}
  explicit BootedMachineTest(const FixtureOptions& fixture) : BootedMachine(fixture) {}
};

}  // namespace tyche

#endif  // TESTS_TESTING_BOOTED_MACHINE_H_
