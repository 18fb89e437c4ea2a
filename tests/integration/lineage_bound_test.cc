// Copyright 2026 The Tyche Reproduction Authors.
// Long-churn regression for DESIGN.md §5 invariant 8: engine state is
// proportional to live capabilities. Thousands of share+revoke pairs and
// hundreds of enclave launch/destroy cycles at one address, all through
// Dispatch() (or the monitor API the enclave library drives), must leave the
// engine exactly as large as the first checkpoint found it -- on both
// backends, in serial and concurrent dispatch -- while the owner index,
// the hardware projection, shadow replay and Capture/Restore stay exact.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/os/testbed.h"
#include "src/tyche/enclave.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint32_t kPairs = 5000;
constexpr uint32_t kCheckpoints = 10;
constexpr uint32_t kLaunches = 500;

// What the bound is about: the node count and each owner's active caps.
struct Census {
  uint64_t total = 0;
  std::map<CapDomainId, size_t> active_per_owner;
  bool operator==(const Census&) const = default;
};

Census TakeCensus(const CapabilityEngine& engine) {
  Census census;
  census.total = engine.total_caps();
  for (const Capability& cap : engine.Capture().caps) {
    if (cap.active()) {
      ++census.active_per_owner[cap.owner];
    }
  }
  for (const auto& [owner, count] : census.active_per_owner) {
    EXPECT_EQ(engine.DomainCaps(owner).size(), count) << "owner " << owner;
  }
  return census;
}

// Every invariant the bound must not cost: index, hardware, replay, images.
void ExpectSound(Monitor& monitor) {
  EXPECT_TRUE(monitor.engine().CheckOwnedIndex().ok());
  const auto consistent = monitor.AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);

  const std::vector<JournalRecord> records = monitor.audit().journal().Records();
  CapabilityEngine shadow;
  const auto replay = ReplayJournalInto(&shadow, std::span<const JournalRecord>(records));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(EngineDigest(shadow), EngineDigest(monitor.engine()));

  CapabilityEngine restored;
  ASSERT_TRUE(restored.Restore(monitor.engine().Capture()).ok());
  EXPECT_EQ(EngineDigest(restored), EngineDigest(monitor.engine()));
  EXPECT_TRUE(restored.CheckOwnedIndex().ok());
}

Testbed MakeTestbed(IsaArch arch) {
  TestbedOptions options;
  options.arch = arch;
  auto testbed = Testbed::Create(options);
  EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
  testbed->monitor().audit().set_enabled(true);
  return std::move(*testbed);
}

ApiResult SharePage(Monitor& monitor, CoreId core, CapId src, CapId handle, uint64_t base) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kShareMemory);
  regs.arg0 = src;
  regs.arg1 = handle;
  regs.arg2 = base;
  regs.arg3 = kPageSize;
  regs.arg4 = Perms::kRW;
  regs.arg5 = static_cast<uint64_t>(CapRights::kAll) << 8;
  return Dispatch(&monitor, core, regs);
}

ApiResult RevokeCap(Monitor& monitor, CoreId core, CapId cap) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kRevoke);
  regs.arg0 = cap;
  return Dispatch(&monitor, core, regs);
}

class ChurnBoundTest : public ::testing::TestWithParam<std::tuple<IsaArch, bool>> {};

TEST_P(ChurnBoundTest, ShareRevokePairsLeaveTheEngineAsTheyFoundIt) {
  const auto [arch, concurrent] = GetParam();
  Testbed testbed = MakeTestbed(arch);
  Monitor& monitor = testbed.monitor();
  const uint32_t threads = concurrent ? monitor.machine()->num_cores() : 1;

  // Per-thread child domain, disjoint 16-page window and its source cap,
  // resolved serially up front.
  struct Lane {
    CapId handle = kInvalidCap;
    uint64_t base = 0;
    CapId src = kInvalidCap;
  };
  std::vector<Lane> lanes(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    const auto created = monitor.CreateDomain(0, "churn");
    ASSERT_TRUE(created.ok());
    lanes[t].handle = created->handle;
    lanes[t].base = testbed.Scratch(16 * kMiB + t * kMiB);
    lanes[t].src = *testbed.OsMemCap(AddrRange{lanes[t].base, 16 * kPageSize});
  }
  if (concurrent) {
    ASSERT_TRUE(monitor.EnableConcurrentDispatch().ok());
  }

  std::vector<Census> censuses;
  censuses.push_back(TakeCensus(monitor.engine()));
  std::atomic<uint32_t> failures{0};
  const uint32_t per_round = kPairs / kCheckpoints / threads;
  for (uint32_t round = 0; round < kCheckpoints; ++round) {
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const Lane& lane = lanes[t];
        for (uint32_t i = 0; i < per_round; ++i) {
          const uint64_t page = lane.base + (i % 16) * kPageSize;
          const ApiResult shared = SharePage(monitor, t, lane.src, lane.handle, page);
          if (shared.error != 0 || RevokeCap(monitor, t, shared.ret0).error != 0) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    censuses.push_back(TakeCensus(monitor.engine()));
  }
  monitor.DisableConcurrentDispatch();
  ASSERT_EQ(failures.load(), 0u);
  EXPECT_EQ(censuses.front(), censuses.back());
  ExpectSound(monitor);
}

const char* BackendName(IsaArch arch) { return arch == IsaArch::kX86_64 ? "Ept" : "Pmp"; }

INSTANTIATE_TEST_SUITE_P(
    BothBackends, ChurnBoundTest,
    ::testing::Combine(::testing::Values(IsaArch::kX86_64, IsaArch::kRiscV),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ChurnBoundTest::ParamType>& info) {
      return std::string(BackendName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "Concurrent" : "Serial");
    });

class LifecycleBoundTest : public ::testing::TestWithParam<IsaArch> {
 protected:
  static Result<Enclave> Launch(Testbed& testbed, CapId core_cap) {
    const TycheImage image = TycheImage::MakeDemo("cycle", 2 * kPageSize, kPageSize);
    LoadOptions options;
    options.base = testbed.Scratch(kMiB);
    options.size = 16 * kPageSize;
    options.cores = {1};
    options.core_caps = {core_cap};
    return Enclave::Create(&testbed.monitor(), 0, image, options);
  }
};

TEST_P(LifecycleBoundTest, LaunchDestroyCyclesAtOneAddressStayFlat) {
  Testbed testbed = MakeTestbed(GetParam());
  Monitor& monitor = testbed.monitor();
  const CapId core_cap = *testbed.OsCoreCap(1);

  std::vector<Census> censuses;
  for (uint32_t i = 0; i < kLaunches; ++i) {
    auto enclave = Launch(testbed, core_cap);
    ASSERT_TRUE(enclave.ok()) << i << ": " << enclave.status().ToString();
    ASSERT_TRUE(monitor.DestroyDomain(0, enclave->handle()).ok()) << i;
    if (i % (kLaunches / kCheckpoints) == 0 || i + 1 == kLaunches) {
      censuses.push_back(TakeCensus(monitor.engine()));
    }
  }
  // The first launch splits the OS's memory cap around the load region;
  // from then on every cycle must hand back exactly what it took.
  EXPECT_EQ(censuses.front(), censuses.back());
  ExpectSound(monitor);
}

TEST_P(LifecycleBoundTest, DestroyRevokesTheCreatorsHandle) {
  Testbed testbed = MakeTestbed(GetParam());
  Monitor& monitor = testbed.monitor();
  const DomainId os = testbed.os_domain();
  const size_t before = monitor.engine().DomainCaps(os).size();

  const auto created = monitor.CreateDomain(0, "short-lived");
  ASSERT_TRUE(created.ok());
  const uint64_t base = testbed.Scratch(kMiB);
  ASSERT_EQ(SharePage(monitor, 0, *testbed.OsMemCap(AddrRange{base, kPageSize}),
                      created->handle, base)
                .error,
            0u);
  EXPECT_EQ(monitor.engine().DomainCaps(os).size(), before + 1);  // the handle

  ASSERT_TRUE(monitor.DestroyDomain(0, created->handle).ok());
  EXPECT_EQ(monitor.engine().DomainCaps(os).size(), before);
  EXPECT_FALSE(monitor.engine().HasUnit(os, ResourceKind::kDomain, created->domain));
  // Through the ABI the dead handle reads as revoked, like any revoked cap.
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kEnumerate);
  regs.arg0 = created->handle;
  EXPECT_EQ(Dispatch(&monitor, 0, regs).error,
            static_cast<uint64_t>(ErrorCode::kCapabilityRevoked));
  EXPECT_EQ(RevokeCap(monitor, 0, created->handle).error,
            static_cast<uint64_t>(ErrorCode::kCapabilityRevoked));
  ExpectSound(monitor);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, LifecycleBoundTest,
                         ::testing::Values(IsaArch::kX86_64, IsaArch::kRiscV),
                         [](const ::testing::TestParamInfo<IsaArch>& info) {
                           return std::string(BackendName(info.param));
                         });

}  // namespace
}  // namespace tyche
