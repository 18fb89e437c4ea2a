// Copyright 2026 The Tyche Reproduction Authors.
// Unit tests for the shared sweep driver: seed parsing, the site tables'
// coverage of AllFaultSites(), and the driver loop on a toy workload.

#include "tests/testing/sweep_driver.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

namespace tyche {
namespace {

constexpr std::string_view kToySite = "test.toy_site";
constexpr std::string_view kUnreachedSite = "test.unreached_site";

Status HookedStep() {
  TYCHE_FAULT_POINT(kToySite);
  return OkStatus();
}

struct ToyWorld {
  int failures = 0;
};

// Every occurrence the oracle judged, 0 for the counting run.
std::vector<uint64_t> judged;

// Five steps through one hooked site. The PMP leg also owns a site nothing
// reaches.
const Sweep<ToyWorld> kToySweep = {
    .name = "toy",
    .sites = {{kToySite}, {kUnreachedSite, SweptSite::kPmpOnly}},
    .soak_seed = 7,
    .soak_trials = 4,
    .fresh_world = [](IsaArch) { return std::make_unique<ToyWorld>(); },
    .workload =
        [](ToyWorld& world) {
          for (int step = 0; step < 5; ++step) {
            world.failures += HookedStep().ok() ? 0 : 1;
          }
        },
    .oracle =
        [](ToyWorld& world, const FaultSpec* fault, const ToyWorld&) {
          EXPECT_EQ(world.failures, fault == nullptr ? 0 : 1);
          judged.push_back(fault == nullptr ? 0 : fault->trigger);
        },
};

TEST(SweepDriverTest, ParseSeedTakesOnlyAWholeNumber) {
  EXPECT_EQ(ParseSeed("42"), 42u);
  EXPECT_EQ(ParseSeed("0x2A"), 42u);
  EXPECT_EQ(ParseSeed("abc"), std::nullopt);
  EXPECT_EQ(ParseSeed("42x"), std::nullopt);
  EXPECT_EQ(ParseSeed(""), std::nullopt);
  EXPECT_EQ(ParseSeed("-1"), std::nullopt);
  EXPECT_EQ(ParseSeed(" 42"), std::nullopt);
  EXPECT_EQ(ParseSeed("0x10000000000000000"), std::nullopt);
}

TEST(SweepDriverTest, MalformedSeedFailsTheSoak) {
  for (const char* seed : {"abc", "42x", ""}) {
    ASSERT_EQ(setenv("TYCHE_FAULT_SEED", seed, 1), 0);
    EXPECT_FATAL_FAILURE(RunSoak(kToySweep, IsaArch::kX86_64), "TYCHE_FAULT_SEED");
  }
  ASSERT_EQ(unsetenv("TYCHE_FAULT_SEED"), 0);
}

TEST(SweepDriverTest, EveryFaultSiteIsSwept) {
  for (const std::string_view site : AllFaultSites()) {
    bool swept = false;
    for (const auto* table : {&kFaultSweepSites, &kRecoverySweepSites,
                              &kMigrationSweepSites, &kFleetSweepSites}) {
      for (const SweptSite& entry : *table) {
        swept |= entry.name == site;
      }
    }
    EXPECT_TRUE(swept) << site << " is in AllFaultSites() but no sweep injects it";
  }
}

TEST(SweepDriverTest, GridHitsFirstMiddleLastAndSoakDrawsFromTheCounts) {
  judged.clear();
  RunGrid(kToySweep, IsaArch::kX86_64);
  EXPECT_EQ(judged, (std::vector<uint64_t>{0, 1, 3, 5}));

  judged.clear();
  RunSoak(kToySweep, IsaArch::kX86_64);
  ASSERT_EQ(judged.size(), 5u);
  for (size_t trial = 1; trial < judged.size(); ++trial) {
    EXPECT_GE(judged[trial], 1u);
    EXPECT_LE(judged[trial], 5u);
  }
}

TEST(SweepDriverTest, UnreachedOwnedSiteFailsTheCountingRun) {
  EXPECT_FATAL_FAILURE(RunGrid(kToySweep, IsaArch::kRiscV),
                       "toy workload never reached test.unreached_site on pmp");
}

}  // namespace
}  // namespace tyche
