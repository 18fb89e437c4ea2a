// Copyright 2026 The Tyche Reproduction Authors.
// The one fault-sweep loop. A sweep is a table entry: a fresh-world builder,
// the workload whose fault sites it injects, the sites it owns, and the
// oracle that judges every run. The driver gives each entry
//
//   - a counting run: one clean world runs the workload with every site
//     observing but never failing, the sites the entry does not own are
//     dropped, and every owned site must have been reached;
//   - RunGrid: a trial per (site, first / middle / last occurrence);
//   - RunSoak: a trial per seeded (site, occurrence) draw from the same
//     counts. Each entry has its own base seed; TYCHE_FAULT_SEED replaces
//     it, and the seed is logged so a failing soak replays verbatim.
//
// A trial arms one fault on a fresh world, must fire it exactly once, and
// hands the world to the oracle; the run stops at the first fatal failure.
//
// Every grid and soak prints one summary line per sweep and backend.

#ifndef TESTS_TESTING_SWEEP_DRIVER_H_
#define TESTS_TESTING_SWEEP_DRIVER_H_

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/machine.h"
#include "src/support/faults.h"

namespace tyche {

// A fault site one sweep owns. Its workload must reach it on every backend
// `on` names, and it is injected there.
struct SweptSite {
  enum On { kBoth, kVtxOnly, kPmpOnly };
  std::string_view name;
  On on = kBoth;

  bool RunsOn(IsaArch arch) const {
    return on == kBoth || (on == kVtxOnly) == (arch == IsaArch::kX86_64);
  }
};

// The site tables of the four sweeps. A site in AllFaultSites() that no
// table lists fails SweepDriverTest.EveryFaultSiteIsSwept.

// fault_sweep_test: one workload across every subsystem.
inline const std::vector<SweptSite> kFaultSweepSites = {
    {faults::kFrameAlloc},
    {faults::kRangeAlloc},
    {faults::kAeadOpen},
    {faults::kEnginePurgeRevoke},
    {faults::kIommuAttach, SweptSite::kVtxOnly},
    {faults::kVtxCreateContext, SweptSite::kVtxOnly},
    {faults::kVtxSyncMemory, SweptSite::kVtxOnly},
    {faults::kVtxAttachDevice, SweptSite::kVtxOnly},
    {faults::kVtxDetachDevice, SweptSite::kVtxOnly},
    {faults::kVtxBindCore, SweptSite::kVtxOnly},
    {faults::kPmpCreateContext, SweptSite::kPmpOnly},
    {faults::kPmpRecompile, SweptSite::kPmpOnly},
    {faults::kPmpBindCore, SweptSite::kPmpOnly},
    {faults::kPmpSyncDevice, SweptSite::kPmpOnly},
    {faults::kPmpAttachDevice, SweptSite::kPmpOnly},
    {faults::kPmpDetachDevice, SweptSite::kPmpOnly},
};

// crash_sweep_test: Recover() replaying the journal and re-syncing hardware.
inline const std::vector<SweptSite> kRecoverySweepSites = {
    {faults::kEnginePurgeRevoke},
    {faults::kFrameAlloc, SweptSite::kVtxOnly},
    {faults::kIommuAttach, SweptSite::kVtxOnly},
    {faults::kVtxCreateContext, SweptSite::kVtxOnly},
    {faults::kVtxSyncMemory, SweptSite::kVtxOnly},
    {faults::kVtxAttachDevice, SweptSite::kVtxOnly},
    {faults::kVtxBindCore, SweptSite::kVtxOnly},
    {faults::kPmpCreateContext, SweptSite::kPmpOnly},
    {faults::kPmpRecompile, SweptSite::kPmpOnly},
    {faults::kPmpBindCore, SweptSite::kPmpOnly},
    {faults::kPmpSyncDevice, SweptSite::kPmpOnly},
    {faults::kPmpAttachDevice, SweptSite::kPmpOnly},
};

// migration_sweep_test: one migration. Engine and backend sites are left to
// the sweeps above: injected mid-commit they would legitimately diverge
// from the unmigrated state the rollback oracle expects.
inline const std::vector<SweptSite> kMigrationSweepSites = {
    {faults::kMigrateFreeze},   {faults::kMigrateCapture}, {faults::kMigrateTransfer},
    {faults::kMigrateRestore},  {faults::kMigrateResync},  {faults::kMigrateCommit},
    {faults::kChannelDrop},     {faults::kChannelDup},     {faults::kChannelReorder},
};

// fleet_sweep_test: the fleet workload. The channel and migration sites its
// failover ladder crosses belong to the migration sweep.
inline const std::vector<SweptSite> kFleetSweepSites = {
    {faults::kFleetNodeCrash},    {faults::kFleetVerifyTimeout},
    {faults::kFleetBreakerProbe}, {faults::kFleetCachePoison},
    {faults::kFleetQueueOverflow}, {faults::kFleetBatchForge},
};

template <typename World>
struct Sweep {
  const char* name;
  std::vector<SweptSite> sites;
  uint64_t soak_seed;  // the x86 leg's base seed; the RISC-V leg's is one more
  int soak_trials;
  // Runs before the plan is armed, so occurrence numbering starts at the
  // workload's first instruction in every trial.
  std::function<std::unique_ptr<World>(IsaArch)> fresh_world;
  // The armed span: only what runs here counts occurrences and can fail.
  std::function<void(World&)> workload;
  // Judges a world after its workload. `fault` is null on the counting run,
  // and `clean` is the counting run's world.
  std::function<void(World&, const FaultSpec* fault, const World& clean)> oracle;
};

// A whole decimal or 0x-prefixed hex seed; anything else (empty, a sign,
// whitespace, trailing characters, overflow) is nullopt.
inline std::optional<uint64_t> ParseSeed(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t seed = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') {
    return std::nullopt;
  }
  return seed;
}

namespace sweep_internal {

inline const char* BackendName(IsaArch arch) {
  return arch == IsaArch::kX86_64 ? "vtx" : "pmp";
}

// The counting run, then one fresh world per plan `plans_for` derives from
// the owned sites' occurrence counts.
template <typename World, typename PlansFor>
void Run(const Sweep<World>& sweep, IsaArch arch, PlansFor plans_for) {
  const std::unique_ptr<World> clean = sweep.fresh_world(arch);
  ASSERT_NE(clean, nullptr);
  FaultInjector::Instance().StartCounting();
  sweep.workload(*clean);
  const std::map<std::string, uint64_t> observed =
      FaultInjector::Instance().StopCounting();
  sweep.oracle(*clean, nullptr, *clean);
  std::map<std::string, uint64_t> counts;
  for (const SweptSite& site : sweep.sites) {
    if (!site.RunsOn(arch)) {
      continue;
    }
    const auto it = observed.find(std::string(site.name));
    ASSERT_TRUE(it != observed.end())
        << sweep.name << " workload never reached " << site.name << " on "
        << BackendName(arch);
    counts.insert(*it);
  }
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  for (const FaultPlan& plan : plans_for(counts)) {
    ASSERT_FALSE(plan.empty());
    SCOPED_TRACE("plan " + plan.ToString());
    const std::unique_ptr<World> world = sweep.fresh_world(arch);
    ASSERT_NE(world, nullptr);
    {
      ScopedFaultPlan armed(plan);
      sweep.workload(*world);
    }
    // Disarm() keeps the fired record.
    ASSERT_EQ(FaultInjector::Instance().fired_count(), 1u) << "did not fire exactly once";
    sweep.oracle(*world, &plan.specs()[0], *clean);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace sweep_internal

// Every owned site at its first, middle and last occurrence.
template <typename World>
void RunGrid(const Sweep<World>& sweep, IsaArch arch) {
  sweep_internal::Run(sweep, arch, [&](const std::map<std::string, uint64_t>& counts) {
    std::vector<FaultPlan> plans;
    for (const auto& [site, count] : counts) {
      for (const uint64_t trigger : std::set<uint64_t>{1, (count + 1) / 2, count}) {
        plans.push_back(FaultPlan::Single(site, trigger));
      }
    }
    std::printf("[ sweep ] %s on %s: sites=%zu trials=%zu\n", sweep.name,
                sweep_internal::BackendName(arch), counts.size(), plans.size());
    return plans;
  });
}

// `soak_trials` seeded draws, uniform over every (site, occurrence) pair.
template <typename World>
void RunSoak(const Sweep<World>& sweep, IsaArch arch) {
  const char* env = std::getenv("TYCHE_FAULT_SEED");
  const std::optional<uint64_t> base_seed =
      env == nullptr ? std::optional<uint64_t>(sweep.soak_seed + static_cast<uint64_t>(arch))
                     : ParseSeed(env);
  ASSERT_TRUE(base_seed.has_value())
      << "TYCHE_FAULT_SEED=\"" << env
      << "\" is not a whole decimal or 0x-prefixed hex number";
  std::printf("[ soak ] %s on %s: base_seed=0x%llx trials=%d\n", sweep.name,
              sweep_internal::BackendName(arch),
              static_cast<unsigned long long>(*base_seed), sweep.soak_trials);
  sweep_internal::Run(sweep, arch, [&](const std::map<std::string, uint64_t>& counts) {
    std::vector<FaultPlan> plans;
    for (int trial = 0; trial < sweep.soak_trials; ++trial) {
      const uint64_t seed = *base_seed + static_cast<uint64_t>(trial) * 0x9E3779B9ull;
      plans.push_back(FaultPlan::FromSeed(seed, counts));
    }
    return plans;
  });
}

}  // namespace tyche

#endif  // TESTS_TESTING_SWEEP_DRIVER_H_
