// Copyright 2026 The Tyche Reproduction Authors.
// Deterministic fault injection for the robustness tests and sweeps.
//
// A FaultPlan names a set of injection sites and the occurrence at which each
// one fails (1-based: "the Nth time site S is reached, return error E").
// Sites are threaded through the hardware backends, the allocators, and the
// crypto layer via TYCHE_FAULT_POINT and FaultFires (src/support/fault_hook.h).
// This library, tyche_faults, sits outside the monitor's link closure: the
// monitor sees only the hook, which Arm() and StartCounting() point at the
// injector below.
//
// Two modes beyond "armed":
//  - counting: every site reached increments a per-site counter without ever
//    failing. The sweep test uses this to learn how many occurrences a
//    workload produces, then replays the workload with the trigger set to the
//    first / middle / last occurrence of each site.
//  - seeded: FaultPlan::FromSeed derives one (site, occurrence) choice from a
//    PRNG seed and the observed counts, for randomized soak runs whose seed
//    is logged and replayable.

#ifndef SRC_SUPPORT_FAULTS_H_
#define SRC_SUPPORT_FAULTS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/fault_hook.h"
#include "src/support/status.h"

namespace tyche {

// Every canonical site, in a stable order, for sweep enumeration.
const std::vector<std::string_view>& AllFaultSites();

// The error code a site reports when a plan does not override it. Chosen to
// mirror what the real hardware path would return (PMP exhaustion, IOMMU
// fault, allocator exhaustion, ...), so injected failures exercise the same
// error-handling edges as organic ones.
ErrorCode DefaultFaultCode(std::string_view site);

struct FaultSpec {
  std::string site;
  uint64_t trigger = 1;  // 1-based occurrence at which the site fails.
  ErrorCode code = ErrorCode::kInternal;
  bool repeat = false;  // Fail every occurrence >= trigger, not just one.
};

class FaultPlan {
 public:
  FaultPlan() = default;

  static FaultPlan Single(std::string_view site, uint64_t trigger,
                          ErrorCode code);
  static FaultPlan Single(std::string_view site, uint64_t trigger) {
    return Single(site, trigger, DefaultFaultCode(site));
  }

  // Derives one (site, occurrence) choice from `seed`, uniform over the
  // occurrence counts observed by a counting run. Deterministic: the same
  // seed and counts always produce the same plan.
  static FaultPlan FromSeed(uint64_t seed,
                            const std::map<std::string, uint64_t>& occurrences);

  FaultPlan& Add(FaultSpec spec);
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  std::string ToString() const;

 private:
  std::vector<FaultSpec> specs_;
};

// Process-global injector. Arm/Disarm, counting and every check are
// mutex-guarded; sites reach Check() only through the hook, and only while
// `fault_hook.active` is raised.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms `plan` and resets all per-site occurrence counters.
  void Arm(FaultPlan plan);
  // Disarms and clears counters; safe to call when nothing is armed.
  void Disarm();

  // Observation mode: sites count occurrences but never fail.
  void StartCounting();
  // Returns the per-site counts accumulated since StartCounting.
  std::map<std::string, uint64_t> StopCounting();

  // True when a plan is armed or counting is on.
  static bool active() { return fault_hook.active.load(std::memory_order_relaxed); }

  // Number of faults actually delivered since the last Arm().
  uint64_t fired_count() const;
  // Sites that delivered a fault since the last Arm(), in firing order.
  std::vector<std::string> fired_sites() const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;
  // The hook's check: bumps the site counter and returns the planned error
  // if this occurrence should fail.
  static Status HookCheck(std::string_view site);
  Status Check(std::string_view site);
  // Installs HookCheck and raises or lowers the hook's flag.
  void UpdateActiveLocked();

  mutable std::mutex mu_;
  bool armed_ = false;
  bool counting_ = false;
  FaultPlan plan_;
  std::map<std::string, uint64_t, std::less<>> hits_;
  std::vector<std::string> fired_;
  // Every site name that has fired, kept for the process lifetime so the
  // hook's `last_fired_site` never dangles.
  std::set<std::string, std::less<>> fired_names_;
};

// RAII arm/disarm for tests: guarantees the global injector is quiescent when
// the scope exits, even if an assertion throws.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultInjector::Instance().Arm(std::move(plan));
  }
  ~ScopedFaultPlan() { FaultInjector::Instance().Disarm(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace tyche

#endif  // SRC_SUPPORT_FAULTS_H_
