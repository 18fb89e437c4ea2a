// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/faults.h"

#include <utility>

#include "src/support/prng.h"

namespace tyche {

const std::vector<std::string_view>& AllFaultSites() {
  static const std::vector<std::string_view> kSites = {
      faults::kFrameAlloc,       faults::kIommuAttach,
      faults::kRangeAlloc,       faults::kAeadOpen,
      faults::kVtxCreateContext, faults::kVtxSyncMemory,
      faults::kVtxAttachDevice,  faults::kVtxDetachDevice,
      faults::kVtxBindCore,      faults::kPmpCreateContext,
      faults::kPmpRecompile,     faults::kPmpBindCore,
      faults::kPmpSyncDevice,    faults::kPmpAttachDevice,
      faults::kPmpDetachDevice,  faults::kEnginePurgeRevoke,
      faults::kMigrateFreeze,    faults::kMigrateCapture,
      faults::kMigrateTransfer,  faults::kMigrateRestore,
      faults::kMigrateResync,    faults::kMigrateCommit,
      faults::kChannelDrop,      faults::kChannelDup,
      faults::kChannelReorder,   faults::kFleetNodeCrash,
      faults::kFleetVerifyTimeout, faults::kFleetBreakerProbe,
      faults::kFleetCachePoison, faults::kFleetQueueOverflow,
      faults::kFleetBatchForge,
  };
  return kSites;
}

ErrorCode DefaultFaultCode(std::string_view site) {
  if (site == faults::kFrameAlloc || site == faults::kRangeAlloc) {
    return ErrorCode::kResourceExhausted;
  }
  if (site == faults::kIommuAttach || site == faults::kVtxAttachDevice ||
      site == faults::kVtxDetachDevice || site == faults::kPmpAttachDevice ||
      site == faults::kPmpDetachDevice || site == faults::kPmpSyncDevice) {
    return ErrorCode::kIommuFault;
  }
  if (site == faults::kAeadOpen) {
    return ErrorCode::kSignatureInvalid;
  }
  if (site == faults::kPmpRecompile) {
    return ErrorCode::kPmpExhausted;
  }
  if (site == faults::kVtxSyncMemory) {
    return ErrorCode::kAccessViolation;
  }
  if (site == faults::kMigrateFreeze || site == faults::kMigrateCapture ||
      site == faults::kMigrateTransfer || site == faults::kMigrateRestore ||
      site == faults::kMigrateResync || site == faults::kMigrateCommit) {
    // A killed migration stage surfaces as a precondition failure of the
    // staged commit; the protocol converts it into a journaled abort.
    return ErrorCode::kFailedPrecondition;
  }
  if (site == faults::kFleetNodeCrash || site == faults::kFleetBreakerProbe) {
    return ErrorCode::kUnavailable;
  }
  if (site == faults::kFleetVerifyTimeout) {
    return ErrorCode::kDeadlineExceeded;
  }
  if (site == faults::kFleetCachePoison) {
    return ErrorCode::kAttestationMismatch;
  }
  if (site == faults::kFleetBatchForge) {
    return ErrorCode::kSignatureInvalid;
  }
  if (site == faults::kFleetQueueOverflow) {
    return ErrorCode::kOverloaded;
  }
  return ErrorCode::kInternal;
}

FaultPlan FaultPlan::Single(std::string_view site, uint64_t trigger,
                            ErrorCode code) {
  FaultPlan plan;
  plan.Add(FaultSpec{std::string(site), trigger, code, /*repeat=*/false});
  return plan;
}

FaultPlan FaultPlan::FromSeed(
    uint64_t seed, const std::map<std::string, uint64_t>& occurrences) {
  // Weight sites by occurrence count so every (site, occurrence) pair in the
  // workload is equally likely, not every site.
  uint64_t total = 0;
  for (const auto& [site, count] : occurrences) {
    total += count;
  }
  FaultPlan plan;
  if (total == 0) {
    return plan;
  }
  Prng prng(seed);
  uint64_t pick = prng.Below(total);
  for (const auto& [site, count] : occurrences) {
    if (pick < count) {
      plan.Add(FaultSpec{site, /*trigger=*/pick + 1, DefaultFaultCode(site),
                         /*repeat=*/false});
      break;
    }
    pick -= count;
  }
  return plan;
}

FaultPlan& FaultPlan::Add(FaultSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

std::string FaultPlan::ToString() const {
  std::string out = "{";
  for (const FaultSpec& spec : specs_) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += spec.site;
    out += "@";
    out += std::to_string(spec.trigger);
    if (spec.repeat) {
      out += "+";
    }
    out += "->";
    out += std::string(ErrorCodeName(spec.code));
  }
  out += "}";
  return out;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

Status FaultInjector::HookCheck(std::string_view site) {
  return Instance().Check(site);
}

void FaultInjector::UpdateActiveLocked() {
  fault_hook.check.store(&HookCheck, std::memory_order_release);
  fault_hook.active.store(armed_ || counting_, std::memory_order_relaxed);
}

void FaultInjector::Arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  armed_ = true;
  hits_.clear();
  fired_.clear();
  UpdateActiveLocked();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  plan_ = FaultPlan();
  hits_.clear();
  UpdateActiveLocked();
}

void FaultInjector::StartCounting() {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = true;
  hits_.clear();
  UpdateActiveLocked();
}

std::map<std::string, uint64_t> FaultInjector::StopCounting() {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = false;
  std::map<std::string, uint64_t> counts(hits_.begin(), hits_.end());
  hits_.clear();
  UpdateActiveLocked();
  return counts;
}

Status FaultInjector::Check(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  if (it == hits_.end()) {
    it = hits_.emplace(std::string(site), 0).first;
  }
  const uint64_t occurrence = ++it->second;
  if (!armed_) {
    return OkStatus();
  }
  for (const FaultSpec& spec : plan_.specs()) {
    if (spec.site != site) {
      continue;
    }
    const bool hit =
        spec.repeat ? occurrence >= spec.trigger : occurrence == spec.trigger;
    if (hit) {
      fired_.push_back(std::string(site));
      const std::string& name = *fired_names_.emplace(site).first;
      fault_hook.last_fired_site.store(name.c_str(), std::memory_order_relaxed);
      fault_hook.fired.fetch_add(1, std::memory_order_release);
      return Error(spec.code, "injected fault: " + std::string(site) + "#" +
                                  std::to_string(occurrence));
    }
  }
  return OkStatus();
}

uint64_t FaultInjector::fired_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_.size();
}

std::vector<std::string> FaultInjector::fired_sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

}  // namespace tyche
