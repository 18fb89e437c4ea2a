// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/enclave.h"

namespace tyche {

Result<Enclave> Enclave::Create(Monitor* monitor, CoreId core, const TycheImage& image,
                                const LoadOptions& options) {
  TYCHE_ASSIGN_OR_RETURN(LoadedDomain loaded, LoadImage(monitor, core, image, options));
  return Enclave(monitor, loaded);
}

Result<CapId> Enclave::FindOwnCap(AddrRange range) const {
  const auto found = FindMemoryCap(*monitor_, loaded_.domain, range);
  if (!found.ok()) {
    return Error(ErrorCode::kNotFound, "enclave holds no capability covering range");
  }
  return found;
}

Result<Enclave> Enclave::SpawnNested(CoreId core, const TycheImage& image, uint64_t base,
                                     uint64_t size, const std::vector<CoreId>& cores,
                                     bool seal) {
  // Must be called while this enclave runs on `core`.
  if (monitor_->CurrentDomain(core) != loaded_.domain) {
    return Error(ErrorCode::kFailedPrecondition, "SpawnNested must run inside the enclave");
  }
  LoadOptions options;
  TYCHE_ASSIGN_OR_RETURN(options.src_cap, FindOwnCap(AddrRange{base, size}));
  options.base = base;
  options.size = size;
  options.cores = cores;
  for (const CoreId c : cores) {
    const auto core_cap = FindUnitCap(*monitor_, loaded_.domain, ResourceKind::kCpuCore, c);
    if (!core_cap.ok()) {
      return Error(ErrorCode::kNotFound, "enclave does not own the requested core");
    }
    options.core_caps.push_back(*core_cap);
  }
  options.seal = seal;
  options.policy = RevocationPolicy(RevocationPolicy::kObfuscate);
  TYCHE_ASSIGN_OR_RETURN(LoadedDomain loaded, LoadImage(monitor_, core, image, options));
  return Enclave(monitor_, loaded);
}

Result<CapId> Enclave::ShareWithChild(CoreId core, CapId child_handle, AddrRange range,
                                      Perms perms) {
  if (monitor_->CurrentDomain(core) != loaded_.domain) {
    return Error(ErrorCode::kFailedPrecondition,
                 "ShareWithChild must run inside the enclave");
  }
  TYCHE_ASSIGN_OR_RETURN(const CapId own, FindOwnCap(range));
  return monitor_->ShareMemory(core, own, child_handle, range, perms, CapRights{},
                               RevocationPolicy(RevocationPolicy::kObfuscate));
}

}  // namespace tyche
