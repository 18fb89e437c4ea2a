// Copyright 2026 The Tyche Reproduction Authors.

#include "src/hw/iommu.h"

#include "src/support/fault_hook.h"

namespace tyche {

Status Iommu::AttachDevice(PciBdf bdf, const NestedPageTable* table) {
  if (table == nullptr) {
    return DetachDevice(bdf);
  }
  TYCHE_FAULT_POINT(faults::kIommuAttach);
  contexts_[bdf] = table;
  cycles_->Charge(CostModel::Default().iommu_entry_update);
  return OkStatus();
}

Status Iommu::DetachDevice(PciBdf bdf) {
  contexts_.erase(bdf);
  cycles_->Charge(CostModel::Default().iommu_entry_update);
  return OkStatus();
}

Result<Translation> Iommu::Translate(PciBdf bdf, uint64_t addr, AccessType access) const {
  const auto it = contexts_.find(bdf);
  if (it == contexts_.end()) {
    return Error(ErrorCode::kIommuFault, "device has no IOMMU context");
  }
  auto translation = it->second->Translate(addr, access);
  if (!translation.ok()) {
    return Error(ErrorCode::kIommuFault, "DMA translation fault");
  }
  return translation;
}

const NestedPageTable* Iommu::ContextOf(PciBdf bdf) const {
  const auto it = contexts_.find(bdf);
  return it == contexts_.end() ? nullptr : it->second;
}

}  // namespace tyche
