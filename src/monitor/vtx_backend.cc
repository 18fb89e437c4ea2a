// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/vtx_backend.h"

#include <algorithm>

#include "src/support/fault_hook.h"
#include "src/support/log.h"
#include "src/support/profiler.h"

namespace tyche {

namespace {

using DomainMap = std::vector<CapabilityEngine::MappedRegion>;

// The permissions `map` gives `addr`. `region` is a cursor into the
// address-ordered map: callers pass increasing addresses, and each call
// resumes where the previous one stopped.
Perms PermsAt(const DomainMap& map, DomainMap::const_iterator* region, uint64_t addr) {
  *region = std::find_if(*region, map.end(),
                         [addr](const auto& r) { return r.range.end() > addr; });
  return *region != map.end() && (*region)->range.Contains(addr) ? (*region)->perms : Perms{};
}

}  // namespace

VtxBackend::VtxBackend(Machine* machine, const CapabilityEngine* engine,
                       FrameAllocator* metadata)
    : machine_(machine), engine_(engine), metadata_(metadata) {}

Result<VtxBackend::DomainContext*> VtxBackend::ContextOf(DomainId domain) {
  const auto it = contexts_.find(domain);
  if (it == contexts_.end()) {
    return Error(ErrorCode::kNotFound, "no backend context for domain");
  }
  return &it->second;
}

Status VtxBackend::CreateDomainContext(DomainId domain, uint16_t asid) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  if (contexts_.contains(domain)) {
    return Error(ErrorCode::kAlreadyExists, "backend context exists");
  }
  TYCHE_FAULT_POINT(faults::kVtxCreateContext);
  TYCHE_ASSIGN_OR_RETURN(NestedPageTable table,
                         NestedPageTable::Create(&machine_->memory(), metadata_,
                                                 &machine_->cycles()));
  DomainContext context;
  context.ept = std::make_unique<NestedPageTable>(std::move(table));
  context.asid = asid;
  contexts_.emplace(domain, std::move(context));
  return OkStatus();
}

Status VtxBackend::DestroyDomainContext(DomainId domain) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  // Detach any devices still bound to this context. Teardown must not stop
  // half-way, so failures here are logged and the walk continues; a device
  // that would not detach still loses its translation when the EPT below is
  // destroyed.
  for (const uint16_t bdf : context->devices) {
    const Status detached = machine_->iommu().DetachDevice(PciBdf{bdf});
    if (!detached.ok()) {
      TYCHE_LOG(kWarn) << "vtx: teardown detach of device " << bdf
                       << " failed: " << detached.ToString();
    }
  }
  // Make sure no core keeps the dying EPT installed.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (machine_->CoreEpt(core) == context->ept.get()) {
      machine_->SetCoreEpt(core, nullptr, /*flush_tlb=*/true);
    }
  }
  for (auto& [core, domains] : fast_paths_) {
    domains.erase(domain);
  }
  TYCHE_RETURN_IF_ERROR(context->ept->Destroy());
  if (!context->degraded.empty()) {
    NoteFailsafeCleared();  // the fail-safe state dies with the context
  }
  contexts_.erase(domain);
  return OkStatus();
}

Status VtxBackend::SyncMemory(DomainId domain, const AddrRange& range) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  NestedPageTable* ept = context->ept.get();

  ++stats_.memory_syncs;
  auto sync_pages = [&]() -> Status {
    TYCHE_FAULT_POINT(faults::kVtxSyncMemory);
    // One pass: the effective map over the range, walked alongside the pages.
    const uint64_t begin = AlignDown(range.base, kPageSize);
    const DomainMap regions =
        engine_->DomainMemoryMap(domain, AddrRange{begin, range.end() - begin});
    auto region = regions.begin();
    for (uint64_t page = begin; page < range.end(); page += kPageSize) {
      const Perms effective = PermsAt(regions, &region, page);
      const auto current = ept->Lookup(page);
      if (effective.empty()) {
        if (current.ok()) {
          TYCHE_RETURN_IF_ERROR(ept->UnmapPage(page));
          ++stats_.pages_unmapped;
        }
      } else if (!current.ok()) {
        // Identity mapping: domains name physical memory directly.
        TYCHE_RETURN_IF_ERROR(ept->MapPage(page, page, effective));
        ++stats_.pages_mapped;
      } else if (current->perms != effective) {
        TYCHE_RETURN_IF_ERROR(ept->ProtectPage(page, effective));
        ++stats_.pages_protected;
      }
    }
    return OkStatus();
  };
  const Status synced = sync_pages();
  if (!synced.ok()) {
    // FAIL SAFE: a half-applied sync could leave a page mapped that the tree
    // no longer justifies. Deny the whole range instead; hardware then
    // enforces a subset of the capability tree until a later sync repairs it.
    DenyRange(context, range);
    FlushDomain(domain);
    return synced;
  }
  if (!context->degraded.empty() && range.base <= context->degraded.base &&
      context->degraded.end() <= range.end()) {
    // A full, successful sync over the degraded hull restores liveness.
    context->degraded = AddrRange{0, 0};
    NoteFailsafeCleared();
  }
  FlushDomain(domain);
  return OkStatus();
}

void VtxBackend::DenyRange(DomainContext* context, const AddrRange& range) {
  const uint64_t begin = AlignDown(range.base, kPageSize);
  const uint64_t end = range.end();
  for (uint64_t page = begin; page < end; page += kPageSize) {
    if (!context->ept->Lookup(page).ok()) {
      continue;
    }
    const Status unmapped = context->ept->UnmapPage(page);
    if (!unmapped.ok()) {
      // Unmapping an existing leaf cannot allocate and should never fail;
      // if it somehow does, scream — this is the one path with no fallback.
      TYCHE_LOG(kError) << "vtx: deny-range unmap of page " << page
                        << " failed: " << unmapped.ToString();
    } else {
      ++stats_.pages_unmapped;
    }
  }
  if (context->degraded.empty()) {
    context->degraded = AddrRange{begin, end - begin};
    NoteFailsafeEntered();
  } else {
    const uint64_t lo = std::min(context->degraded.base, begin);
    const uint64_t hi = std::max(context->degraded.end(), end);
    context->degraded = AddrRange{lo, hi - lo};
  }
}

bool VtxBackend::Degraded(DomainId domain) const {
  const auto it = contexts_.find(domain);
  return it != contexts_.end() && !it->second.degraded.empty();
}

Status VtxBackend::AttachDevice(DomainId domain, uint16_t bdf) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  TYCHE_FAULT_POINT(faults::kVtxAttachDevice);
  TYCHE_RETURN_IF_ERROR(machine_->iommu().AttachDevice(PciBdf{bdf}, context->ept.get()));
  context->devices.insert(bdf);
  ++stats_.iommu_updates;
  return OkStatus();
}

Status VtxBackend::DetachDevice(DomainId domain, uint16_t bdf) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  if (!context->devices.contains(bdf)) {
    return Error(ErrorCode::kNotFound, "device not attached to domain");
  }
  TYCHE_FAULT_POINT(faults::kVtxDetachDevice);
  // Drop the bookkeeping entry only once the IOMMU walk succeeded, so a
  // failed detach stays visible to the validator (rule 3) instead of
  // leaving a silently-forgotten live translation.
  TYCHE_RETURN_IF_ERROR(machine_->iommu().DetachDevice(PciBdf{bdf}));
  context->devices.erase(bdf);
  ++stats_.iommu_updates;
  return OkStatus();
}

Status VtxBackend::BindCore(DomainId domain, CoreId core) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  TYCHE_FAULT_POINT(faults::kVtxBindCore);
  // Slow path: full EPTP load; without VPID tagging this flushes the TLB.
  machine_->SetCoreEpt(core, context->ept.get(), /*flush_tlb=*/true);
  machine_->cpu(core).set_asid(context->asid);
  ++stats_.core_binds;
  ++stats_.tlb_shootdowns;
  return OkStatus();
}

Status VtxBackend::RegisterFastPath(DomainId domain, CoreId core) {
  if (!contexts_.contains(domain)) {
    return Error(ErrorCode::kNotFound, "no backend context for domain");
  }
  std::set<DomainId>& list = fast_paths_[core];
  if (list.size() >= kEptpListSize) {
    return Error(ErrorCode::kResourceExhausted, "EPTP list full");
  }
  list.insert(domain);
  return OkStatus();
}

Status VtxBackend::FastBindCore(DomainId domain, CoreId core) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  const auto it = fast_paths_.find(core);
  if (it == fast_paths_.end() || !it->second.contains(domain)) {
    return Error(ErrorCode::kTransitionDenied, "domain not in core's EPTP list");
  }
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  // VMFUNC path: EPTP switch with VPID-tagged TLB, no flush, no VM exit.
  machine_->SetCoreEpt(core, context->ept.get(), /*flush_tlb=*/false);
  machine_->cpu(core).set_asid(context->asid);
  ++stats_.fast_binds;
  return OkStatus();
}

void VtxBackend::FlushDomain(DomainId domain) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  const auto it = contexts_.find(domain);
  if (it == contexts_.end()) {
    return;
  }
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (machine_->CoreEpt(core) == it->second.ept.get()) {
      machine_->FlushTlb(core);
      ++stats_.tlb_shootdowns;
    }
  }
}

Result<bool> VtxBackend::ValidateAgainst(const CapabilityEngine& engine, DomainId domain) {
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  bool consistent = true;
  const DomainMap map = engine.DomainMemoryMap(domain);

  // 1. Every hardware mapping must be justified by an active capability
  //    with at least those permissions, and must be an identity mapping.
  //    Mappings arrive in address order, so one cursor walks the map.
  auto region = map.begin();
  context->ept->ForEachMapping([&](uint64_t gpa, uint64_t hpa, Perms perms) {
    if (gpa != hpa) {
      consistent = false;
      return;
    }
    if (!PermsAt(map, &region, gpa).Covers(perms)) {
      consistent = false;
    }
  });

  // 2. Every capability-mandated region must be mapped with exactly the
  //    effective permissions — except inside a fail-safe denied hull, where
  //    missing mappings are the *intended* degraded state (rule 1 above
  //    still forbids any mapping the tree does not justify).
  for (const auto& mandated : map) {
    for (uint64_t page = mandated.range.base; page < mandated.range.end(); page += kPageSize) {
      if (!context->degraded.empty() && context->degraded.Contains(page)) {
        continue;
      }
      const auto mapping = context->ept->Lookup(page);
      if (!mapping.ok() || mapping->perms != mandated.perms) {
        consistent = false;
        break;
      }
    }
  }

  // 3. Devices attached to this domain must point at this domain's EPT.
  for (const uint16_t bdf : context->devices) {
    if (machine_->iommu().ContextOf(PciBdf{bdf}) != context->ept.get()) {
      consistent = false;
    }
  }
  return consistent;
}

const NestedPageTable* VtxBackend::DomainEpt(DomainId domain) const {
  const auto it = contexts_.find(domain);
  return it == contexts_.end() ? nullptr : it->second.ept.get();
}

uint64_t VtxBackend::TotalTableFrames() const {
  uint64_t total = 0;
  for (const auto& [id, context] : contexts_) {
    total += context.ept->table_frames();
  }
  return total;
}

}  // namespace tyche
