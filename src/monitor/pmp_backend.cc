// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/pmp_backend.h"

#include <algorithm>

#include "src/support/fault_hook.h"
#include "src/support/log.h"
#include "src/support/profiler.h"

namespace tyche {

PmpBackend::PmpBackend(Machine* machine, const CapabilityEngine* engine,
                       AddrRange monitor_range)
    : machine_(machine), engine_(engine), monitor_range_(monitor_range) {}

Result<PmpBackend::DomainContext*> PmpBackend::ContextOf(DomainId domain) {
  const auto it = contexts_.find(domain);
  if (it == contexts_.end()) {
    return Error(ErrorCode::kNotFound, "no backend context for domain");
  }
  return &it->second;
}

Status PmpBackend::CreateDomainContext(DomainId domain, uint16_t asid) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  if (contexts_.contains(domain)) {
    return Error(ErrorCode::kAlreadyExists, "backend context exists");
  }
  TYCHE_FAULT_POINT(faults::kPmpCreateContext);
  DomainContext context;
  context.asid = asid;
  contexts_.emplace(domain, std::move(context));
  return OkStatus();
}

Status PmpBackend::DestroyDomainContext(DomainId domain) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  for (const uint16_t bdf : context->devices) {
    machine_->io_pmp().Remove(PciBdf{bdf});
  }
  // Clear any hart still carrying this domain's entries. Teardown keeps
  // going past individual write failures (there is nothing safer to fall
  // back to than continuing to clear), but they are reported, not swallowed.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (machine_->cpu(core).current_domain() == domain) {
      for (int i = kFirstDomainEntry; i < PmpFile::kNumEntries; ++i) {
        const Status cleared = machine_->cpu(core).pmp().ClearEntry(i, &machine_->cycles());
        if (!cleared.ok()) {
          TYCHE_LOG(kError) << "pmp: teardown clear of core " << core << " entry " << i
                            << " failed: " << cleared.ToString();
        }
      }
    }
  }
  if (context->denied) {
    NoteFailsafeCleared();  // the fail-safe state dies with the context
  }
  contexts_.erase(domain);
  return OkStatus();
}

Result<PmpBackend::PmpProgram> PmpBackend::Compile(
    const std::vector<CapabilityEngine::MappedRegion>& map, int budget) {
  PmpProgram program;
  int used = 0;
  for (const auto& region : map) {
    const bool napot_ok = region.range.size >= 8 && IsPowerOfTwo(region.range.size) &&
                          IsAligned(region.range.base, region.range.size);
    if (napot_ok) {
      if (used + 1 > budget) {
        return Error(ErrorCode::kPmpExhausted, "domain layout exceeds PMP entries");
      }
      TYCHE_ASSIGN_OR_RETURN(const uint64_t addr,
                             PmpFile::EncodeNapot(region.range.base, region.range.size));
      PmpEntry entry;
      entry.mode = PmpAddressMode::kNapot;
      entry.perms = region.perms;
      entry.addr = addr;
      program.entries.push_back(entry);
      used += 1;
    } else {
      if (used + 2 > budget) {
        return Error(ErrorCode::kPmpExhausted, "domain layout exceeds PMP entries");
      }
      // TOR pair: an OFF entry carrying the base, then the TOR entry.
      PmpEntry bottom;
      bottom.mode = PmpAddressMode::kOff;
      bottom.addr = PmpFile::EncodeTorAddr(region.range.base);
      PmpEntry top;
      top.mode = PmpAddressMode::kTor;
      top.perms = region.perms;
      top.addr = PmpFile::EncodeTorAddr(region.range.end());
      program.entries.push_back(bottom);
      program.entries.push_back(top);
      used += 2;
    }
  }
  return program;
}

Status PmpBackend::SyncMemory(DomainId domain, const AddrRange& range) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  (void)range;  // PMP has no page granularity: recompile the whole layout.
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  ++stats_.memory_syncs;
  ++stats_.pmp_recompiles;
  auto compile = [&]() -> Result<PmpProgram> {
    TYCHE_FAULT_POINT(faults::kPmpRecompile);
    return Compile(engine_->DomainMemoryMap(domain), kDomainEntryBudget);
  };
  Result<PmpProgram> program = compile();
  Status failure = program.ok() ? OkStatus() : program.status();
  if (program.ok()) {
    context->program = std::move(*program);
    if (context->denied) {
      NoteFailsafeCleared();
    }
    context->denied = false;
    // Rewrite harts currently running this domain and any bound devices.
    // Visit EVERY hart and device even after a failure — an early return
    // here would silently leave the remaining cores enforcing the stale
    // (possibly revoked) program — then fall into the deny path below with
    // the first error.
    for (CoreId core = 0; core < machine_->num_cores(); ++core) {
      if (machine_->cpu(core).current_domain() != domain) {
        continue;
      }
      const Status bound = BindCore(domain, core);
      if (!bound.ok() && failure.ok()) {
        failure = bound;
      }
    }
    for (const uint16_t bdf : context->devices) {
      const Status synced = SyncDevice(*context, bdf);
      if (!synced.ok() && failure.ok()) {
        failure = synced;
      }
    }
    if (failure.ok()) {
      return OkStatus();
    }
  }
  // FAIL SAFE. Either the new layout does not fit the entry budget, or a
  // hart/device write failed half-way; leaving the OLD (or a torn) program
  // installed would keep enforcing stale access. Deny the whole domain
  // instead -- the hardware may enforce a subset of the capability tree,
  // never a superset -- and report the error so policy operations can be
  // rolled back (a later successful sync restores enforcement).
  context->program.entries.clear();
  if (!context->denied) {
    NoteFailsafeEntered();
  }
  context->denied = true;
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (machine_->cpu(core).current_domain() != domain) {
      continue;
    }
    const Status denied = BindCore(domain, core);
    if (!denied.ok()) {
      // Clearing entries cannot allocate; a failure here means even the
      // deny write was refused. Nothing sounder is reachable — report it.
      TYCHE_LOG(kError) << "pmp: deny-all write to core " << core
                        << " failed: " << denied.ToString();
    }
  }
  for (const uint16_t bdf : context->devices) {
    const Status synced = SyncDevice(*context, bdf);
    if (!synced.ok()) {
      TYCHE_LOG(kError) << "pmp: deny-all write to device " << bdf
                        << " failed: " << synced.ToString();
    }
  }
  return failure;
}

Status PmpBackend::SyncDevice(const DomainContext& context, uint16_t bdf) {
  TYCHE_FAULT_POINT(faults::kPmpSyncDevice);
  PmpFile& file = machine_->io_pmp().FileFor(PciBdf{bdf});
  for (int i = 0; i < PmpFile::kNumEntries; ++i) {
    TYCHE_RETURN_IF_ERROR(file.ClearEntry(i, &machine_->cycles()));
    ++stats_.pmp_entry_writes;
  }
  int slot = 0;
  for (const PmpEntry& entry : context.program.entries) {
    TYCHE_RETURN_IF_ERROR(file.SetEntry(slot++, entry, &machine_->cycles()));
    ++stats_.pmp_entry_writes;
  }
  ++stats_.iommu_updates;
  return OkStatus();
}

Status PmpBackend::AttachDevice(DomainId domain, uint16_t bdf) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  TYCHE_FAULT_POINT(faults::kPmpAttachDevice);
  context->devices.insert(bdf);
  const Status synced = SyncDevice(*context, bdf);
  if (!synced.ok()) {
    // A device whose IOPMP could not be programmed must not be remembered
    // as attached: undo the insert and drop its file (default-deny).
    context->devices.erase(bdf);
    machine_->io_pmp().Remove(PciBdf{bdf});
    return synced;
  }
  return OkStatus();
}

Status PmpBackend::DetachDevice(DomainId domain, uint16_t bdf) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  if (!context->devices.contains(bdf)) {
    return Error(ErrorCode::kNotFound, "device not attached to domain");
  }
  TYCHE_FAULT_POINT(faults::kPmpDetachDevice);
  context->devices.erase(bdf);
  machine_->io_pmp().Remove(PciBdf{bdf});
  ++stats_.iommu_updates;
  return OkStatus();
}

void PmpBackend::InstallGuard(CoreId core) {
  if (guarded_cores_.contains(core)) {
    return;
  }
  PmpEntry guard;
  guard.mode = PmpAddressMode::kNapot;
  guard.perms = Perms{};  // match-and-deny for S/U mode
  guard.locked = true;
  const auto addr = PmpFile::EncodeNapot(monitor_range_.base, monitor_range_.size);
  if (addr.ok()) {
    guard.addr = *addr;
    const Status installed = machine_->cpu(core).pmp().SetEntry(0, guard, &machine_->cycles());
    if (!installed.ok()) {
      // Leave the core out of guarded_cores_ so the next bind retries.
      TYCHE_LOG(kError) << "pmp: monitor guard install on core " << core
                        << " failed: " << installed.ToString();
      return;
    }
    guarded_cores_.insert(core);
  }
}

Status PmpBackend::BindCore(DomainId domain, CoreId core) {
  const ScopedPhase phase(DispatchPhase::kBackend);
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));
  TYCHE_FAULT_POINT(faults::kPmpBindCore);
  InstallGuard(core);
  PmpFile& pmp = machine_->cpu(core).pmp();
  // Deterministic switch cost: rewrite every domain-owned entry.
  int slot = kFirstDomainEntry;
  for (const PmpEntry& entry : context->program.entries) {
    TYCHE_RETURN_IF_ERROR(pmp.SetEntry(slot++, entry, &machine_->cycles()));
    ++stats_.pmp_entry_writes;
  }
  for (; slot < PmpFile::kNumEntries; ++slot) {
    TYCHE_RETURN_IF_ERROR(pmp.ClearEntry(slot, &machine_->cycles()));
    ++stats_.pmp_entry_writes;
  }
  machine_->cpu(core).set_asid(context->asid);
  ++stats_.core_binds;
  return OkStatus();
}

Status PmpBackend::RegisterFastPath(DomainId domain, CoreId core) {
  (void)domain;
  (void)core;
  return Error(ErrorCode::kUnimplemented, "PMP has no hardware fast-transition path");
}

Status PmpBackend::FastBindCore(DomainId domain, CoreId core) {
  (void)domain;
  (void)core;
  return Error(ErrorCode::kUnimplemented, "PMP has no hardware fast-transition path");
}

void PmpBackend::FlushDomain(DomainId domain) {
  // PMP checks are not cached in this model; nothing to flush.
  (void)domain;
}

Result<bool> PmpBackend::ValidateAgainst(const CapabilityEngine& engine, DomainId domain) {
  TYCHE_ASSIGN_OR_RETURN(DomainContext * context, ContextOf(domain));

  // Recompile from the engine (source of truth) and compare with what the
  // hardware would enforce.
  auto expected = Compile(engine.DomainMemoryMap(domain), kDomainEntryBudget);
  if (!expected.ok() || context->denied) {
    // Deny-all fallback is the only sound hardware state here: either the
    // layout is not expressible, or a hart/device write failure forced
    // fail-safe denial (a strict subset of the tree in both cases).
    return context->program.entries.empty();
  }
  if (expected->entries.size() != context->program.entries.size()) {
    return false;
  }
  for (size_t i = 0; i < expected->entries.size(); ++i) {
    const PmpEntry& a = expected->entries[i];
    const PmpEntry& b = context->program.entries[i];
    if (a.mode != b.mode || a.addr != b.addr || !(a.perms == b.perms)) {
      return false;
    }
  }

  // Harts running this domain must carry exactly the compiled program.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (machine_->cpu(core).current_domain() != domain) {
      continue;
    }
    const PmpFile& pmp = machine_->cpu(core).pmp();
    int slot = kFirstDomainEntry;
    for (const PmpEntry& entry : context->program.entries) {
      const auto installed = pmp.GetEntry(slot++);
      if (!installed.ok() || installed->mode != entry.mode || installed->addr != entry.addr ||
          !(installed->perms == entry.perms)) {
        return false;
      }
    }
  }
  return true;
}

bool PmpBackend::Denied(DomainId domain) const {
  const auto it = contexts_.find(domain);
  return it != contexts_.end() && it->second.denied;
}

Result<int> PmpBackend::DomainEntryCount(DomainId domain) const {
  const auto it = contexts_.find(domain);
  if (it == contexts_.end()) {
    return Error(ErrorCode::kNotFound, "no backend context for domain");
  }
  return static_cast<int>(it->second.program.entries.size());
}

}  // namespace tyche
