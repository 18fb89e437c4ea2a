// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/loader.h"

#include <algorithm>

namespace tyche {

Result<std::vector<LayoutRegion>> ComputeLoadLayout(const TycheImage& image, uint64_t base,
                                                    uint64_t size) {
  if (!IsPageAligned(base) || !IsPageAligned(size) || size == 0) {
    return Error(ErrorCode::kInvalidArgument, "load region must be page-aligned");
  }
  if (image.extent() > size) {
    return Error(ErrorCode::kInvalidArgument, "image larger than load region");
  }
  std::vector<LayoutRegion> regions;
  uint64_t cursor = base;
  // Segments are kept sorted by offset inside TycheImage.
  for (const ImageSegment& segment : image.segments()) {
    const uint64_t seg_base = base + segment.offset;
    if (seg_base > cursor) {
      regions.push_back(LayoutRegion{AddrRange{cursor, seg_base - cursor},
                                     Perms(Perms::kRWX), /*shared=*/false, /*heap=*/true});
    }
    regions.push_back(LayoutRegion{AddrRange{seg_base, segment.size}, segment.perms,
                                   segment.shared, /*heap=*/false});
    cursor = seg_base + segment.size;
  }
  if (cursor < base + size) {
    regions.push_back(LayoutRegion{AddrRange{cursor, base + size - cursor},
                                   Perms(Perms::kRWX), /*shared=*/false, /*heap=*/true});
  }
  return regions;
}

// Both finders return the newest of the domain's matching active caps.
Result<CapId> FindMemoryCap(const Monitor& monitor, DomainId domain, AddrRange range) {
  CapId found = kInvalidCap;
  for (const Capability* cap : monitor.engine().DomainCaps(domain)) {
    if (cap->kind == ResourceKind::kMemory && cap->range.Contains(range)) {
      found = cap->id;
    }
  }
  if (found == kInvalidCap) {
    return Error(ErrorCode::kNotFound, "no capability covering range");
  }
  return found;
}

Result<CapId> FindUnitCap(const Monitor& monitor, DomainId domain, ResourceKind kind,
                          uint64_t unit) {
  const CapId found = monitor.engine().FindUnit(domain, kind, unit);
  if (found == kInvalidCap) {
    return Error(ErrorCode::kNotFound, "no capability for unit");
  }
  return found;
}

Result<LoadedDomain> LoadImage(Monitor* monitor, CoreId core, const TycheImage& image,
                               const LoadOptions& options) {
  if (options.cores.size() != options.core_caps.size()) {
    return Error(ErrorCode::kInvalidArgument, "cores and core_caps must align");
  }
  const DomainId caller = monitor->CurrentDomain(core);
  TYCHE_ASSIGN_OR_RETURN(const std::vector<LayoutRegion> layout,
                         ComputeLoadLayout(image, options.base, options.size));

  Machine* machine = monitor->machine();

  // 1. Zero the whole region so unmeasured bytes are deterministic, then
  //    write segment payloads. The caller still owns the region here.
  {
    const std::vector<uint8_t> zeros(kPageSize, 0);
    for (uint64_t off = 0; off < options.size; off += kPageSize) {
      TYCHE_RETURN_IF_ERROR(machine->CheckedWrite(core, options.base + off,
                                                  std::span<const uint8_t>(zeros)));
    }
  }
  for (const ImageSegment& segment : image.segments()) {
    if (!segment.data.empty()) {
      TYCHE_RETURN_IF_ERROR(machine->CheckedWrite(
          core, options.base + segment.offset, std::span<const uint8_t>(segment.data)));
    }
  }

  // 2. Create the domain.
  TYCHE_ASSIGN_OR_RETURN(const CreateDomainResult created,
                         monitor->CreateDomain(core, image.name()));
  LoadedDomain loaded;
  loaded.domain = created.domain;
  loaded.handle = created.handle;
  loaded.base = options.base;
  loaded.size = options.size;

  // 3. Shared regions first (sharing does not split the source capability).
  for (const LayoutRegion& region : layout) {
    if (region.shared) {
      CapId src = options.src_cap;
      if (src == kInvalidCap) {
        TYCHE_ASSIGN_OR_RETURN(src, FindMemoryCap(*monitor, caller, region.range));
      }
      TYCHE_ASSIGN_OR_RETURN(
          const CapId shared_cap,
          monitor->ShareMemory(core, src, created.handle, region.range, region.perms,
                               CapRights{}, options.policy));
      loaded.shared_caps.push_back(shared_cap);
    }
  }

  // 4. Confidential regions: granted exclusively, in ascending order. Each
  //    grant splits the covering capability, so it is rediscovered per
  //    region.
  for (const LayoutRegion& region : layout) {
    if (region.shared) {
      continue;
    }
    TYCHE_ASSIGN_OR_RETURN(const CapId src,
                           FindMemoryCap(*monitor, caller, region.range));
    TYCHE_ASSIGN_OR_RETURN(
        const GrantResult grant,
        monitor->GrantMemory(core, src, created.handle, region.range, region.perms,
                             CapRights(CapRights::kAll), options.policy));
    loaded.granted_caps.push_back(grant.granted);
    for (const CapId rem : grant.remainders) {
      loaded.remainder_caps.push_back(rem);
    }
  }

  // 5. Cores. Shared with the share right so the domain can delegate its
  //    cores to nested children (§4.2 nesting).
  for (const CapId core_cap : options.core_caps) {
    TYCHE_RETURN_IF_ERROR(monitor
                              ->ShareUnit(core, core_cap, created.handle,
                                          CapRights(CapRights::kShare), RevocationPolicy{})
                              .status());
  }

  // 6. Entry point + measurement of flagged segments, in segment order.
  TYCHE_RETURN_IF_ERROR(
      monitor->SetEntryPoint(core, created.handle, options.base + image.entry_offset()));
  for (const ImageSegment& segment : image.segments()) {
    if (segment.measured) {
      TYCHE_RETURN_IF_ERROR(monitor->ExtendMeasurement(
          core, created.handle, AddrRange{options.base + segment.offset, segment.size}));
    }
  }

  // 7. Seal (freezes resources, finalizes the measurement).
  if (options.seal) {
    TYCHE_RETURN_IF_ERROR(monitor->Seal(core, created.handle));
  }
  return loaded;
}

Result<Digest> ComputeExpectedMeasurement(const TycheImage& image, uint64_t base,
                                          uint64_t size, const std::vector<CoreId>& cores,
                                          const std::vector<uint16_t>& devices,
                                          const std::vector<ExtraRegion>& extra) {
  TYCHE_ASSIGN_OR_RETURN(const std::vector<LayoutRegion> layout,
                         ComputeLoadLayout(image, base, size));

  Sha256 ctx;
  // Content measurements, exactly as the monitor's ExtendMeasurement folds
  // them: (base, size, SHA256(content zero-padded to size)).
  for (const ImageSegment& segment : image.segments()) {
    if (!segment.measured) {
      continue;
    }
    std::vector<uint8_t> content(segment.size, 0);
    std::copy(segment.data.begin(), segment.data.end(), content.begin());
    const Digest content_hash = Sha256::Hash(std::span<const uint8_t>(content));
    ctx.UpdateValue(base + segment.offset);
    ctx.UpdateValue(segment.size);
    ctx.Update(std::span<const uint8_t>(content_hash.bytes.data(), 32));
  }

  // Configuration hash, exactly as Monitor::Seal folds it: entry point plus
  // the canonical (kind, base, size, unit, perms) list of the domain's caps.
  ctx.Update(std::string_view("tyche-config-v1"));
  ctx.UpdateValue(base + image.entry_offset());

  struct Claim {
    uint8_t kind;
    uint64_t range_base;
    uint64_t range_size;
    uint64_t unit;
    uint8_t perms;
  };
  std::vector<Claim> claims;
  for (const LayoutRegion& region : layout) {
    claims.push_back(Claim{static_cast<uint8_t>(ResourceKind::kMemory), region.range.base,
                           region.range.size, 0, region.perms.mask});
  }
  for (const CoreId core : cores) {
    claims.push_back(Claim{static_cast<uint8_t>(ResourceKind::kCpuCore), 0, 0, core, 0});
  }
  for (const uint16_t bdf : devices) {
    claims.push_back(Claim{static_cast<uint8_t>(ResourceKind::kPciDevice), 0, 0, bdf, 0});
  }
  for (const ExtraRegion& region : extra) {
    claims.push_back(Claim{static_cast<uint8_t>(ResourceKind::kMemory), region.range.base,
                           region.range.size, 0, region.perms.mask});
  }
  std::sort(claims.begin(), claims.end(), [](const Claim& a, const Claim& b) {
    return std::tuple(a.kind, a.range_base, a.range_size, a.unit) <
           std::tuple(b.kind, b.range_base, b.range_size, b.unit);
  });
  for (const Claim& claim : claims) {
    ctx.UpdateValue(claim.kind);
    ctx.UpdateValue(claim.range_base);
    ctx.UpdateValue(claim.range_size);
    ctx.UpdateValue(claim.unit);
    ctx.UpdateValue(claim.perms);
  }
  return ctx.Finalize();
}

}  // namespace tyche
