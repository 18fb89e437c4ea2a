// Copyright 2026 The Tyche Reproduction Authors.

#include "src/hw/nested_page_table.h"

#include <cstring>

namespace tyche {

Result<NestedPageTable> NestedPageTable::Create(PhysMemory* memory, FrameAllocator* frames,
                                                CycleAccount* cycles) {
  TYCHE_ASSIGN_OR_RETURN(const uint64_t root, frames->Alloc());
  TYCHE_RETURN_IF_ERROR(memory->Zero(root, kPageSize));
  return NestedPageTable(memory, frames, cycles, root);
}

Result<uint64_t> NestedPageTable::WalkToLeafEntry(uint64_t gpa, bool create) {
  uint64_t table = root_;
  for (int level = kLevels - 1; level > 0; --level) {
    const uint64_t slot = table + 8 * IndexAt(gpa, level);
    TYCHE_ASSIGN_OR_RETURN(uint64_t entry, memory_->Read64(slot));
    if ((entry & kValidBit) == 0) {
      if (!create) {
        return Error(ErrorCode::kNotFound, "unmapped intermediate level");
      }
      TYCHE_ASSIGN_OR_RETURN(const uint64_t next, frames_->Alloc());
      TYCHE_RETURN_IF_ERROR(memory_->Zero(next, kPageSize));
      ++table_frames_;
      entry = (next & kAddrMask) | kValidBit;
      TYCHE_RETURN_IF_ERROR(memory_->Write64(slot, entry));
    }
    table = entry & kAddrMask;
  }
  return table + 8 * IndexAt(gpa, 0);
}

Result<uint64_t> NestedPageTable::WalkToLeafEntryConst(uint64_t gpa, int* levels) const {
  uint64_t table = root_;
  *levels = 0;
  for (int level = kLevels - 1; level > 0; --level) {
    ++*levels;
    const uint64_t slot = table + 8 * IndexAt(gpa, level);
    TYCHE_ASSIGN_OR_RETURN(const uint64_t entry, memory_->Read64(slot));
    if ((entry & kValidBit) == 0) {
      return Error(ErrorCode::kNotFound, "unmapped intermediate level");
    }
    table = entry & kAddrMask;
  }
  ++*levels;
  return table + 8 * IndexAt(gpa, 0);
}

Status NestedPageTable::MapPage(uint64_t gpa, uint64_t hpa, Perms perms) {
  if (!IsPageAligned(gpa) || !IsPageAligned(hpa)) {
    return Error(ErrorCode::kInvalidArgument, "unaligned mapping");
  }
  if (perms.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty permissions");
  }
  TYCHE_ASSIGN_OR_RETURN(const uint64_t slot, WalkToLeafEntry(gpa, /*create=*/true));
  TYCHE_ASSIGN_OR_RETURN(const uint64_t existing, memory_->Read64(slot));
  if ((existing & kValidBit) != 0) {
    return Error(ErrorCode::kAlreadyExists, "page already mapped");
  }
  const uint64_t entry =
      (hpa & kAddrMask) | (static_cast<uint64_t>(perms.mask) << kPermShift) | kValidBit;
  TYCHE_RETURN_IF_ERROR(memory_->Write64(slot, entry));
  cycles_->Charge(CostModel::Default().ept_entry_update);
  ++mapped_pages_;
  return OkStatus();
}

Status NestedPageTable::MapRange(uint64_t gpa, uint64_t hpa, uint64_t size, Perms perms) {
  if (!IsPageAligned(size) || size == 0) {
    return Error(ErrorCode::kInvalidArgument, "unaligned or empty range");
  }
  for (uint64_t offset = 0; offset < size; offset += kPageSize) {
    TYCHE_RETURN_IF_ERROR(MapPage(gpa + offset, hpa + offset, perms));
  }
  return OkStatus();
}

Status NestedPageTable::UnmapPage(uint64_t gpa) {
  TYCHE_ASSIGN_OR_RETURN(const uint64_t slot, WalkToLeafEntry(gpa, /*create=*/false));
  TYCHE_ASSIGN_OR_RETURN(const uint64_t entry, memory_->Read64(slot));
  if ((entry & kValidBit) == 0) {
    return Error(ErrorCode::kNotFound, "page not mapped");
  }
  TYCHE_RETURN_IF_ERROR(memory_->Write64(slot, 0));
  cycles_->Charge(CostModel::Default().ept_entry_update);
  --mapped_pages_;
  return OkStatus();
}

Status NestedPageTable::UnmapRange(uint64_t gpa, uint64_t size) {
  for (uint64_t offset = 0; offset < size; offset += kPageSize) {
    TYCHE_RETURN_IF_ERROR(UnmapPage(gpa + offset));
  }
  return OkStatus();
}

Status NestedPageTable::ProtectPage(uint64_t gpa, Perms perms) {
  if (perms.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty permissions; use UnmapPage");
  }
  TYCHE_ASSIGN_OR_RETURN(const uint64_t slot, WalkToLeafEntry(gpa, /*create=*/false));
  TYCHE_ASSIGN_OR_RETURN(const uint64_t entry, memory_->Read64(slot));
  if ((entry & kValidBit) == 0) {
    return Error(ErrorCode::kNotFound, "page not mapped");
  }
  const uint64_t updated = (entry & ~(0x7ULL << kPermShift)) |
                           (static_cast<uint64_t>(perms.mask) << kPermShift);
  TYCHE_RETURN_IF_ERROR(memory_->Write64(slot, updated));
  cycles_->Charge(CostModel::Default().ept_entry_update);
  return OkStatus();
}

Status NestedPageTable::ProtectRange(uint64_t gpa, uint64_t size, Perms perms) {
  for (uint64_t offset = 0; offset < size; offset += kPageSize) {
    TYCHE_RETURN_IF_ERROR(ProtectPage(gpa + offset, perms));
  }
  return OkStatus();
}

Result<Translation> NestedPageTable::Translate(uint64_t gpa, AccessType access) const {
  TYCHE_ASSIGN_OR_RETURN(Translation t, Lookup(gpa));
  if (!t.perms.Allows(access)) {
    return Error(ErrorCode::kAccessViolation, "EPT permission violation");
  }
  return t;
}

Result<Translation> NestedPageTable::Lookup(uint64_t gpa) const {
  int levels = 0;
  auto slot = WalkToLeafEntryConst(gpa, &levels);
  cycles_->Charge(CostModel::Default().page_walk_per_level * static_cast<uint64_t>(levels));
  if (!slot.ok()) {
    return slot.status();
  }
  TYCHE_ASSIGN_OR_RETURN(const uint64_t entry, memory_->Read64(*slot));
  if ((entry & kValidBit) == 0) {
    return Error(ErrorCode::kNotFound, "page not mapped");
  }
  Translation t;
  t.host_addr = (entry & kAddrMask) | (gpa & (kPageSize - 1));
  t.perms = Perms(static_cast<uint8_t>((entry >> kPermShift) & 0x7));
  t.levels_walked = levels;
  return t;
}

namespace {

// Entry `i` of a table page read through one View: the bounds check is paid
// once per table instead of once per entry.
uint64_t EntryAt(std::span<const uint8_t> table, uint64_t i) {
  uint64_t entry;
  std::memcpy(&entry, table.data() + 8 * i, 8);
  return entry;
}

void ForEachLeaf(const PhysMemory* memory, uint64_t table_addr, int level, uint64_t gpa_prefix,
                 const std::function<void(uint64_t, uint64_t, Perms)>& fn) {
  const auto table = memory->View(table_addr, kPageSize);
  if (!table.ok()) {
    return;
  }
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t entry = EntryAt(*table, i);
    if ((entry & 1) == 0) {
      continue;
    }
    const uint64_t gpa = gpa_prefix | (i << (kPageShift + 9 * level));
    const uint64_t addr = entry & 0x0000fffffffff000ULL;
    if (level == 0) {
      fn(gpa, addr, Perms(static_cast<uint8_t>((entry >> 1) & 0x7)));
    } else {
      ForEachLeaf(memory, addr, level - 1, gpa, fn);
    }
  }
}

}  // namespace

void NestedPageTable::ForEachMapping(
    const std::function<void(uint64_t, uint64_t, Perms)>& fn) const {
  ForEachLeaf(memory_, root_, kLevels - 1, 0, fn);
}

void NestedPageTable::FreeSubtree(uint64_t table_addr, int level) {
  if (level > 0) {
    if (const auto table = memory_->View(table_addr, kPageSize); table.ok()) {
      for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
        const uint64_t entry = EntryAt(*table, i);
        if ((entry & kValidBit) != 0) {
          FreeSubtree(entry & kAddrMask, level - 1);
        }
      }
    }
  }
  (void)memory_->Zero(table_addr, kPageSize);
  (void)frames_->Free(table_addr);
}

Status NestedPageTable::Destroy() {
  if (destroyed_) {
    return Error(ErrorCode::kFailedPrecondition, "page table already destroyed");
  }
  FreeSubtree(root_, kLevels - 1);
  destroyed_ = true;
  mapped_pages_ = 0;
  table_frames_ = 0;
  return OkStatus();
}

}  // namespace tyche
