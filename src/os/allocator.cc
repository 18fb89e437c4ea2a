// Copyright 2026 The Tyche Reproduction Authors.

#include "src/os/allocator.h"

#include <algorithm>

#include "src/support/fault_hook.h"

namespace tyche {

RangeAllocator::RangeAllocator(AddrRange pool) : pool_(pool) {
  if (!pool.empty()) {
    free_list_.push_back(pool);
  }
}

Result<AddrRange> RangeAllocator::Alloc(uint64_t size, uint64_t alignment) {
  if (size == 0 || !IsPowerOfTwo(alignment)) {
    return Error(ErrorCode::kInvalidArgument, "bad allocation request");
  }
  TYCHE_FAULT_POINT(faults::kRangeAlloc);
  size = AlignUp(size, kPageSize);
  for (size_t i = 0; i < free_list_.size(); ++i) {
    const AddrRange& candidate = free_list_[i];
    const uint64_t aligned_base = AlignUp(candidate.base, alignment);
    if (aligned_base + size > candidate.end() || aligned_base < candidate.base) {
      continue;
    }
    const AddrRange allocated{aligned_base, size};
    // Split the free range into up to two pieces.
    const AddrRange before{candidate.base, aligned_base - candidate.base};
    const AddrRange after{allocated.end(), candidate.end() - allocated.end()};
    free_list_.erase(free_list_.begin() + static_cast<long>(i));
    if (!after.empty()) {
      free_list_.insert(free_list_.begin() + static_cast<long>(i), after);
    }
    if (!before.empty()) {
      free_list_.insert(free_list_.begin() + static_cast<long>(i), before);
    }
    return allocated;
  }
  return Error(ErrorCode::kResourceExhausted, "allocator out of memory");
}

Status RangeAllocator::Free(AddrRange range) {
  if (range.empty() || !pool_.Contains(range)) {
    return Error(ErrorCode::kInvalidArgument, "freeing range outside pool");
  }
  // Find the insertion point; reject overlap with existing free ranges
  // (double free).
  auto it = std::lower_bound(
      free_list_.begin(), free_list_.end(), range,
      [](const AddrRange& a, const AddrRange& b) { return a.base < b.base; });
  if (it != free_list_.end() && range.Overlaps(*it)) {
    return Error(ErrorCode::kFailedPrecondition, "double free");
  }
  if (it != free_list_.begin() && range.Overlaps(*(it - 1))) {
    return Error(ErrorCode::kFailedPrecondition, "double free");
  }
  it = free_list_.insert(it, range);
  // Coalesce with the next range...
  if (it + 1 != free_list_.end() && it->end() == (it + 1)->base) {
    it->size += (it + 1)->size;
    free_list_.erase(it + 1);
  }
  // ... and with the previous one.
  if (it != free_list_.begin() && (it - 1)->end() == it->base) {
    (it - 1)->size += it->size;
    free_list_.erase(it);
  }
  return OkStatus();
}

uint64_t RangeAllocator::free_bytes() const {
  uint64_t total = 0;
  for (const AddrRange& range : free_list_) {
    total += range.size;
  }
  return total;
}

uint64_t RangeAllocator::largest_free() const {
  uint64_t largest = 0;
  for (const AddrRange& range : free_list_) {
    largest = std::max(largest, range.size);
  }
  return largest;
}

}  // namespace tyche
