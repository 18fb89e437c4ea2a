// Copyright 2026 The Tyche Reproduction Authors.

#include "src/hw/phys_memory.h"

#include <cstring>

#include "src/support/fault_hook.h"

namespace tyche {

PhysMemory::PhysMemory(uint64_t size_bytes) : bytes_(size_bytes, 0) {}

Status PhysMemory::Read(uint64_t addr, std::span<uint8_t> out) const {
  if (!ValidRange(addr, out.size())) {
    return Error(ErrorCode::kOutOfRange, "phys read out of range");
  }
  std::memcpy(out.data(), bytes_.data() + addr, out.size());
  return OkStatus();
}

Status PhysMemory::Write(uint64_t addr, std::span<const uint8_t> data) {
  if (!ValidRange(addr, data.size())) {
    return Error(ErrorCode::kOutOfRange, "phys write out of range");
  }
  std::memcpy(bytes_.data() + addr, data.data(), data.size());
  return OkStatus();
}

Result<uint64_t> PhysMemory::Read64(uint64_t addr) const {
  if (!ValidRange(addr, 8)) {
    return Error(ErrorCode::kOutOfRange, "phys read64 out of range");
  }
  uint64_t value;
  std::memcpy(&value, bytes_.data() + addr, 8);
  return value;
}

Status PhysMemory::Write64(uint64_t addr, uint64_t value) {
  if (!ValidRange(addr, 8)) {
    return Error(ErrorCode::kOutOfRange, "phys write64 out of range");
  }
  std::memcpy(bytes_.data() + addr, &value, 8);
  return OkStatus();
}

Status PhysMemory::Zero(uint64_t addr, uint64_t size) {
  if (!ValidRange(addr, size)) {
    return Error(ErrorCode::kOutOfRange, "phys zero out of range");
  }
  std::memset(bytes_.data() + addr, 0, size);
  return OkStatus();
}

Result<std::span<const uint8_t>> PhysMemory::View(uint64_t addr, uint64_t size) const {
  if (!ValidRange(addr, size)) {
    return Error(ErrorCode::kOutOfRange, "phys view out of range");
  }
  return std::span<const uint8_t>(bytes_.data() + addr, size);
}

Result<std::span<uint8_t>> PhysMemory::MutableView(uint64_t addr, uint64_t size) {
  if (!ValidRange(addr, size)) {
    return Error(ErrorCode::kOutOfRange, "phys view out of range");
  }
  return std::span<uint8_t>(bytes_.data() + addr, size);
}

FrameAllocator::FrameAllocator(AddrRange pool)
    : pool_(pool),
      total_frames_(pool.size / kPageSize),
      bump_next_(pool.base),
      free_count_(total_frames_) {}

Result<uint64_t> FrameAllocator::Alloc() {
  TYCHE_FAULT_POINT(faults::kFrameAlloc);
  if (!free_list_.empty()) {
    const uint64_t frame = free_list_.back();
    free_list_.pop_back();
    --free_count_;
    return frame;
  }
  if (bump_next_ >= pool_.end()) {
    return Error(ErrorCode::kResourceExhausted, "frame pool exhausted");
  }
  const uint64_t frame = bump_next_;
  bump_next_ += kPageSize;
  --free_count_;
  return frame;
}

Result<uint64_t> FrameAllocator::AllocContiguous(uint64_t count) {
  // Contiguous allocation only draws from the never-allocated bump region;
  // good enough for boot-time carving of domain memory.
  if (count == 0) {
    return Error(ErrorCode::kInvalidArgument, "zero-frame allocation");
  }
  const uint64_t bytes = count * kPageSize;
  if (bump_next_ + bytes > pool_.end()) {
    return Error(ErrorCode::kResourceExhausted, "contiguous frame pool exhausted");
  }
  const uint64_t base = bump_next_;
  bump_next_ += bytes;
  free_count_ -= count;
  return base;
}

Status FrameAllocator::Free(uint64_t frame_addr) {
  if (!IsPageAligned(frame_addr) || !pool_.Contains(frame_addr)) {
    return Error(ErrorCode::kInvalidArgument, "freeing frame outside pool");
  }
  free_list_.push_back(frame_addr);
  ++free_count_;
  return OkStatus();
}

}  // namespace tyche
