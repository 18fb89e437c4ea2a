// Copyright 2026 The Tyche Reproduction Authors.

#include "src/hw/nested_page_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

namespace tyche {
namespace {

class NptTest : public ::testing::Test {
 protected:
  NptTest()
      : memory_(16ull << 20),
        frames_(AddrRange{0, 4ull << 20}),
        table_(*NestedPageTable::Create(&memory_, &frames_, &cycles_)) {}

  PhysMemory memory_;
  FrameAllocator frames_;
  CycleAccount cycles_;
  NestedPageTable table_;
};

TEST_F(NptTest, MapAndTranslate) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRW)).ok());
  const auto t = table_.Translate(0x5000, AccessType::kRead);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->host_addr, 0x9000u);
  EXPECT_EQ(t->perms.mask, Perms::kRW);
  EXPECT_EQ(t->levels_walked, 4);
  // Offset preserved.
  const auto t2 = table_.Translate(0x5123, AccessType::kWrite);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->host_addr, 0x9123u);
}

TEST_F(NptTest, PermissionEnforced) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRead)).ok());
  EXPECT_TRUE(table_.Translate(0x5000, AccessType::kRead).ok());
  EXPECT_EQ(table_.Translate(0x5000, AccessType::kWrite).code(),
            ErrorCode::kAccessViolation);
  EXPECT_EQ(table_.Translate(0x5000, AccessType::kExecute).code(),
            ErrorCode::kAccessViolation);
}

TEST_F(NptTest, UnmappedFaults) {
  EXPECT_FALSE(table_.Translate(0x5000, AccessType::kRead).ok());
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRead)).ok());
  EXPECT_FALSE(table_.Translate(0x6000, AccessType::kRead).ok());
}

TEST_F(NptTest, DoubleMapRejected) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRead)).ok());
  EXPECT_EQ(table_.MapPage(0x5000, 0xa000, Perms(Perms::kRead)).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(NptTest, UnalignedRejected) {
  EXPECT_FALSE(table_.MapPage(0x5001, 0x9000, Perms(Perms::kRead)).ok());
  EXPECT_FALSE(table_.MapPage(0x5000, 0x9001, Perms(Perms::kRead)).ok());
  EXPECT_FALSE(table_.MapPage(0x5000, 0x9000, Perms{}).ok());
}

TEST_F(NptTest, UnmapRemovesAccess) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRW)).ok());
  ASSERT_TRUE(table_.UnmapPage(0x5000).ok());
  EXPECT_FALSE(table_.Translate(0x5000, AccessType::kRead).ok());
  EXPECT_EQ(table_.UnmapPage(0x5000).code(), ErrorCode::kNotFound);
  EXPECT_EQ(table_.mapped_pages(), 0u);
}

TEST_F(NptTest, ProtectChangesPerms) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRWX)).ok());
  ASSERT_TRUE(table_.ProtectPage(0x5000, Perms(Perms::kRead)).ok());
  EXPECT_TRUE(table_.Translate(0x5000, AccessType::kRead).ok());
  EXPECT_FALSE(table_.Translate(0x5000, AccessType::kWrite).ok());
  // Protecting an unmapped page fails.
  EXPECT_FALSE(table_.ProtectPage(0x8000, Perms(Perms::kRead)).ok());
}

TEST_F(NptTest, MapRangeCoversAllPages) {
  ASSERT_TRUE(table_.MapRange(0x10000, 0x10000, 16 * kPageSize, Perms(Perms::kRW)).ok());
  EXPECT_EQ(table_.mapped_pages(), 16u);
  for (uint64_t off = 0; off < 16 * kPageSize; off += kPageSize) {
    EXPECT_TRUE(table_.Translate(0x10000 + off, AccessType::kRead).ok());
  }
}

TEST_F(NptTest, SparseAddressesAllocateSeparateTables) {
  const uint64_t frames_before = frames_.free_frames();
  // Two GPAs far apart (different L3 entries).
  ASSERT_TRUE(table_.MapPage(0, 0, Perms(Perms::kRead)).ok());
  ASSERT_TRUE(table_.MapPage(1ull << 39, 0x1000, Perms(Perms::kRead)).ok());
  // 3 tables for the first path + 3 for the second (shared root).
  EXPECT_EQ(frames_before - frames_.free_frames(), 6u);
  EXPECT_EQ(table_.table_frames(), 7u);
}

TEST_F(NptTest, ForEachMappingEnumerates) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRead)).ok());
  ASSERT_TRUE(table_.MapPage(0x7000, 0xb000, Perms(Perms::kRW)).ok());
  std::map<uint64_t, std::pair<uint64_t, uint8_t>> seen;
  table_.ForEachMapping([&](uint64_t gpa, uint64_t hpa, Perms perms) {
    seen[gpa] = {hpa, perms.mask};
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0x5000].first, 0x9000u);
  EXPECT_EQ(seen[0x7000].second, Perms::kRW);
}

TEST_F(NptTest, DestroyReleasesFrames) {
  const uint64_t before = frames_.free_frames();
  ASSERT_TRUE(table_.MapRange(0, 0, 64 * kPageSize, Perms(Perms::kRW)).ok());
  ASSERT_LT(frames_.free_frames(), before);
  ASSERT_TRUE(table_.Destroy().ok());
  // All table frames returned (the root was allocated pre-`before`).
  EXPECT_EQ(frames_.free_frames(), before + 1);
  EXPECT_FALSE(table_.Destroy().ok());
}

// Collects the frames of every table reachable from `table` (the root
// included), reading entries one Read64 at a time so the check does not
// share the View-based walk under test.
void CollectTableFrames(const PhysMemory& memory, uint64_t table, int level,
                        std::vector<uint64_t>* out) {
  out->push_back(table);
  if (level == 0) {
    return;
  }
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t entry = *memory.Read64(table + 8 * i);
    if ((entry & 1) != 0) {
      CollectTableFrames(memory, entry & 0x0000fffffffff000ULL, level - 1, out);
    }
  }
}

TEST_F(NptTest, SpreadMappingsEnumerateAndDestroyCleanly) {
  const uint64_t before_create = frames_.free_frames();
  auto table = NestedPageTable::Create(&memory_, &frames_, &cycles_);
  ASSERT_TRUE(table.ok());
  // Mappings over several PT pages (2 MiB apart), several PD pages (1 GiB
  // apart) and a second PDPT page (512 GiB apart), first and last slots of a
  // PT included.
  using Mapping = std::tuple<uint64_t, uint64_t, uint8_t>;
  const std::set<Mapping> mapped = {
      {0x0, 0x100000, Perms::kRead},
      {0x1000, 0x101000, Perms::kRW},
      {0x1ff000, 0x102000, Perms::kRWX},
      {(2ull << 20) + 0x5000, 0x103000, Perms::kRX},
      {(5ull << 20), 0x104000, Perms::kRW},
      {(1ull << 30) + 0x3000, 0x105000, Perms::kRead},
      {(3ull << 30) + (7ull << 20), 0x106000, Perms::kRW},
      {(512ull << 30) + 0x2000, 0x107000, Perms::kRWX},
      {(513ull << 30) + (9ull << 20) + 0x1000, 0x108000, Perms::kExec},
  };
  for (const auto& [gpa, hpa, perms] : mapped) {
    ASSERT_TRUE(table->MapPage(gpa, hpa, Perms(perms)).ok());
  }

  std::vector<Mapping> seen;
  table->ForEachMapping(
      [&](uint64_t gpa, uint64_t hpa, Perms perms) { seen.emplace_back(gpa, hpa, perms.mask); });
  EXPECT_EQ(seen.size(), mapped.size());
  EXPECT_EQ(std::set<Mapping>(seen.begin(), seen.end()), mapped);

  std::vector<uint64_t> table_frames;
  CollectTableFrames(memory_, table->root(), 3, &table_frames);
  // The root, 2 PDPTs (512 GiB slots 0 and 1), 5 PDs (GiB 0, 1, 3, 512 and
  // 513) and 7 PTs (2 MiB slots 0, 1 and 2 of GiB 0, plus one each in GiB 1,
  // 3, 512 and 513).
  EXPECT_EQ(table_frames.size(), 15u);
  EXPECT_EQ(table->table_frames(), 15u);
  EXPECT_EQ(before_create - frames_.free_frames(), table->table_frames());

  ASSERT_TRUE(table->Destroy().ok());
  EXPECT_EQ(frames_.free_frames(), before_create);
  for (const uint64_t frame : table_frames) {
    const auto page = memory_.View(frame, kPageSize);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE(std::all_of(page->begin(), page->end(), [](uint8_t b) { return b == 0; }))
        << "table frame 0x" << std::hex << frame << " not zeroed";
  }
}

TEST_F(NptTest, WalkChargesCycles) {
  ASSERT_TRUE(table_.MapPage(0x5000, 0x9000, Perms(Perms::kRead)).ok());
  cycles_.Reset();
  ASSERT_TRUE(table_.Translate(0x5000, AccessType::kRead).ok());
  EXPECT_EQ(cycles_.cycles(), 4 * CostModel::Default().page_walk_per_level);
}

}  // namespace
}  // namespace tyche
