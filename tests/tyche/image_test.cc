// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/image.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tyche {
namespace {

ImageSegment Seg(const std::string& name, uint64_t offset, uint64_t size, uint8_t perms,
                 bool shared = false, bool measured = false) {
  ImageSegment segment;
  segment.name = name;
  segment.offset = offset;
  segment.size = size;
  segment.perms = Perms(perms);
  segment.shared = shared;
  segment.measured = measured;
  return segment;
}

TEST(ImageTest, AddSegmentValidation) {
  TycheImage image("t");
  EXPECT_TRUE(image.AddSegment(Seg("a", 0, kPageSize, Perms::kRX)).ok());
  // Unaligned offset / size, zero size.
  EXPECT_FALSE(image.AddSegment(Seg("b", 100, kPageSize, Perms::kRX)).ok());
  EXPECT_FALSE(image.AddSegment(Seg("c", kPageSize, 100, Perms::kRX)).ok());
  EXPECT_FALSE(image.AddSegment(Seg("d", kPageSize, 0, Perms::kRX)).ok());
  // Overlap.
  EXPECT_EQ(image.AddSegment(Seg("e", 0, 2 * kPageSize, Perms::kRW)).code(),
            ErrorCode::kAlreadyExists);
}

TEST(ImageTest, DataMustFitReservedSize) {
  TycheImage image("t");
  ImageSegment segment = Seg("a", 0, kPageSize, Perms::kRW);
  segment.data.resize(kPageSize + 1);
  EXPECT_FALSE(image.AddSegment(segment).ok());
}

TEST(ImageTest, SegmentsKeptSorted) {
  TycheImage image("t");
  ASSERT_TRUE(image.AddSegment(Seg("hi", 4 * kPageSize, kPageSize, Perms::kRW)).ok());
  ASSERT_TRUE(image.AddSegment(Seg("lo", 0, kPageSize, Perms::kRX)).ok());
  ASSERT_EQ(image.segments().size(), 2u);
  EXPECT_EQ(image.segments()[0].name, "lo");
  EXPECT_EQ(image.segments()[1].name, "hi");
  EXPECT_EQ(image.extent(), 5 * kPageSize);
}

TEST(ImageTest, SerializeRoundTrip) {
  TycheImage image("roundtrip");
  image.set_entry_offset(kPageSize);
  ImageSegment code = Seg("text", 0, 2 * kPageSize, Perms::kRX, false, true);
  code.data = {1, 2, 3, 4, 5};
  code.ring = 0;
  ASSERT_TRUE(image.AddSegment(code).ok());
  ImageSegment shared = Seg("buf", 2 * kPageSize, kPageSize, Perms::kRW, true, false);
  shared.ring = 3;
  ASSERT_TRUE(image.AddSegment(shared).ok());

  const std::vector<uint8_t> bytes = image.Serialize();
  const auto parsed = TycheImage::Deserialize(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name(), "roundtrip");
  EXPECT_EQ(parsed->entry_offset(), kPageSize);
  ASSERT_EQ(parsed->segments().size(), 2u);
  EXPECT_EQ(parsed->segments()[0].name, "text");
  EXPECT_EQ(parsed->segments()[0].data, code.data);
  EXPECT_TRUE(parsed->segments()[0].measured);
  EXPECT_FALSE(parsed->segments()[0].shared);
  EXPECT_TRUE(parsed->segments()[1].shared);
  EXPECT_EQ(parsed->segments()[1].perms.mask, Perms::kRW);
}

TEST(ImageTest, DeserializeRejectsGarbage) {
  const std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(TycheImage::Deserialize(garbage).ok());
  std::vector<uint8_t> bad_magic(64, 0);
  EXPECT_FALSE(TycheImage::Deserialize(bad_magic).ok());
  // Truncated but valid magic.
  TycheImage image = TycheImage::MakeDemo("x", kPageSize, kPageSize);
  std::vector<uint8_t> bytes = image.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(TycheImage::Deserialize(bytes).ok());
}

TEST(ImageTest, ContentDigestIsPaddedHashOfMeasuredSegments) {
  TycheImage image("t");
  // Data lengths off the 64-byte block and the padding stream's chunk size.
  for (const uint64_t data_len : {uint64_t{0}, uint64_t{1}, uint64_t{100}, uint64_t{4095}}) {
    const uint64_t offset = (data_len + 1) * 4 * kPageSize;
    ImageSegment segment = Seg("m", offset, 3 * kPageSize, Perms::kRW, false, true);
    segment.data.assign(data_len, 0xa5);
    ASSERT_TRUE(image.AddSegment(segment).ok());
    std::vector<uint8_t> padded(3 * kPageSize, 0);
    std::copy(segment.data.begin(), segment.data.end(), padded.begin());
    const auto it = std::find_if(image.segments().begin(), image.segments().end(),
                                 [&](const ImageSegment& s) { return s.offset == offset; });
    ASSERT_NE(it, image.segments().end());
    EXPECT_EQ(it->content_digest(), Sha256::Hash(std::span<const uint8_t>(padded)))
        << "data_len " << data_len;
  }
  ImageSegment unmeasured = Seg("u", 0, kPageSize, Perms::kRW);
  unmeasured.data.assign(10, 1);
  ASSERT_TRUE(image.AddSegment(unmeasured).ok());
  EXPECT_TRUE(image.segments().front().content_digest().IsZero());
}

TEST(ImageTest, MakeDemoShape) {
  const TycheImage image = TycheImage::MakeDemo("demo", 3000, 5000);
  ASSERT_EQ(image.segments().size(), 2u);
  EXPECT_EQ(image.segments()[0].size, kPageSize);  // 3000 rounded up
  EXPECT_TRUE(image.segments()[0].measured);
  EXPECT_FALSE(image.segments()[0].shared);
  EXPECT_TRUE(image.segments()[1].shared);
  EXPECT_EQ(image.extent(), kPageSize + 2 * kPageSize);
  // Demo content is deterministic.
  const TycheImage again = TycheImage::MakeDemo("demo", 3000, 5000);
  EXPECT_EQ(image.segments()[0].data, again.segments()[0].data);
}

}  // namespace
}  // namespace tyche
