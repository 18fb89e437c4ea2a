// Copyright 2026 The Tyche Reproduction Authors.
// Known-answer tests for the offline golden measurement. The hex values were
// recorded from the implementation that copied each measured segment into a
// zero-padded buffer and hashed it on every call; ComputeExpectedMeasurement
// must keep producing them byte for byte, or every customer's stored golden
// value stops matching what the monitor reports.

#include <gtest/gtest.h>

#include "src/tyche/loader.h"

namespace tyche {
namespace {

constexpr uint64_t kBase = 0x400000;
constexpr uint64_t kLoadSize = 64 * kPageSize;
constexpr char kDemo[] = "97e8552d47a0fdeb562baed9ce9351e24c71db5d4121ebbe230d55177a14c8bb";
constexpr char kMulti[] = "d7139b2d75ecf3f0c86fc9bf1fe9da206259e688645f7656b88c0e05ce4ec834";

std::string Golden(const TycheImage& image, const std::vector<CoreId>& cores = {1}) {
  const auto digest = ComputeExpectedMeasurement(image, kBase, kLoadSize, cores);
  EXPECT_TRUE(digest.ok()) << digest.status().ToString();
  return digest.ok() ? digest->ToHex() : "";
}

ImageSegment Segment(const std::string& name, uint64_t offset, uint64_t size, uint8_t perms,
                     bool measured, size_t data_len, uint8_t seed) {
  ImageSegment segment;
  segment.name = name;
  segment.offset = offset;
  segment.size = size;
  segment.perms = Perms(perms);
  segment.measured = measured;
  segment.data.resize(data_len);
  for (size_t i = 0; i < data_len; ++i) {
    segment.data[i] = static_cast<uint8_t>((i * 37 + seed) & 0xff);
  }
  return segment;
}

// Segments added out of offset order: a short measured data segment (100
// bytes in two pages), an unmeasured shared buffer with content, a full
// measured text segment, and a measured segment with no content at all.
TycheImage MultiSegmentImage() {
  TycheImage image("kat-multi");
  image.set_entry_offset(kPageSize);
  EXPECT_TRUE(
      image.AddSegment(Segment("data", 4 * kPageSize, 2 * kPageSize, Perms::kRW, true, 100, 7))
          .ok());
  ImageSegment shared = Segment("shared", 6 * kPageSize, kPageSize, Perms::kRW, false, 300, 9);
  shared.shared = true;
  shared.ring = 3;
  EXPECT_TRUE(image.AddSegment(std::move(shared)).ok());
  EXPECT_TRUE(image
                  .AddSegment(Segment("text", 0, 2 * kPageSize, Perms::kRX, true,
                                      2 * kPageSize, 3))
                  .ok());
  EXPECT_TRUE(image.AddSegment(Segment("bss", 8 * kPageSize, kPageSize, Perms::kRW, true, 0, 0))
                  .ok());
  return image;
}

TEST(MeasurementKatTest, DemoImage) {
  EXPECT_EQ(Golden(TycheImage::MakeDemo("kat-demo", 3000, 5000)), kDemo);
  EXPECT_EQ(Golden(TycheImage::MakeDemo("kat-demo", 8 * kPageSize, 0)),
            "63427f8513d4530e7a0f383ba308fbedb8ab4a8cda502f879a718c47b5c85ddd");
}

TEST(MeasurementKatTest, MultiSegmentImage) {
  EXPECT_EQ(Golden(MultiSegmentImage()), kMulti);
  EXPECT_EQ(Golden(MultiSegmentImage(), {1, 2}),
            "dbba87264d86ce8810da35a747165e5a28195cf8261d05260dbebf80945f182d");
}

TEST(MeasurementKatTest, UnmeasuredContentIsNotFolded) {
  TycheImage a = MultiSegmentImage();
  TycheImage b("kat-multi");
  b.set_entry_offset(kPageSize);
  for (ImageSegment segment : a.segments()) {
    if (!segment.measured) {
      segment.data.assign(segment.data.size(), 0xee);
    }
    ASSERT_TRUE(b.AddSegment(std::move(segment)).ok());
  }
  EXPECT_EQ(Golden(a), Golden(b));
}

TEST(MeasurementKatTest, SerializeRoundTripKeepsMeasurement) {
  const TycheImage image = MultiSegmentImage();
  const auto parsed = TycheImage::Deserialize(image.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Golden(*parsed), kMulti);
  const TycheImage demo = TycheImage::MakeDemo("kat-demo", 3000, 5000);
  const auto parsed_demo = TycheImage::Deserialize(demo.Serialize());
  ASSERT_TRUE(parsed_demo.ok()) << parsed_demo.status().ToString();
  EXPECT_EQ(Golden(*parsed_demo), kDemo);
}

}  // namespace
}  // namespace tyche
