// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/image.h"

#include <algorithm>
#include <cstring>

namespace tyche {

namespace {

constexpr uint64_t kMagic = 0x5459434845494d47ULL;  // "TYCHEIMG"

void PutU64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void PutBytes(std::vector<uint8_t>* out, std::span<const uint8_t> bytes) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  Result<uint64_t> U64() {
    if (pos_ + 8 > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated image");
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  Result<std::vector<uint8_t>> Bytes(uint64_t count) {
    if (pos_ + count > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated image payload");
    }
    std::vector<uint8_t> out(bytes_.begin() + static_cast<long>(pos_),
                             bytes_.begin() + static_cast<long>(pos_ + count));
    pos_ += count;
    return out;
  }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// Streams the zero padding from a fixed block, so a segment is hashed
// without materializing `size` bytes.
Digest PaddedContentDigest(const ImageSegment& segment) {
  static constexpr uint8_t kZeros[512] = {};
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(segment.data));
  for (uint64_t left = segment.size - segment.data.size(); left > 0;) {
    const uint64_t take = std::min<uint64_t>(left, sizeof(kZeros));
    ctx.Update(std::span<const uint8_t>(kZeros, take));
    left -= take;
  }
  return ctx.Finalize();
}

}  // namespace

Status TycheImage::AddSegment(ImageSegment segment) {
  if (!IsPageAligned(segment.offset) || !IsPageAligned(segment.size) || segment.size == 0) {
    return Error(ErrorCode::kInvalidArgument, "segment must be page-aligned and non-empty");
  }
  if (segment.data.size() > segment.size) {
    return Error(ErrorCode::kInvalidArgument, "segment data larger than reserved size");
  }
  const AddrRange range{segment.offset, segment.size};
  for (const ImageSegment& existing : segments_) {
    if (range.Overlaps(AddrRange{existing.offset, existing.size})) {
      return Error(ErrorCode::kAlreadyExists, "segment overlaps existing segment");
    }
  }
  segment.content_digest_ = segment.measured ? PaddedContentDigest(segment) : Digest{};
  segments_.push_back(std::move(segment));
  // Keep segments sorted by offset: the loader and the offline measurement
  // rely on a canonical order.
  std::sort(segments_.begin(), segments_.end(),
            [](const ImageSegment& a, const ImageSegment& b) { return a.offset < b.offset; });
  return OkStatus();
}

uint64_t TycheImage::extent() const {
  uint64_t end = 0;
  for (const ImageSegment& segment : segments_) {
    end = std::max(end, segment.offset + segment.size);
  }
  return end;
}

std::vector<uint8_t> TycheImage::Serialize() const {
  std::vector<uint8_t> out;
  PutU64(&out, kMagic);
  PutU64(&out, entry_offset_);
  PutU64(&out, name_.size());
  PutBytes(&out, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(name_.data()),
                                          name_.size()));
  PutU64(&out, segments_.size());
  for (const ImageSegment& segment : segments_) {
    PutU64(&out, segment.name.size());
    PutBytes(&out,
             std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(segment.name.data()),
                                      segment.name.size()));
    PutU64(&out, segment.offset);
    PutU64(&out, segment.size);
    PutU64(&out, segment.perms.mask);
    PutU64(&out, segment.ring);
    PutU64(&out, (segment.shared ? 1u : 0u) | (segment.measured ? 2u : 0u));
    PutU64(&out, segment.data.size());
    PutBytes(&out, std::span<const uint8_t>(segment.data));
  }
  return out;
}

Result<TycheImage> TycheImage::Deserialize(std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t magic, reader.U64());
  if (magic != kMagic) {
    return Error(ErrorCode::kInvalidArgument, "not a tyche image (bad magic)");
  }
  TycheImage image;
  TYCHE_ASSIGN_OR_RETURN(image.entry_offset_, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t name_len, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> name_bytes, reader.Bytes(name_len));
  image.name_.assign(name_bytes.begin(), name_bytes.end());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  for (uint64_t i = 0; i < count; ++i) {
    ImageSegment segment;
    TYCHE_ASSIGN_OR_RETURN(const uint64_t seg_name_len, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> seg_name, reader.Bytes(seg_name_len));
    segment.name.assign(seg_name.begin(), seg_name.end());
    TYCHE_ASSIGN_OR_RETURN(segment.offset, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(segment.size, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(const uint64_t perms, reader.U64());
    segment.perms = Perms(static_cast<uint8_t>(perms));
    TYCHE_ASSIGN_OR_RETURN(const uint64_t ring, reader.U64());
    segment.ring = static_cast<uint8_t>(ring);
    TYCHE_ASSIGN_OR_RETURN(const uint64_t flags, reader.U64());
    segment.shared = (flags & 1) != 0;
    segment.measured = (flags & 2) != 0;
    TYCHE_ASSIGN_OR_RETURN(const uint64_t data_len, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(segment.data, reader.Bytes(data_len));
    TYCHE_RETURN_IF_ERROR(image.AddSegment(std::move(segment)));
  }
  return image;
}

TycheImage TycheImage::MakeDemo(const std::string& name, uint64_t code_size,
                                uint64_t shared_size) {
  TycheImage image(name);
  ImageSegment code;
  code.name = "text";
  code.offset = 0;
  code.size = AlignUp(code_size, kPageSize);
  code.perms = Perms(Perms::kRWX);
  code.ring = 0;
  code.shared = false;
  code.measured = true;
  code.data.resize(code_size);
  for (uint64_t i = 0; i < code_size; ++i) {
    code.data[i] = static_cast<uint8_t>((i * 131 + name.size()) & 0xff);
  }
  (void)image.AddSegment(std::move(code));
  if (shared_size > 0) {
    ImageSegment shared;
    shared.name = "shared";
    shared.offset = AlignUp(code_size, kPageSize);
    shared.size = AlignUp(shared_size, kPageSize);
    shared.perms = Perms(Perms::kRW);
    shared.ring = 3;
    shared.shared = true;
    shared.measured = false;
    (void)image.AddSegment(std::move(shared));
  }
  image.set_entry_offset(0);
  return image;
}

}  // namespace tyche
