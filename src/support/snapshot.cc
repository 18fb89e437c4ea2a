// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/snapshot.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/encode.h"

namespace tyche {

namespace {

constexpr char kMagic[4] = {'T', 'Y', 'S', 'N'};
constexpr uint32_t kVersion = 1;

}  // namespace

Digest SnapshotDigest(std::span<const uint8_t> bytes) {
  return Sha256::Hash(bytes);
}

bool SectionReader::ReadDigest(Digest* digest) {
  if (pos_ + digest->bytes.size() > bytes_.size()) {
    return false;
  }
  std::memcpy(digest->bytes.data(), bytes_.data() + pos_, digest->bytes.size());
  pos_ += digest->bytes.size();
  return true;
}

bool SectionReader::ReadString(std::string* value) {
  uint32_t length = 0;
  if (!Read(&length) || pos_ + length > bytes_.size()) {
    return false;
  }
  value->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), length);
  pos_ += length;
  return true;
}

void SnapshotWriter::AddSection(uint32_t tag, std::vector<uint8_t> body) {
  sections_.push_back(Section{tag, std::move(body)});
}

std::vector<uint8_t> SnapshotWriter::Finish() const {
  size_t total = sizeof(kMagic) + 2 * sizeof(uint32_t) + 32;
  for (const Section& section : sections_) {
    total += 2 * sizeof(uint32_t) + section.body.size();
  }
  std::vector<uint8_t> out(total);
  uint8_t* at = std::copy(std::begin(kMagic), std::end(kMagic), out.data());
  at = Put(Put(at, kVersion), static_cast<uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    at = Put(Put(at, section.tag), static_cast<uint32_t>(section.body.size()));
    at = std::copy(section.body.begin(), section.body.end(), at);
  }
  PutDigest(at, Sha256::Hash(std::span<const uint8_t>(out.data(), at)));
  return out;
}

Result<SnapshotView> SnapshotView::Parse(std::span<const uint8_t> bytes) {
  constexpr size_t kHeader = sizeof(kMagic) + 2 * sizeof(uint32_t);
  constexpr size_t kCommitment = 32;
  if (bytes.size() < kHeader + kCommitment ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error(ErrorCode::kInvalidArgument, "snapshot: bad magic or truncated");
  }
  auto read_u32 = [&bytes](size_t pos) {
    uint32_t value = 0;
    for (size_t i = 0; i < sizeof(uint32_t); ++i) {
      value |= static_cast<uint32_t>(bytes[pos + i]) << (8 * i);
    }
    return value;
  };
  if (read_u32(sizeof(kMagic)) != kVersion) {
    return Error(ErrorCode::kInvalidArgument, "snapshot: unsupported version");
  }
  // Self-check first: the trailing commitment must match the preceding bytes.
  const size_t body_end = bytes.size() - kCommitment;
  Digest stored;
  std::memcpy(stored.bytes.data(), bytes.data() + body_end, kCommitment);
  const Digest computed = Sha256::Hash(bytes.subspan(0, body_end));
  if (stored != computed) {
    return Error(ErrorCode::kInvalidArgument, "snapshot: commitment mismatch");
  }
  const uint32_t section_count = read_u32(sizeof(kMagic) + sizeof(uint32_t));
  if (section_count > bytes.size()) {
    return Error(ErrorCode::kInvalidArgument, "snapshot: implausible section count");
  }
  SnapshotView view;
  size_t pos = kHeader;
  for (uint32_t i = 0; i < section_count; ++i) {
    if (pos + 2 * sizeof(uint32_t) > body_end) {
      return Error(ErrorCode::kInvalidArgument, "snapshot: truncated section header");
    }
    const uint32_t tag = read_u32(pos);
    const uint32_t length = read_u32(pos + sizeof(uint32_t));
    pos += 2 * sizeof(uint32_t);
    if (pos + length > body_end) {
      return Error(ErrorCode::kInvalidArgument, "snapshot: truncated section body");
    }
    for (const Entry& entry : view.sections_) {
      if (entry.tag == tag) {
        return Error(ErrorCode::kInvalidArgument, "snapshot: duplicate section tag");
      }
    }
    view.sections_.push_back(Entry{tag, bytes.subspan(pos, length)});
    pos += length;
  }
  if (pos != body_end) {
    return Error(ErrorCode::kInvalidArgument, "snapshot: trailing bytes");
  }
  return view;
}

Result<std::span<const uint8_t>> SnapshotView::Section(uint32_t tag) const {
  for (const Entry& entry : sections_) {
    if (entry.tag == tag) {
      return entry.body;
    }
  }
  return Error(ErrorCode::kNotFound,
               "snapshot: missing section " + std::to_string(tag));
}

}  // namespace tyche
