// Copyright 2026 The Tyche Reproduction Authors.
// Hash-committed snapshot container: the serialized form of the monitor's
// durable state, emitted at journal checkpoints and bound into the signed
// JournalCheckpoint by digest. The container is deliberately dumb — tagged
// sections of opaque bytes plus a trailing SHA-256 commitment — so the
// support layer needs no knowledge of capability or monitor types; the
// section encodings live with their owners (src/monitor/recovery.cc).
//
// Wire format:
//   magic "TYSN" | u32 version | u32 section_count
//   section_count x { u32 tag | u32 length | length bytes }
//   32-byte SHA-256 over every preceding byte (the commitment)
//
// Integrity story: the trailing commitment catches accidental corruption on
// its own; authenticity comes from the checkpoint signature over
// SnapshotDigest(bytes), which covers the commitment too. Flipping any bit
// of a snapshot therefore breaks BOTH the self-check and the signed binding.

#ifndef SRC_SUPPORT_SNAPSHOT_H_
#define SRC_SUPPORT_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/support/status.h"

namespace tyche {

// Digest a checkpoint binds: SHA-256 over the ENTIRE serialized snapshot
// (header, sections, and trailing commitment).
Digest SnapshotDigest(std::span<const uint8_t> bytes);

// Builds one section body. Little-endian scalars, length-prefixed strings —
// the same conventions as the journal wire format.
class SectionWriter {
 public:
  template <typename T>
  void Append(T value) {
    static_assert(std::is_integral_v<T>);
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  void AppendDigest(const Digest& digest) {
    bytes_.insert(bytes_.end(), digest.bytes.begin(), digest.bytes.end());
  }

  void AppendString(const std::string& value) {
    Append(static_cast<uint32_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

// Bounds-checked cursor over one section body, or over a serialized
// journal (the same little-endian conventions).
class SectionReader {
 public:
  explicit SectionReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_integral_v<T>);
    if (pos_ + sizeof(T) > bytes_.size()) {
      return false;
    }
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<T>(bytes_[pos_ + i]) << (8 * i));
    }
    *value = out;
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDigest(Digest* digest);
  bool ReadString(std::string* value);

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// Assembles a snapshot: sections are emitted in AddSection() order and the
// commitment is computed by Finish().
class SnapshotWriter {
 public:
  void AddSection(uint32_t tag, std::vector<uint8_t> body);
  std::vector<uint8_t> Finish() const;

 private:
  struct Section {
    uint32_t tag;
    std::vector<uint8_t> body;
  };
  std::vector<Section> sections_;
};

// Parses and self-verifies a snapshot. Sections are looked up by tag;
// duplicate tags are rejected at parse time.
class SnapshotView {
 public:
  static Result<SnapshotView> Parse(std::span<const uint8_t> bytes);

  // The section body for `tag`, or kNotFound.
  Result<std::span<const uint8_t>> Section(uint32_t tag) const;
  size_t section_count() const { return sections_.size(); }

 private:
  struct Entry {
    uint32_t tag;
    std::span<const uint8_t> body;
  };
  std::vector<Entry> sections_;
};

}  // namespace tyche

#endif  // SRC_SUPPORT_SNAPSHOT_H_
