// Copyright 2026 The Tyche Reproduction Authors.
// The TycheImage format: libtyche's loadable unit (§4.2).
//
// The paper's libtyche "loads an ELF binary as a domain using a manifest
// that describes which segments should run in which privilege ring, whether
// they are shared or confidential, and if their content is part of the
// attestation or not", and "supports generating a binary's hash offline to
// be compared with the attestation provided by Tyche". We substitute a
// self-contained binary format for ELF (see DESIGN.md): same manifest
// semantics, no external parser dependency.

#ifndef SRC_TYCHE_IMAGE_H_
#define SRC_TYCHE_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/hw/access.h"
#include "src/support/align.h"
#include "src/support/status.h"

namespace tyche {

// One loadable segment. Offsets are relative to the domain's load base and
// must be page-aligned and non-overlapping.
struct ImageSegment {
  std::string name;
  uint64_t offset = 0;     // page-aligned placement offset
  uint64_t size = 0;       // page-aligned reserved size (>= data.size())
  Perms perms;             // access the domain gets
  uint8_t ring = 0;        // privilege ring the segment runs in (0 or 3)
  bool shared = false;     // shared with the creator (true) or confidential
  bool measured = false;   // folded into the attestation measurement
  std::vector<uint8_t> data;  // initial content (zero-padded to size)

  // SHA-256 of `data` zero-padded to `size`: what the monitor's
  // ExtendMeasurement hashes once a measured segment is loaded. Computed by
  // TycheImage::AddSegment for measured segments, so the offline measurement
  // never re-hashes the image; zero for unmeasured ones.
  const Digest& content_digest() const { return content_digest_; }

 private:
  friend class TycheImage;
  Digest content_digest_;
};

class TycheImage {
 public:
  TycheImage() = default;
  explicit TycheImage(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  uint64_t entry_offset() const { return entry_offset_; }
  void set_entry_offset(uint64_t offset) { entry_offset_ = offset; }

  // Appends a segment; fails if it is unaligned or overlaps an existing one.
  // A measured segment's content digest is computed here, once.
  Status AddSegment(ImageSegment segment);

  const std::vector<ImageSegment>& segments() const { return segments_; }

  // Total extent: the end offset of the last segment.
  uint64_t extent() const;

  // --- Wire format (magic + count + per-segment header + payload) ---
  std::vector<uint8_t> Serialize() const;
  static Result<TycheImage> Deserialize(std::span<const uint8_t> bytes);

  // Convenience builders for the examples/tests: a minimal image with one
  // measured confidential RWX code segment of `code_size` bytes filled with
  // a deterministic pattern, and optionally one shared RW buffer segment.
  static TycheImage MakeDemo(const std::string& name, uint64_t code_size,
                             uint64_t shared_size);

 private:
  std::string name_;
  uint64_t entry_offset_ = 0;
  std::vector<ImageSegment> segments_;
};

}  // namespace tyche

#endif  // SRC_TYCHE_IMAGE_H_
