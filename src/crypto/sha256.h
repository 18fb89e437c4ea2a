// Copyright 2026 The Tyche Reproduction Authors.
// From-scratch SHA-256 (FIPS 180-4). Used for all measurements: the measured
// boot chain, domain/segment measurements, and attestation report digests.

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace tyche {

// A 256-bit digest. Comparable and hashable so it can key maps of golden
// measurements.
struct Digest {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Digest& other) const = default;
  auto operator<=>(const Digest& other) const = default;

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  // Lowercase hex, 64 characters.
  std::string ToHex() const;

  // The first 8 bytes, little-endian.
  uint64_t Prefix64() const {
    uint64_t value = 0;
    for (size_t i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    }
    return value;
  }
};

// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(std::span<const uint8_t> data);
  void Update(std::string_view data);
  // Convenience for hashing trivially-copyable values (lengths, ids, flags).
  template <typename T>
  void UpdateValue(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
  }

  Digest Finalize();

  static Digest Hash(std::span<const uint8_t> data);
  static Digest Hash(std::string_view data);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t total_bytes_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// HMAC-SHA256 (RFC 2104) under one fixed key. The key's inner and outer pad
// blocks are hashed once, at construction (RFC 2104 §4), so each Mac() pays
// only for the message and the outer digest: two compressions fewer than
// keying from scratch. Default-constructed, it holds the empty key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const uint8_t> key = {});

  Digest Mac(std::span<const uint8_t> message) const;

 private:
  Sha256 inner_;  // after the ipad block
  Sha256 outer_;  // after the opad block
};

// HMAC-SHA256 (RFC 2104) keyed for one message. Used to derive deterministic
// nonces and as the MAC inside sealed storage.
Digest HmacSha256(std::span<const uint8_t> key, std::span<const uint8_t> message);

}  // namespace tyche

#endif  // SRC_CRYPTO_SHA256_H_
