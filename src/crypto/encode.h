// Copyright 2026 The Tyche Reproduction Authors.
// Little-endian writers shared by every fixed byte encoding that is hashed
// or shipped: journal records, attestation reports and effect lists. One
// writer keeps the hashed bytes and the wire bytes from drifting apart.

#ifndef SRC_CRYPTO_ENCODE_H_
#define SRC_CRYPTO_ENCODE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/crypto/sha256.h"

namespace tyche {

// Little-endian scalar store, returning the next write position.
template <typename T>
uint8_t* Put(uint8_t* out, T value) {
  static_assert(std::is_integral_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return out + sizeof(T);
}

inline uint8_t* PutDigest(uint8_t* out, const Digest& digest) {
  std::memcpy(out, digest.bytes.data(), digest.bytes.size());
  return out + digest.bytes.size();
}

}  // namespace tyche

#endif  // SRC_CRYPTO_ENCODE_H_
