// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/authenticated.h"

#include <cstring>

#include "src/crypto/encode.h"
#include "src/support/fault_hook.h"

namespace tyche {

namespace {

Digest SubKey(const Digest& key, const char* label) {
  return HmacSha256(std::span<const uint8_t>(key.bytes.data(), key.bytes.size()),
                    std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(label),
                                             std::strlen(label)));
}

// XORs `data` with the keystream SHA256(key_enc || nonce || counter).
void ApplyKeystream(const Digest& key_enc, uint64_t nonce, std::span<uint8_t> data) {
  uint64_t counter = 0;
  size_t offset = 0;
  while (offset < data.size()) {
    Sha256 block;
    block.Update(std::span<const uint8_t>(key_enc.bytes.data(), key_enc.bytes.size()));
    block.UpdateValue(nonce);
    block.UpdateValue(counter);
    const Digest keystream = block.Finalize();
    const size_t take = std::min<size_t>(32, data.size() - offset);
    for (size_t i = 0; i < take; ++i) {
      data[offset + i] ^= keystream.bytes[i];
    }
    offset += take;
    ++counter;
  }
}

Digest ComputeTag(const Digest& key_mac, uint64_t nonce,
                  std::span<const uint8_t> ciphertext) {
  Sha256 body;
  body.UpdateValue(nonce);
  body.UpdateValue(static_cast<uint64_t>(ciphertext.size()));
  body.Update(ciphertext);
  const Digest digest = body.Finalize();
  return HmacSha256(std::span<const uint8_t>(key_mac.bytes.data(), key_mac.bytes.size()),
                    std::span<const uint8_t>(digest.bytes.data(), digest.bytes.size()));
}

}  // namespace

std::vector<uint8_t> SealedBlob::Serialize() const {
  std::vector<uint8_t> out(16 + ciphertext.size() + 32);
  uint8_t* at = Put(Put(out.data(), nonce), static_cast<uint64_t>(ciphertext.size()));
  PutDigest(std::copy(ciphertext.begin(), ciphertext.end(), at), tag);
  return out;
}

Result<SealedBlob> SealedBlob::Deserialize(std::span<const uint8_t> bytes) {
  if (bytes.size() < 16 + 32) {
    return Error(ErrorCode::kInvalidArgument, "blob too short");
  }
  SealedBlob blob;
  uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    blob.nonce |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    length |= static_cast<uint64_t>(bytes[8 + i]) << (8 * i);
  }
  if (length != bytes.size() - 16 - 32) {
    return Error(ErrorCode::kInvalidArgument, "blob length mismatch");
  }
  blob.ciphertext.assign(bytes.begin() + 16, bytes.end() - 32);
  std::copy(bytes.end() - 32, bytes.end(), blob.tag.bytes.begin());
  return blob;
}

SealedBlob AeadSeal(const Digest& key, uint64_t nonce, std::span<const uint8_t> plaintext) {
  const Digest key_enc = SubKey(key, "tyche-aead-enc");
  const Digest key_mac = SubKey(key, "tyche-aead-mac");
  SealedBlob blob;
  blob.nonce = nonce;
  blob.ciphertext.assign(plaintext.begin(), plaintext.end());
  ApplyKeystream(key_enc, nonce, std::span<uint8_t>(blob.ciphertext));
  blob.tag = ComputeTag(key_mac, nonce, std::span<const uint8_t>(blob.ciphertext));
  return blob;
}

Result<std::vector<uint8_t>> AeadOpen(const Digest& key, const SealedBlob& blob) {
  TYCHE_FAULT_POINT(faults::kAeadOpen);
  const Digest key_enc = SubKey(key, "tyche-aead-enc");
  const Digest key_mac = SubKey(key, "tyche-aead-mac");
  const Digest expected =
      ComputeTag(key_mac, blob.nonce, std::span<const uint8_t>(blob.ciphertext));
  if (expected != blob.tag) {
    return Error(ErrorCode::kSignatureInvalid, "AEAD tag mismatch");
  }
  std::vector<uint8_t> plaintext = blob.ciphertext;
  ApplyKeystream(key_enc, blob.nonce, std::span<uint8_t>(plaintext));
  return plaintext;
}

}  // namespace tyche
