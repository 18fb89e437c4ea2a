// Copyright 2026 The Tyche Reproduction Authors.
// Deterministic Schnorr signatures over a toy prime-order subgroup of Z_p^*.
//
// The paper's judiciary branch relies on two signing parties: the TPM-like
// root of trust (signing boot-time quotes) and the attested monitor (signing
// domain attestations). What matters for the reproduction is the *protocol*
// -- key certification chains and verifiable reports -- not the hardness of
// the underlying group, so this implementation uses a 62-bit safe prime and
// is NOT cryptographically strong. See DESIGN.md ("substitutions").

#ifndef SRC_CRYPTO_SCHNORR_H_
#define SRC_CRYPTO_SCHNORR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/support/status.h"

namespace tyche {

// Group parameters: p = 2q + 1 with q prime, generator g of the order-q
// subgroup. Fixed for the whole system (a real deployment would use a
// standardized curve).
struct SchnorrParams {
  uint64_t p;  // safe prime modulus
  uint64_t q;  // subgroup order, q = (p - 1) / 2
  uint64_t g;  // generator of the order-q subgroup

  static const SchnorrParams& Default();
};

struct SchnorrPrivateKey {
  uint64_t x = 0;  // secret exponent in [1, q)
};

struct SchnorrPublicKey {
  uint64_t y = 0;  // y = g^x mod p

  bool operator==(const SchnorrPublicKey& other) const = default;
};

struct SchnorrSignature {
  uint64_t s = 0;  // response
  Digest e;        // challenge hash
  // Commitment r = g^k mod p. Redundant for single verification (which
  // recomputes r' = g^s * y^{-e} and checks the challenge hash), but carried
  // so batch verification can check one randomized-combiner equation over a
  // whole batch instead of two exponentiations per signature. A signature
  // with r == 0 (e.g. deserialized from a pre-batching wire format) simply
  // falls off the batch fast path onto per-signature verification.
  uint64_t r = 0;

  bool operator==(const SchnorrSignature& other) const = default;
};

// Every key pair comes from DeriveKeyPair, which fills all three fields
// from one secret: signing trusts `pub` and `nonce_key` to belong to `priv`.
struct SchnorrKeyPair {
  SchnorrPrivateKey priv;
  SchnorrPublicKey pub;
  // HMAC keyed with priv.x's 8 little-endian bytes, pads hashed once: the
  // deterministic-nonce key of every signature.
  HmacSha256Key nonce_key{};
};

// Derives a key pair deterministically from seed material (e.g. the TPM's
// endorsement seed, or the monitor's measurement-bound identity seed).
SchnorrKeyPair DeriveKeyPair(std::span<const uint8_t> seed);

// Deterministic signing (nonce k = HMAC(x, digest) mod q, in the spirit of
// RFC 6979). The challenge hashes the stored `key.pub` instead of
// recomputing g^x, and the nonce comes from the stored `key.nonce_key`, so
// the pair must be one DeriveKeyPair produced: a pair whose halves disagree
// yields a signature that verifies under neither key.
SchnorrSignature SchnorrSign(const SchnorrKeyPair& key, const Digest& message_digest);

bool SchnorrVerify(const SchnorrPublicKey& pub, std::span<const uint8_t> message,
                   const SchnorrSignature& sig);
bool SchnorrVerify(const SchnorrPublicKey& pub, const Digest& message_digest,
                   const SchnorrSignature& sig);

// One quote in a batch verification: who allegedly signed what.
struct SchnorrBatchItem {
  SchnorrPublicKey pub;
  Digest message_digest;
  SchnorrSignature sig;
};

struct SchnorrBatchOutcome {
  bool all_valid = true;       // every signature in the batch verified
  bool used_fallback = false;  // the combined check failed (or a pre-check
                               // did) and per-signature verification ran
  std::vector<size_t> invalid;  // indices rejected by per-signature verify
};

// Batch verification: one randomized-combiner multi-exponentiation checks
// the whole batch at a fraction of the per-signature cost. For each item the
// challenge binding e_i == H(r_i, y_i, m_i) is checked directly (hashing is
// cheap), then random 32-bit combiners z_i — derived by hashing the batch
// itself, so they are fixed only after every signature is — weight one
// combined group equation
//
//     g^{sum z_i s_i}  ==  prod_y y^{sum_{i: y_i = y} z_i e_i} * prod_i r_i^{z_i}
//
// evaluated as a single shared-squarings multi-exponentiation (same-key
// items collapse onto one base, which is the common case for a batch of
// quotes from one monitor). If any pre-check or the combined equation fails,
// the batch falls back to per-signature SchnorrVerify to identify the
// culprit(s) — so the reported verdicts are always exactly the single-verify
// verdicts; the fast path is only ever an accelerator for the all-valid
// case. An empty batch is trivially valid.
SchnorrBatchOutcome SchnorrBatchVerify(std::span<const SchnorrBatchItem> items);

// Diffie-Hellman on the same group: two parties exchange public keys and
// derive the same shared secret. Used by the cross-machine attested-channel
// protocol. Same toy-strength caveat as the signatures.
Digest DhSharedSecret(const SchnorrPrivateKey& mine, const SchnorrPublicKey& theirs);

// Modular arithmetic helpers (exposed for tests).
uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m);
// base^exp mod m: MultiExpMod over one base.
uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m);
// g^exp mod p for the group generator, any 64-bit exp: one walk of a
// fixed-base table (8 multiplications) instead of a square-and-multiply pass.
uint64_t PowG(uint64_t exp);
// prod_i bases[i]^{exps[i]} mod m with one shared square-and-multiply pass:
// the squarings are paid once for the whole product instead of once per
// base, which is what makes batch verification cheaper than verifying each
// signature alone. Requires bases.size() == exps.size().
uint64_t MultiExpMod(std::span<const uint64_t> bases, std::span<const uint64_t> exps,
                     uint64_t m);

}  // namespace tyche

#endif  // SRC_CRYPTO_SCHNORR_H_
