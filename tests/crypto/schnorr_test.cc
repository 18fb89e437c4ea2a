// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/schnorr.h"

#include <gtest/gtest.h>

namespace tyche {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(SchnorrParamsTest, SafePrimeGroup) {
  const SchnorrParams& p = SchnorrParams::Default();
  EXPECT_EQ(p.p, 2 * p.q + 1);
  // g generates the order-q subgroup: g^q == 1 and g != 1.
  EXPECT_EQ(PowMod(p.g, p.q, p.p), 1u);
  EXPECT_NE(p.g, 1u);
}

TEST(ModArithTest, MulModMatchesSmallCases) {
  EXPECT_EQ(MulMod(7, 9, 13), 63 % 13);
  EXPECT_EQ(MulMod(0, 9, 13), 0u);
  // Large operands that would overflow 64-bit multiplication.
  const uint64_t big = 0x3ffffffffffff000ULL;
  EXPECT_EQ(MulMod(big, big, SchnorrParams::Default().p),
            static_cast<uint64_t>(static_cast<unsigned __int128>(big) * big %
                                  SchnorrParams::Default().p));
}

TEST(ModArithTest, PowModIdentities) {
  EXPECT_EQ(PowMod(5, 0, 97), 1u);
  EXPECT_EQ(PowMod(5, 1, 97), 5u);
  EXPECT_EQ(PowMod(2, 10, 100000), 1024u);
  // Fermat: a^(p-1) == 1 mod p for prime p.
  EXPECT_EQ(PowMod(1234567, SchnorrParams::Default().p - 1, SchnorrParams::Default().p), 1u);
}

TEST(ModArithTest, MulModNearOverflowBoundaries) {
  // Operands just below the 62-bit prime and its cofactors: these products
  // overflow 64 bits by ~60 bits and are exactly the inputs a non-widening
  // implementation would get wrong silently.
  const SchnorrParams& p = SchnorrParams::Default();
  const auto ref = [](uint64_t a, uint64_t b, uint64_t m) {
    return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % m);
  };
  const uint64_t cases[] = {p.p - 1, p.p - 2, p.q, p.q - 1, p.q + 1,
                            (p.p - 1) / 2, 1ull << 61, (1ull << 62) - 1};
  for (const uint64_t a : cases) {
    for (const uint64_t b : cases) {
      EXPECT_EQ(MulMod(a, b, p.p), ref(a, b, p.p)) << a << " * " << b;
      EXPECT_EQ(MulMod(a, b, p.q), ref(a, b, p.q)) << a << " * " << b;
    }
  }
  // (p-1)^2 mod p == 1: the classic near-modulus identity.
  EXPECT_EQ(MulMod(p.p - 1, p.p - 1, p.p), 1u);
}

TEST(ModArithTest, PowModBoundaryExponents) {
  const SchnorrParams& p = SchnorrParams::Default();
  // Euler / Fermat at the group boundaries with near-modulus bases.
  EXPECT_EQ(PowMod(p.p - 1, 2, p.p), 1u);
  EXPECT_EQ(PowMod(p.p - 1, p.p - 1, p.p), 1u);  // (-1)^(even)
  EXPECT_EQ(PowMod(p.p - 2, p.p - 1, p.p), 1u);
  // g has order exactly q: g^q == 1, g^(q-1) == g^{-1} != 1.
  EXPECT_EQ(PowMod(p.g, p.q, p.p), 1u);
  const uint64_t g_inv = PowMod(p.g, p.q - 1, p.p);
  EXPECT_NE(g_inv, 1u);
  EXPECT_EQ(MulMod(g_inv, p.g, p.p), 1u);
  // Base >= modulus must reduce first.
  EXPECT_EQ(PowMod(p.p + 5, 3, p.p), PowMod(5, 3, p.p));
  EXPECT_EQ(PowMod(7, 0, 1), 0u);  // mod 1: everything is 0
}

// splitmix64: a fixed, dependency-free stream of test operands.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Plain right-to-left square-and-multiply through a 128-bit remainder: the
// reference every exponentiation path is checked against.
uint64_t ReferencePowMod(uint64_t base, uint64_t exp, uint64_t m) {
  const auto mul = [m](uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % m);
  };
  uint64_t result = 1 % m;
  base %= m;
  for (; exp != 0; exp >>= 1) {
    if (exp & 1) {
      result = mul(result, base);
    }
    base = mul(base, base);
  }
  return result;
}

TEST(ModArithTest, PowModMatchesReferenceAcrossModuli) {
  // The group modulus p (the Montgomery path) and every other kind of
  // modulus (the generic MulMod path): odd moduli below 2^63, even moduli,
  // m = 1, and moduli at or above 2^63, odd and even.
  const SchnorrParams& p = SchnorrParams::Default();
  const uint64_t moduli[] = {p.p,        p.q,
                             97,         3,
                             (1ull << 63) - 25,
                             100000,     1ull << 62,
                             2,          1,
                             (1ull << 63) + 29,
                             ~0ull - 58,  // 2^64 - 59
                             ~0ull,      1ull << 63,
                             ~0ull - 1};
  uint64_t state = 7;
  for (const uint64_t m : moduli) {
    for (int i = 0; i < 200; ++i) {
      const uint64_t base = NextRandom(&state);
      const uint64_t exp = i < 4 ? static_cast<uint64_t>(i) : NextRandom(&state) >> (i % 64);
      ASSERT_EQ(PowMod(base, exp, m), ReferencePowMod(base, exp, m))
          << base << "^" << exp << " mod " << m;
    }
    EXPECT_EQ(PowMod(m - 1, 2, m), m == 1 ? 0u : 1u) << m;
    EXPECT_EQ(PowMod(0, 0, m), 1 % m) << m;
  }
}

TEST(ModArithTest, MultiExpModMatchesPowModProducts) {
  const SchnorrParams& p = SchnorrParams::Default();
  const uint64_t bases[] = {p.g, 123456789, p.p - 2, 42};
  const uint64_t exps[] = {p.q - 1, 0, 0xDEADBEEF, 1};
  uint64_t expected = 1;
  for (size_t i = 0; i < 4; ++i) {
    expected = MulMod(expected, PowMod(bases[i], exps[i], p.p), p.p);
  }
  EXPECT_EQ(MultiExpMod(bases, exps, p.p), expected);
  // All-zero exponents: the empty product.
  const uint64_t zeros[] = {0, 0, 0, 0};
  EXPECT_EQ(MultiExpMod(bases, zeros, p.p), 1u);
  EXPECT_EQ(MultiExpMod({}, {}, p.p), 1u);

  // Random two-base products, including an odd modulus above 2^63, where a
  // 64-bit Montgomery reduction would overflow (it must take MulMod).
  uint64_t state = 3;
  for (const uint64_t m : {p.p, p.q, uint64_t{~0ull - 58}}) {
    for (int i = 0; i < 200; ++i) {
      const uint64_t pair_bases[] = {NextRandom(&state), NextRandom(&state)};
      const uint64_t pair_exps[] = {NextRandom(&state), NextRandom(&state)};
      const uint64_t want = MulMod(ReferencePowMod(pair_bases[0], pair_exps[0], m),
                                   ReferencePowMod(pair_bases[1], pair_exps[1], m), m);
      ASSERT_EQ(MultiExpMod(pair_bases, pair_exps, m), want) << "mod " << m << " #" << i;
    }
  }
}

TEST(ModArithTest, PowGMatchesPowModOfGenerator) {
  const SchnorrParams& p = SchnorrParams::Default();
  std::vector<uint64_t> exps = {0, 1, 255, 256, p.q - 1};
  for (int i = 0; i < 8; ++i) {
    exps.push_back(uint64_t{0xff} << (8 * i));  // every table row at its last entry
  }
  uint64_t state = 11;
  for (int i = 0; i < 10000; ++i) {
    exps.push_back(NextRandom(&state));
  }
  for (const uint64_t exp : exps) {
    ASSERT_EQ(PowG(exp), PowMod(p.g, exp, p.p)) << "g^" << exp;
  }
}

TEST(SchnorrTest, DeriveIsDeterministic) {
  const SchnorrKeyPair a = DeriveKeyPair(Bytes("seed-a"));
  const SchnorrKeyPair b = DeriveKeyPair(Bytes("seed-a"));
  EXPECT_EQ(a.priv.x, b.priv.x);
  EXPECT_EQ(a.pub, b.pub);
  const SchnorrKeyPair c = DeriveKeyPair(Bytes("seed-c"));
  EXPECT_NE(a.priv.x, c.priv.x);
}

TEST(SchnorrTest, SignVerifyRoundTrip) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("tpm-endorsement"));
  const std::string message = "attestation report body";
  const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes(message)));
  EXPECT_TRUE(SchnorrVerify(key.pub, Bytes(message), sig));
}

TEST(SchnorrTest, RejectsTamperedMessage) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes("original")));
  EXPECT_FALSE(SchnorrVerify(key.pub, Bytes("tampered"), sig));
}

TEST(SchnorrTest, RejectsWrongKey) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k1"));
  const SchnorrKeyPair other = DeriveKeyPair(Bytes("k2"));
  const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes("msg")));
  EXPECT_FALSE(SchnorrVerify(other.pub, Bytes("msg"), sig));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes("msg")));
  sig.s ^= 1;
  EXPECT_FALSE(SchnorrVerify(key.pub, Bytes("msg"), sig));
  SchnorrSignature sig2 = SchnorrSign(key, Sha256::Hash(Bytes("msg")));
  sig2.e.bytes[0] ^= 0x80;
  EXPECT_FALSE(SchnorrVerify(key.pub, Bytes("msg"), sig2));
}

TEST(SchnorrTest, RejectsMalformedKeyOrScalar) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes("msg")));
  EXPECT_FALSE(SchnorrVerify(SchnorrPublicKey{0}, Bytes("msg"), sig));
  SchnorrSignature oversize = sig;
  oversize.s = SchnorrParams::Default().q;  // out of range
  EXPECT_FALSE(SchnorrVerify(key.pub, Bytes("msg"), oversize));
}

TEST(SchnorrTest, DeterministicSignature) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  const Digest digest = Sha256::Hash(Bytes("m"));
  EXPECT_EQ(SchnorrSign(key, digest), SchnorrSign(key, digest));
}

TEST(SchnorrTest, SignaturesMatchRecordedValues) {
  // Known answers recorded once: signatures are deterministic, so any
  // change to the exponentiation or hashing underneath that alters a single
  // bit of (s, e, r) shows up here.
  struct Kat {
    const char* seed;
    const char* message;
    uint64_t s;
    const char* e;
    uint64_t r;
  };
  const Kat kats[] = {
      {"kat-seed-1", "kat message one", 73695588432329611ULL,
       "2b45ae8f94b70e6b6682df385b8b273340a2d91b78273febab6f16a00a6e8720",
       2939194149214748747ULL},
      {"tpm-endorsement", "attestation report body", 1029524541922285171ULL,
       "fd5174558d7cfa2a1db2a3c7e997a00d70b3f2141a461e15c137ff7cb778d859",
       4522248003961417839ULL},
      {"monitor-key", "", 1364757674518034834ULL,
       "e3a7e9032042b189b7f231d3744518e29cd45e9dbd06cb59aba5f425baaf30eb",
       4455017666496854626ULL},
  };
  for (const Kat& kat : kats) {
    const SchnorrKeyPair key = DeriveKeyPair(Bytes(kat.seed));
    const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes(kat.message)));
    EXPECT_EQ(sig.s, kat.s) << kat.seed;
    EXPECT_EQ(sig.e.ToHex(), kat.e) << kat.seed;
    EXPECT_EQ(sig.r, kat.r) << kat.seed;
    EXPECT_TRUE(SchnorrVerify(key.pub, Bytes(kat.message), sig)) << kat.seed;
  }
}

TEST(SchnorrTest, DigestOverloadMatchesBytes) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  const Digest digest = Sha256::Hash(Bytes("payload"));
  const SchnorrSignature sig = SchnorrSign(key, digest);
  EXPECT_TRUE(SchnorrVerify(key.pub, digest, sig));
  EXPECT_TRUE(SchnorrVerify(key.pub, Bytes("payload"), sig));
}

TEST(SchnorrTest, MismatchedPairVerifiesUnderNeitherKey) {
  // Signing trusts the pair's stored public key; halves from two different
  // keys produce a challenge bound to one key and a response from the other.
  const SchnorrKeyPair a = DeriveKeyPair(Bytes("pair-a"));
  const SchnorrKeyPair b = DeriveKeyPair(Bytes("pair-b"));
  const SchnorrKeyPair mixed{a.priv, b.pub};
  const Digest digest = Sha256::Hash(Bytes("msg"));
  const SchnorrSignature sig = SchnorrSign(mixed, digest);
  EXPECT_FALSE(SchnorrVerify(a.pub, digest, sig));
  EXPECT_FALSE(SchnorrVerify(b.pub, digest, sig));
}

std::vector<SchnorrBatchItem> MakeBatch(size_t n, const std::string& key_seed) {
  const SchnorrKeyPair key = DeriveKeyPair(Bytes(key_seed));
  std::vector<SchnorrBatchItem> items;
  for (size_t i = 0; i < n; ++i) {
    const Digest digest = Sha256::Hash(Bytes("quote-" + std::to_string(i)));
    items.push_back(SchnorrBatchItem{key.pub, digest, SchnorrSign(key, digest)});
  }
  return items;
}

TEST(SchnorrBatchTest, EmptyBatchIsValid) {
  const SchnorrBatchOutcome outcome = SchnorrBatchVerify({});
  EXPECT_TRUE(outcome.all_valid);
  EXPECT_FALSE(outcome.used_fallback);
  EXPECT_TRUE(outcome.invalid.empty());
}

TEST(SchnorrBatchTest, AllValidBatchSkipsFallback) {
  for (const size_t n : {2u, 3u, 8u, 17u}) {
    const auto items = MakeBatch(n, "monitor-key");
    const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
    EXPECT_TRUE(outcome.all_valid) << n;
    EXPECT_FALSE(outcome.used_fallback) << n;
    EXPECT_TRUE(outcome.invalid.empty()) << n;
  }
}

TEST(SchnorrBatchTest, BatchOfOneEqualsSingleVerify) {
  auto items = MakeBatch(1, "k");
  EXPECT_TRUE(SchnorrBatchVerify(items).all_valid);
  // Forge it: outcome must match SchnorrVerify exactly.
  items[0].sig.s ^= 1;
  const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
  EXPECT_FALSE(outcome.all_valid);
  ASSERT_EQ(outcome.invalid.size(), 1u);
  EXPECT_EQ(outcome.invalid[0], 0u);
  EXPECT_FALSE(SchnorrVerify(items[0].pub, items[0].message_digest, items[0].sig));
}

TEST(SchnorrBatchTest, OneForgedSignatureIsAlwaysIdentified) {
  // Every forgery position, several forgery shapes: the batch must drop to
  // fallback and attribute the failure to exactly the culprit index.
  for (size_t n : {2u, 4u, 8u}) {
    for (size_t victim = 0; victim < n; ++victim) {
      for (int shape = 0; shape < 4; ++shape) {
        auto items = MakeBatch(n, "monitor-key");
        switch (shape) {
          case 0:
            items[victim].sig.s ^= 1;  // corrupt response scalar
            break;
          case 1:
            items[victim].sig.e.bytes[3] ^= 0x40;  // corrupt challenge
            break;
          case 2:
            items[victim].sig.r ^= 2;  // corrupt commitment
            break;
          case 3:
            items[victim].message_digest.bytes[0] ^= 0x01;  // wrong message
            break;
        }
        const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
        EXPECT_FALSE(outcome.all_valid) << n << "/" << victim << "/" << shape;
        ASSERT_EQ(outcome.invalid.size(), 1u) << n << "/" << victim << "/" << shape;
        EXPECT_EQ(outcome.invalid[0], victim) << n << "/" << victim << "/" << shape;
      }
    }
  }
}

TEST(SchnorrBatchTest, MultipleForgeriesAllAttributed) {
  auto items = MakeBatch(6, "monitor-key");
  items[1].sig.s ^= 1;
  items[4].sig.e.bytes[0] ^= 0x01;
  const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
  EXPECT_FALSE(outcome.all_valid);
  EXPECT_TRUE(outcome.used_fallback);
  ASSERT_EQ(outcome.invalid.size(), 2u);
  EXPECT_EQ(outcome.invalid[0], 1u);
  EXPECT_EQ(outcome.invalid[1], 4u);
}

TEST(SchnorrBatchTest, MixedKeysVerify) {
  // A batch spanning several signers (distinct monitor instances) still
  // verifies as one combined equation.
  auto items = MakeBatch(3, "key-a");
  const auto more = MakeBatch(3, "key-b");
  items.insert(items.end(), more.begin(), more.end());
  EXPECT_TRUE(SchnorrBatchVerify(items).all_valid);
  // Swapping two items' public keys forges both.
  std::swap(items[0].pub, items[3].pub);
  const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
  EXPECT_FALSE(outcome.all_valid);
  ASSERT_EQ(outcome.invalid.size(), 2u);
  EXPECT_EQ(outcome.invalid[0], 0u);
  EXPECT_EQ(outcome.invalid[1], 3u);
}

TEST(SchnorrBatchTest, LegacySignatureWithoutCommitmentFallsBack) {
  // A signature deserialized from a pre-batching wire format has r == 0:
  // the batch cannot use it, but the fallback still verifies it singly.
  auto items = MakeBatch(4, "monitor-key");
  items[2].sig.r = 0;
  const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
  EXPECT_TRUE(outcome.all_valid);  // the signature itself is genuine
  EXPECT_TRUE(outcome.used_fallback);
  EXPECT_TRUE(outcome.invalid.empty());
}

TEST(SchnorrBatchTest, SignatureCarriesCommitment) {
  // SchnorrSign stores r = g^k; single verify reconstructs the same value.
  const SchnorrKeyPair key = DeriveKeyPair(Bytes("k"));
  const SchnorrSignature sig = SchnorrSign(key, Sha256::Hash(Bytes("msg")));
  const SchnorrParams& p = SchnorrParams::Default();
  EXPECT_NE(sig.r, 0u);
  EXPECT_LT(sig.r, p.p);
  // r is in the order-q subgroup (it is a power of g).
  EXPECT_EQ(PowMod(sig.r, p.q, p.p), 1u);
}

TEST(DhTest, SharedSecretAgreesAndBindsToKeys) {
  const SchnorrKeyPair a = DeriveKeyPair(Bytes("party-a"));
  const SchnorrKeyPair b = DeriveKeyPair(Bytes("party-b"));
  const Digest ab = DhSharedSecret(a.priv, b.pub);
  const Digest ba = DhSharedSecret(b.priv, a.pub);
  EXPECT_EQ(ab, ba);
  // A third party computes something else.
  const SchnorrKeyPair eve = DeriveKeyPair(Bytes("party-e"));
  EXPECT_NE(DhSharedSecret(eve.priv, a.pub), ab);
  EXPECT_NE(DhSharedSecret(eve.priv, b.pub), ab);
  // Different peers give different secrets.
  EXPECT_NE(DhSharedSecret(a.priv, eve.pub), ab);
}

}  // namespace
}  // namespace tyche
