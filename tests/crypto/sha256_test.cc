// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace tyche {
namespace {

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(Sha256::Hash(std::string_view("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(Sha256::Hash(std::string_view("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  // FIPS 180-4 example: 56-byte message forcing two-block padding.
  EXPECT_EQ(
      Sha256::Hash(std::string_view("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, QuickBrownFox) {
  EXPECT_EQ(Sha256::Hash(std::string_view("The quick brown fox jumps over the lazy dog"))
                .ToHex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data(1000, 'x');
  Sha256 ctx;
  for (size_t i = 0; i < data.size(); i += 7) {
    ctx.Update(std::string_view(data).substr(i, 7));
  }
  EXPECT_EQ(ctx.Finalize(), Sha256::Hash(data));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4: one million repetitions of 'a'.
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.Update(chunk);
  }
  EXPECT_EQ(ctx.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Deterministic non-constant message bytes, so a padding bug cannot hide
// behind a run of identical bytes.
std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return out;
}

TEST(Sha256Test, PaddingBoundaryVectors) {
  // 55/56 and 119/120 bytes straddle the "length field still fits in this
  // block" edge; 63/64 straddle a whole block. Expected values come from an
  // independent implementation (Python hashlib) over Pattern(n).
  const std::pair<size_t, const char*> cases[] = {
      {55, "16ed9c4697ca11d5f6fb25ea7900252dd4cb97215d7f6d0b2bb3e2a86ac0ec72"},
      {56, "939ada93b2fe1e9c596d767bb408567c83e253667f0b25e5be8e16f35f2cbac9"},
      {63, "6073f83b09ae82016cdbe24c18996c48f0eaa08ca675d0f6b90b807fc29e0149"},
      {64, "b337ba9b0c69c391364e985fdcb23a889887e59800832c92fbfa22b8a3c40304"},
      {119, "9773fbac8194c3d789af101b49b6a26073076895ef6e0f658432849dd477a43f"},
      {120, "070a538f085dd94821d4dc197c5c8b791051891d4fa2a1bf25d3c275236676f7"},
  };
  for (const auto& [length, hex] : cases) {
    EXPECT_EQ(Sha256::Hash(Pattern(length)).ToHex(), hex) << length;
  }
}

TEST(Sha256Test, SplitUpdateMatchesOneShotAtEveryLength) {
  // Every length across two padding boundaries, every split point: the
  // buffered-tail path must pad exactly like the one-shot path.
  for (size_t length = 0; length <= 130; ++length) {
    const std::vector<uint8_t> data = Pattern(length);
    const Digest one_shot = Sha256::Hash(data);
    for (size_t split = 0; split <= length; ++split) {
      Sha256 ctx;
      ctx.Update(std::span<const uint8_t>(data.data(), split));
      ctx.Update(std::span<const uint8_t>(data.data() + split, length - split));
      ASSERT_EQ(ctx.Finalize(), one_shot) << length << " split at " << split;
    }
  }
}

TEST(Sha256Test, ResetAfterFinalize) {
  Sha256 ctx;
  ctx.Update(std::string_view("abc"));
  (void)ctx.Finalize();
  ctx.Update(std::string_view("abc"));
  EXPECT_EQ(ctx.Finalize(), Sha256::Hash(std::string_view("abc")));
}

TEST(Sha256Test, UpdateValueOrderSensitive) {
  Sha256 a;
  a.UpdateValue<uint64_t>(1);
  a.UpdateValue<uint64_t>(2);
  Sha256 b;
  b.UpdateValue<uint64_t>(2);
  b.UpdateValue<uint64_t>(1);
  EXPECT_NE(a.Finalize(), b.Finalize());
}

TEST(Sha256Test, EmptyUpdateBetweenTwoIsANoOp) {
  // A default span has a null data(): the update must not touch it.
  Sha256 ctx;
  ctx.Update(std::string_view("ab"));
  ctx.Update(std::span<const uint8_t>());
  ctx.Update(std::string_view("c"));
  EXPECT_EQ(ctx.Finalize().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(DigestTest, ZeroAndComparison) {
  Digest zero;
  EXPECT_TRUE(zero.IsZero());
  const Digest d = Sha256::Hash(std::string_view("x"));
  EXPECT_FALSE(d.IsZero());
  EXPECT_NE(d, zero);
  EXPECT_EQ(d, Sha256::Hash(std::string_view("x")));
}

TEST(DigestTest, HexIs64Chars) {
  EXPECT_EQ(Digest{}.ToHex().size(), 64u);
  EXPECT_EQ(Digest{}.ToHex(), std::string(64, '0'));
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string message = "what do ya want for nothing?";
  const Digest mac =
      HmacSha256(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()),
                                          key.size()),
                 std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                          message.size()));
  EXPECT_EQ(mac.ToHex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case1) {
  const std::vector<uint8_t> key(20, 0x0b);
  const std::string message = "Hi There";
  const Digest mac = HmacSha256(
      std::span<const uint8_t>(key),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
  EXPECT_EQ(mac.ToHex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const std::vector<uint8_t> long_key(131, 0xaa);
  const std::string message = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = HmacSha256(
      std::span<const uint8_t>(long_key),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
  EXPECT_EQ(mac.ToHex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, EmptyKey) {
  // An empty key is an all-zero key block (RFC 2104).
  EXPECT_EQ(HmacSha256(std::span<const uint8_t>(), std::span<const uint8_t>()).ToHex(),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  const std::string message = "Hi There";
  EXPECT_EQ(HmacSha256(std::span<const uint8_t>(),
                       std::span<const uint8_t>(
                           reinterpret_cast<const uint8_t*>(message.data()), message.size()))
                .ToHex(),
            "e48411262715c8370cd5e7bf8e82bef53bd53712d007f3429351843b77c7bb9b");
}

// RFC 2104 spelled out over Sha256, with no midstates: the reference the
// keyed form must match byte for byte.
Digest ReferenceHmac(std::span<const uint8_t> key, std::span<const uint8_t> message) {
  uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Digest hashed = Sha256::Hash(key);
    std::copy(hashed.bytes.begin(), hashed.bytes.end(), key_block);
  } else {
    std::copy(key.begin(), key.end(), key_block);
  }
  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(std::span<const uint8_t>(ipad));
  inner.Update(message);
  const Digest inner_digest = inner.Finalize();
  Sha256 outer;
  outer.Update(std::span<const uint8_t>(opad));
  outer.Update(inner_digest.bytes);
  return outer.Finalize();
}

// Key lengths cover empty, short, one pad block exactly and past it (hashed
// first); message lengths cover the one- and two-block padding edges and the
// 83-byte session ack. One key object serves every message, so a Mac() that
// disturbed the stored midstates would show on the second message.
TEST(HmacTest, KeyedMidstatesMatchRfc2104) {
  for (const size_t key_len : {0, 8, 32, 64, 65, 131}) {
    std::vector<uint8_t> key(key_len);
    for (size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<uint8_t>(0x5a + 3 * i);
    }
    const HmacSha256Key keyed(key);
    for (const size_t message_len : {0, 55, 56, 64, 83, 200}) {
      std::vector<uint8_t> message(message_len);
      for (size_t i = 0; i < message_len; ++i) {
        message[i] = static_cast<uint8_t>(0xc3 ^ (7 * i));
      }
      const Digest expected = ReferenceHmac(key, message);
      EXPECT_EQ(keyed.Mac(message), expected) << key_len << "/" << message_len;
      EXPECT_EQ(HmacSha256(key, message), expected) << key_len << "/" << message_len;
    }
  }
  EXPECT_EQ(HmacSha256Key().Mac({}), ReferenceHmac({}, {}));
}

}  // namespace
}  // namespace tyche
