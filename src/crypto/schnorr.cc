// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/schnorr.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/encode.h"

namespace tyche {

namespace {

// Batches up to this many items verify without touching the heap; larger
// ones spill their scratch arrays to it.
constexpr size_t kBatchInline = 16;

// Stack storage for up to N elements, heap beyond.
template <typename T, size_t N>
class InlineBuffer {
 public:
  explicit InlineBuffer(size_t n) {
    if (n > N) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  InlineBuffer(const InlineBuffer&) = delete;
  InlineBuffer& operator=(const InlineBuffer&) = delete;

  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  T inline_[N];
  std::vector<T> heap_;
  T* data_ = inline_;
};

// Reduces a digest to an exponent modulo m (uses the first 8 bytes, which is
// plenty of entropy relative to the 62-bit toy group).
uint64_t DigestToScalar(const Digest& digest, uint64_t m) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | digest.bytes[i];
  }
  const uint64_t scalar = v % m;
  return scalar == 0 ? 1 : scalar;
}

Digest ChallengeHash(uint64_t r, const SchnorrPublicKey& pub, const Digest& message_digest) {
  // One contiguous 55-byte buffer: a 7-byte domain tag + r + y + digest.
  // 55 bytes is the most a single SHA-256 block can carry after padding, so
  // the challenge costs exactly one compression — this hash runs once per
  // signature on BOTH the signing and (batched or not) verification paths,
  // and it is the floor under the batch-vs-serial throughput ratio.
  uint8_t buf[55];
  std::memcpy(buf, "tySchn2", 7);
  std::memcpy(buf + 7, &r, 8);
  std::memcpy(buf + 15, &pub.y, 8);
  std::memcpy(buf + 23, message_digest.bytes.data(), 32);
  return Sha256::Hash(std::span<const uint8_t>(buf, sizeof(buf)));
}

}  // namespace

const SchnorrParams& SchnorrParams::Default() {
  // Safe prime p = 2q + 1 just below 2^62; g = 2^2 generates the order-q
  // subgroup of quadratic residues.
  static const SchnorrParams params{
      .p = 0x3fffffffffffd6bbULL,
      .q = 0x1fffffffffffeb5dULL,
      .g = 4,
  };
  return params;
}

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

namespace {

// Montgomery arithmetic (R = 2^64) modulo the group modulus p. MulMod
// reduces with a hardware divide, the one unpipelined unit on an
// exponentiation's critical path; a Montgomery multiply replaces it with
// three pipelined multiplies. It needs an odd m in (1, 2^63), so the reduced
// sum stays below 2m <= 2^64; p (just below 2^62) is the only modulus that
// takes it, and every other modulus takes the generic MulMod path.
struct Montgomery {
  explicit Montgomery(uint64_t modulus) : m(modulus) {
    uint64_t inv = m;  // m * inv == 1 (mod 8); each Newton step doubles the bits.
    for (int i = 0; i < 5; ++i) {
      inv *= 2 - m * inv;
    }
    neg_inv = ~inv + 1;
    one = ~0ull % m + 1;  // 2^64 mod m (< m, since m is odd and > 1)
    r2 = static_cast<uint64_t>(static_cast<unsigned __int128>(one) * one % m);
  }

  // a * b / R mod m, for a, b < m.
  uint64_t Mul(uint64_t a, uint64_t b) const {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    const uint64_t lo = static_cast<uint64_t>(t);
    const uint64_t u = lo * neg_inv;
    const uint64_t um_hi = static_cast<uint64_t>((static_cast<unsigned __int128>(u) * m) >> 64);
    // low(t) + low(u*m) == 0 mod 2^64 by construction of u, so the carry out
    // of the low half is exactly (lo != 0).
    const uint64_t r = static_cast<uint64_t>(t >> 64) + um_hi + (lo != 0);
    return r >= m ? r - m : r;
  }

  uint64_t m;
  uint64_t neg_inv;
  uint64_t one;  // R mod m: 1 in the Montgomery domain
  uint64_t r2;   // R^2 mod m: converts into the domain
};

// The group modulus p is every signature's modulus: build its context once.
const Montgomery& GroupMontgomery() {
  static const Montgomery mont(SchnorrParams::Default().p);
  return mont;
}

// Fixed-base table for g (HAC §14.6.3, one exponent byte per row): row i
// holds g^(j * 2^(8i)) for j in [0, 256), in the Montgomery domain, so g^e
// is one entry per byte of e multiplied together. 8 x 256 entries, 16 KiB.
struct GeneratorTable {
  uint64_t rows[8][256];
};

const GeneratorTable& GroupGeneratorTable() {
  static const GeneratorTable table = [] {
    const Montgomery& mont = GroupMontgomery();
    GeneratorTable t;
    uint64_t step = mont.Mul(SchnorrParams::Default().g, mont.r2);  // g^(2^(8i))
    for (uint64_t* row : t.rows) {
      row[0] = mont.one;
      for (int j = 1; j < 256; ++j) {
        row[j] = mont.Mul(row[j - 1], step);
      }
      step = mont.Mul(row[255], step);
    }
    return t;
  }();
  return table;
}

}  // namespace

uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m) {
  return MultiExpMod(std::span<const uint64_t>(&base, 1), std::span<const uint64_t>(&exp, 1),
                     m);
}

uint64_t PowG(uint64_t exp) {
  const Montgomery& mont = GroupMontgomery();
  const GeneratorTable& table = GroupGeneratorTable();
  // Two independent product chains halve the multiply latency on the path.
  uint64_t acc[2] = {table.rows[0][exp & 0xff], table.rows[1][(exp >> 8) & 0xff]};
  for (int i = 2; i < 8; ++i) {
    acc[i & 1] = mont.Mul(acc[i & 1], table.rows[i][(exp >> (8 * i)) & 0xff]);
  }
  return mont.Mul(mont.Mul(acc[0], acc[1]), 1);  // leave the domain
}

SchnorrKeyPair DeriveKeyPair(std::span<const uint8_t> seed) {
  const SchnorrParams& params = SchnorrParams::Default();
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-keyderive-v1"));
  ctx.Update(seed);
  const Digest d = ctx.Finalize();

  SchnorrKeyPair pair;
  pair.priv.x = DigestToScalar(d, params.q);
  pair.pub.y = PowG(pair.priv.x);
  uint8_t key_bytes[8];
  Put(key_bytes, pair.priv.x);
  pair.nonce_key = HmacSha256Key(key_bytes);
  return pair;
}

SchnorrSignature SchnorrSign(const SchnorrKeyPair& key, const Digest& message_digest) {
  const SchnorrParams& params = SchnorrParams::Default();

  // Deterministic nonce: k = HMAC(x, digest) reduced mod q (RFC 6979 spirit).
  const uint64_t k = DigestToScalar(key.nonce_key.Mac(message_digest.bytes), params.q);

  const uint64_t r = PowG(k);
  const Digest e = ChallengeHash(r, key.pub, message_digest);
  const uint64_t e_scalar = DigestToScalar(e, params.q);

  SchnorrSignature sig;
  // s = k + x * e mod q
  sig.s = (k + MulMod(key.priv.x, e_scalar, params.q)) % params.q;
  sig.e = e;
  sig.r = r;
  return sig;
}

bool SchnorrVerify(const SchnorrPublicKey& pub, const Digest& message_digest,
                   const SchnorrSignature& sig) {
  const SchnorrParams& params = SchnorrParams::Default();
  if (sig.s >= params.q || pub.y == 0 || pub.y >= params.p) {
    return false;
  }
  const uint64_t e_scalar = DigestToScalar(sig.e, params.q);
  // r' = g^s * y^{-e} = g^s * y^{q - e} mod p (y has order q), as one
  // two-base exponentiation sharing its squarings (Shamir's trick).
  const uint64_t bases[] = {params.g, pub.y};
  const uint64_t exps[] = {sig.s, params.q - e_scalar};
  const uint64_t r = MultiExpMod(bases, exps, params.p);
  // A carried commitment (r != 0) must be the one the equation reproduces;
  // otherwise the triple is inconsistent and batch/single verdicts would
  // disagree about the same bytes.
  if (sig.r != 0 && sig.r != r) {
    return false;
  }
  return ChallengeHash(r, pub, message_digest) == sig.e;
}

bool SchnorrVerify(const SchnorrPublicKey& pub, std::span<const uint8_t> message,
                   const SchnorrSignature& sig) {
  return SchnorrVerify(pub, Sha256::Hash(message), sig);
}

uint64_t MultiExpMod(std::span<const uint64_t> bases, std::span<const uint64_t> exps,
                     uint64_t m) {
  uint64_t max_exp = 0;
  for (uint64_t e : exps) {
    max_exp |= e;
  }
  if (max_exp == 0) {
    return 1 % m;
  }
  // Two structural facts shape this loop. First, a batch mixes a few
  // full-width exponents (g, the public keys) with many short random
  // combiners on the commitments, so bases are ordered by the top bit of
  // their exponent and only the prefix "live" at the current bit is
  // scanned. Second, exponent bits are uniformly random, so per-base
  // "multiply if the bit is set" branches mispredict half the time; instead
  // bases are processed in Shamir pairs through a 4-entry product table
  // indexed by the two current bits, multiplied in unconditionally
  // (table[0] == 1). One shared square per bit position covers every base.
  auto top_bit = [](uint64_t e) { return e == 0 ? -1 : 63 - __builtin_clzll(e); };

  // The group modulus multiplies in the Montgomery domain; every other
  // modulus takes MulMod.
  const Montgomery* mont = m == SchnorrParams::Default().p ? &GroupMontgomery() : nullptr;
  const uint64_t mont_one = mont != nullptr ? mont->one : 1 % m;
  auto mul = [&](uint64_t a, uint64_t b) {
    return mont != nullptr ? mont->Mul(a, b) : MulMod(a, b, m);
  };
  auto to_mont = [&](uint64_t x) { return mont != nullptr ? mont->Mul(x % m, mont->r2) : x % m; };

  // A batch of kBatchInline items with distinct keys has 2 * kBatchInline + 1
  // bases: g, one per key and one per commitment.
  constexpr size_t kInline = 2 * kBatchInline + 1;
  const size_t n = bases.size();
  InlineBuffer<size_t, kInline> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.data(), order.data() + n, [&](size_t a, size_t b) {
    return top_bit(exps[a]) > top_bit(exps[b]);
  });

  // Each pair digests TWO exponent bits per step through a 16-entry table
  // (b0^i * b1^j for i, j in 0..3). The serial result chain — the latency
  // bottleneck, since every modmul depends on the previous one — shrinks to
  // 2 squarings + 1 multiply per pair per 2 bits; the table fill is
  // independent work the CPU pipelines behind it.
  struct ShamirPair {
    uint64_t table[16];
    uint64_t e0, e1;
    int top;
  };
  const size_t num_pairs = (n + 1) / 2;
  InlineBuffer<ShamirPair, kInline / 2 + 1> pairs(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    const uint64_t b0 = to_mont(bases[order[2 * p]]);
    const uint64_t e0 = exps[order[2 * p]];
    const bool has_second = 2 * p + 1 < n;
    const uint64_t b1 = has_second ? to_mont(bases[order[2 * p + 1]]) : mont_one;
    const uint64_t e1 = has_second ? exps[order[2 * p + 1]] : 0;
    ShamirPair& pair = pairs[p];
    pair.e0 = e0;
    pair.e1 = e1;
    pair.top = top_bit(e0 | e1);
    uint64_t pow0[4] = {mont_one, b0, mul(b0, b0), 0};
    pow0[3] = mul(pow0[2], b0);
    uint64_t pow1[4] = {mont_one, b1, mul(b1, b1), 0};
    pow1[3] = mul(pow1[2], b1);
    // A lone base (PowMod) only ever indexes the j == 0 row.
    for (int j = 0; j < (has_second ? 4 : 1); ++j) {
      for (int i = 0; i < 4; ++i) {
        pair.table[i | (j << 2)] =
            j == 0 ? pow0[i] : (i == 0 ? pow1[j] : mul(pow0[i], pow1[j]));
      }
    }
  }

  // Two accumulators, pairs assigned round-robin: the per-step squarings of
  // one chain are independent of the other's, so out-of-order execution
  // overlaps what would otherwise be one long serial modmul dependency. An
  // accumulator only starts squaring once a pair assigned to it is live
  // (squaring an empty accumulator would be wasted divider work — the short
  // combiner exponents sit idle for half the walk).
  uint64_t acc[2] = {mont_one, mont_one};
  int acc_top[2] = {-1, -1};
  for (size_t p = 0; p < num_pairs; ++p) {
    acc_top[p & 1] = std::max(acc_top[p & 1], pairs[p].top);
  }
  size_t active = 0;
  int bit = top_bit(max_exp) | 1;  // odd start so steps cover [bit, bit-1]
  for (; bit >= 1; bit -= 2) {
    for (int a = 0; a < 2; ++a) {
      if (acc_top[a] >= bit - 1) {
        acc[a] = mul(acc[a], acc[a]);
        acc[a] = mul(acc[a], acc[a]);
      }
    }
    while (active < num_pairs && pairs[active].top >= bit - 1) {
      ++active;
    }
    for (size_t p = 0; p < active; ++p) {
      const size_t idx = ((pairs[p].e0 >> (bit - 1)) & 3) |
                         (((pairs[p].e1 >> (bit - 1)) & 3) << 2);
      acc[p & 1] = mul(acc[p & 1], pairs[p].table[idx]);
    }
  }
  const uint64_t combined = mul(acc[0], acc[1]);
  return mont != nullptr ? mont->Mul(combined, 1) : combined;  // leave the domain
}

namespace {

// Per-signature fallback: the authoritative verdicts when the fast path
// cannot vouch for the whole batch at once.
SchnorrBatchOutcome BatchFallback(std::span<const SchnorrBatchItem> items) {
  SchnorrBatchOutcome out;
  out.used_fallback = true;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!SchnorrVerify(items[i].pub, items[i].message_digest, items[i].sig)) {
      out.all_valid = false;
      out.invalid.push_back(i);
    }
  }
  return out;
}

// Random combiners derived by hashing the entire batch, so no signer can
// choose a signature as a function of its own combiner. Writes one per item.
void BatchCombiners(std::span<const SchnorrBatchItem> items, uint64_t* combiners) {
  // Transcript = tag || (s, r, e[0:16]) per item, assembled contiguously so
  // the hash runs at block speed instead of through per-field Update
  // buffering. The public key and message digest are deliberately absent:
  // e = H(r, y, m) binds both, so committing to e commits to them
  // transitively, and 128 bits of e is far past the toy group's 62-bit
  // security level.
  InlineBuffer<uint8_t, 8 + 32 * kBatchInline> transcript(8 + 32 * items.size());
  uint8_t* at = std::copy_n("tyBatch2", 8, transcript.data());
  for (const SchnorrBatchItem& item : items) {
    std::memcpy(at, &item.sig.s, 8);
    std::memcpy(at + 8, &item.sig.r, 8);
    at = std::copy_n(item.sig.e.bytes.begin(), 16, at + 16);
  }
  const Digest seed = Sha256::Hash(std::span<const uint8_t>(transcript.data(), at));

  // Expand the transcript digest into per-item 32-bit combiners with a
  // splitmix-style permutation. The security requirement is only that no
  // signer can predict its combiner before the whole batch is fixed; that
  // comes from the transcript hash above, so the expansion itself need not
  // be a second round of SHA per item.
  uint64_t state = 0;
  for (int i = 0; i < 8; ++i) {
    state = (state << 8) | seed.bytes[i];
  }
  for (size_t i = 0; i < items.size(); ++i) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    const uint64_t z = x >> 32;
    combiners[i] = z == 0 ? 1 : z;
  }
}

}  // namespace

SchnorrBatchOutcome SchnorrBatchVerify(std::span<const SchnorrBatchItem> items) {
  const SchnorrParams& params = SchnorrParams::Default();
  if (items.empty()) {
    return SchnorrBatchOutcome{};
  }
  if (items.size() == 1) {
    SchnorrBatchOutcome out;
    if (!SchnorrVerify(items[0].pub, items[0].message_digest, items[0].sig)) {
      out.all_valid = false;
      out.invalid.push_back(0);
    }
    return out;
  }

  // Pre-checks: range bounds and the challenge binding e_i = H(r_i, y_i, m_i).
  // These are the cheap (hash-only) halves of single verification; any
  // failure means the combined group equation could not be trusted anyway,
  // so go straight to per-signature verdicts.
  for (const SchnorrBatchItem& item : items) {
    if (item.sig.s >= params.q || item.pub.y == 0 || item.pub.y >= params.p ||
        item.sig.r == 0 || item.sig.r >= params.p ||
        ChallengeHash(item.sig.r, item.pub, item.message_digest) != item.sig.e) {
      return BatchFallback(items);
    }
  }

  const size_t n = items.size();
  InlineBuffer<uint64_t, kBatchInline> z(n);
  BatchCombiners(items, z.data());

  // Combined equation, folded to a product-equals-one test:
  //   g^{q - sum z_i s_i} * prod_y y^{sum_{i: y_i=y} z_i e_i} * prod_i r_i^{z_i} == 1
  // Exponents on g and y may be reduced mod q because g (a system constant)
  // and any honest y, r lie in the order-q subgroup; an adversarial value
  // outside the subgroup merely fails this check and drops to the fallback.
  // Bases: g, then one per distinct key, then one per commitment.
  InlineBuffer<uint64_t, 2 * kBatchInline + 1> bases(2 * n + 1);
  InlineBuffer<uint64_t, 2 * kBatchInline + 1> exps(2 * n + 1);
  size_t count = 1;
  uint64_t s_acc = 0;
  bases[0] = params.g;
  for (size_t i = 0; i < n; ++i) {
    s_acc = (s_acc + MulMod(z[i], items[i].sig.s, params.q)) % params.q;
    const uint64_t e_scalar = DigestToScalar(items[i].sig.e, params.q);
    const uint64_t weighted_e = MulMod(z[i], e_scalar, params.q);
    // Same-key grouping: quotes from one monitor share y, so their challenge
    // exponents collapse onto a single base.
    size_t slot = 1;
    while (slot < count && bases[slot] != items[i].pub.y) {
      ++slot;
    }
    if (slot == count) {
      bases[count] = items[i].pub.y;
      exps[count++] = weighted_e;
    } else {
      exps[slot] = (exps[slot] + weighted_e) % params.q;
    }
  }
  exps[0] = (params.q - s_acc) % params.q;
  for (size_t i = 0; i < n; ++i) {
    bases[count] = items[i].sig.r;
    exps[count++] = z[i];
  }

  if (MultiExpMod(std::span<const uint64_t>(bases.data(), count),
                  std::span<const uint64_t>(exps.data(), count), params.p) == 1 % params.p) {
    return SchnorrBatchOutcome{};  // whole batch vouched for at once
  }
  return BatchFallback(items);
}

Digest DhSharedSecret(const SchnorrPrivateKey& mine, const SchnorrPublicKey& theirs) {
  const SchnorrParams& params = SchnorrParams::Default();
  const uint64_t shared = PowMod(theirs.y, mine.x, params.p);
  Sha256 kdf;
  kdf.Update(std::string_view("tyche-dh-kdf-v1"));
  kdf.UpdateValue(shared);
  return kdf.Finalize();
}

}  // namespace tyche
