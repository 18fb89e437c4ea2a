// Copyright 2026 The Tyche Reproduction Authors.

#include "src/hw/tpm.h"

namespace tyche {

Tpm::Tpm(std::span<const uint8_t> endorsement_seed, CycleAccount* cycles)
    : pcrs_(kNumPcrs), key_(DeriveKeyPair(endorsement_seed)), cycles_(cycles) {}

Status Tpm::Extend(uint32_t pcr_index, const Digest& digest, std::string description) {
  if (pcr_index >= kNumPcrs) {
    return Error(ErrorCode::kOutOfRange, "PCR index out of range");
  }
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(pcrs_[pcr_index].bytes.data(),
                                      pcrs_[pcr_index].bytes.size()));
  ctx.Update(std::span<const uint8_t>(digest.bytes.data(), digest.bytes.size()));
  pcrs_[pcr_index] = ctx.Finalize();
  events_.push_back(TpmEvent{pcr_index, digest, std::move(description)});
  if (cycles_ != nullptr) {
    cycles_->Charge(CostModel::Default().tpm_extend);
  }
  return OkStatus();
}

void Tpm::Reset() {
  pcrs_.assign(kNumPcrs, Digest{});
  events_.clear();
}

Result<Digest> Tpm::ReadPcr(uint32_t pcr_index) const {
  if (pcr_index >= kNumPcrs) {
    return Error(ErrorCode::kOutOfRange, "PCR index out of range");
  }
  return pcrs_[pcr_index];
}

Digest Tpm::QuoteDigest(uint64_t nonce, uint32_t pcr_mask,
                        const std::vector<Digest>& pcr_values) {
  Sha256 ctx;
  ctx.Update(std::string_view("tpm-quote-v1"));
  ctx.UpdateValue(nonce);
  ctx.UpdateValue(pcr_mask);
  for (const Digest& value : pcr_values) {
    ctx.Update(std::span<const uint8_t>(value.bytes.data(), value.bytes.size()));
  }
  return ctx.Finalize();
}

Result<TpmQuote> Tpm::Quote(uint64_t nonce, uint32_t pcr_mask) const {
  TpmQuote quote;
  quote.nonce = nonce;
  quote.pcr_mask = pcr_mask;
  for (uint32_t i = 0; i < kNumPcrs; ++i) {
    if ((pcr_mask & (1u << i)) != 0) {
      quote.pcr_values.push_back(pcrs_[i]);
    }
  }
  quote.quote_digest = QuoteDigest(nonce, pcr_mask, quote.pcr_values);
  quote.signature = SchnorrSign(key_, quote.quote_digest);
  if (cycles_ != nullptr) {
    cycles_->Charge(CostModel::Default().tpm_quote);
  }
  return quote;
}

bool Tpm::VerifyQuote(const TpmQuote& quote, const SchnorrPublicKey& key) {
  const Digest expected = QuoteDigest(quote.nonce, quote.pcr_mask, quote.pcr_values);
  if (expected != quote.quote_digest) {
    return false;
  }
  return SchnorrVerify(key, quote.quote_digest, quote.signature);
}

}  // namespace tyche
