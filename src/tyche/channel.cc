// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/channel.h"

#include <algorithm>
#include <map>

#include "src/crypto/encode.h"
#include "src/hw/cost_model.h"
#include "src/support/backoff.h"
#include "src/support/fault_hook.h"
#include "src/support/snapshot.h"

namespace tyche {
namespace {

// Payload bytes per frame. Small enough that a multi-page domain spans many
// frames (so drop/reorder faults have structure to break), large enough that
// the bench can sweep footprint without frame-count noise.
constexpr uint64_t kChunkSize = 4096;
// Send-and-drain rounds before the transfer gives up. Round 1 sends
// everything; each later round re-sends only the frames that never arrived,
// so a single dropped frame costs one retry, not a full resend.
constexpr uint32_t kMaxAttempts = 8;

constexpr uint32_t kFrameMagic = 0x464D5954;  // "TYMF"

// magic | seq | total | length | payload bytes | checksum64. The checksum is
// the SHA-256 prefix of the chunk, so a frame corrupted in flight is simply
// treated as lost and re-sent.
std::vector<uint8_t> EncodeFrame(std::span<const uint8_t> payload, uint32_t seq,
                                 uint32_t total) {
  const uint64_t offset = static_cast<uint64_t>(seq) * kChunkSize;
  const uint64_t length = std::min<uint64_t>(kChunkSize, payload.size() - offset);
  const std::span<const uint8_t> body = payload.subspan(offset, length);
  std::vector<uint8_t> frame(4 * sizeof(uint32_t) + length + sizeof(uint64_t));
  uint8_t* at = Put(Put(frame.data(), kFrameMagic), seq);
  at = Put(Put(at, total), static_cast<uint32_t>(length));
  at = std::copy(body.begin(), body.end(), at);
  Put(at, Sha256::Hash(body).Prefix64());
  return frame;
}

struct DecodedFrame {
  uint32_t seq = 0;
  uint32_t total = 0;
  std::vector<uint8_t> bytes;
};

bool DecodeFrame(std::span<const uint8_t> frame, DecodedFrame* out) {
  SectionReader r(frame);
  uint32_t magic = 0;
  uint32_t length = 0;
  if (!r.Read(&magic) || magic != kFrameMagic || !r.Read(&out->seq) ||
      !r.Read(&out->total) || !r.Read(&length)) {
    return false;
  }
  if (r.remaining() != static_cast<size_t>(length) + sizeof(uint64_t)) {
    return false;
  }
  const std::span<const uint8_t> body = frame.subspan(frame.size() - length - 8, length);
  out->bytes.assign(body.begin(), body.end());
  uint64_t checksum = 0;
  SectionReader tail(frame.subspan(frame.size() - 8));
  return tail.Read(&checksum) && checksum == Sha256::Hash(body).Prefix64();
}

// The send-and-drain rounds: returns the reassembled payload, charging each
// retry round's backoff to `machine`.
Result<std::vector<uint8_t>> Transfer(Machine* machine, LossyChannel* channel,
                                      std::span<const uint8_t> payload,
                                      const Digest& payload_digest,
                                      MigrationTransferReport* report) {
  const uint32_t total = static_cast<uint32_t>((payload.size() + kChunkSize - 1) / kChunkSize);
  std::map<uint32_t, std::vector<uint8_t>> received;
  // Jittered exponential backoff between retry rounds. The seed is a
  // per-migration value (payload digest prefix) so two migrations that
  // failed against the same congested channel at the same instant do NOT
  // re-send in lockstep every round, and one payload replays one schedule.
  Prng backoff_prng(payload_digest.Prefix64() ^ 0x6261636b6f6666ULL);
  const BackoffPolicy backoff{/*base=*/CostModel::Default().vmcall_round_trip,
                              /*cap=*/CostModel::Default().vmcall_round_trip
                                  << 10};
  for (uint32_t round = 0; received.size() < total; ++round) {
    if (round >= kMaxAttempts) {
      return Error(ErrorCode::kResourceExhausted, "migration transfer retries exhausted");
    }
    if (round > 0) {
      ++report->retries;
      const uint64_t wait = JitteredBackoff(backoff_prng, backoff, round);
      report->backoff_cycles += wait;
      machine->cycles().Charge(wait);
    }
    TYCHE_FAULT_POINT(faults::kMigrateTransfer);
    for (uint32_t seq = 0; seq < total; ++seq) {
      if (received.contains(seq)) {
        continue;
      }
      TYCHE_RETURN_IF_ERROR(channel->Send(EncodeFrame(payload, seq, total)));
      ++report->frames_sent;
    }
    while (true) {
      auto frame = channel->Recv();
      if (!frame.ok()) {
        if (frame.status().code() == ErrorCode::kNotFound) {
          break;  // channel drained; missing frames go to the next round
        }
        return frame.status();
      }
      DecodedFrame decoded;
      if (!DecodeFrame(*frame, &decoded) || decoded.total != total ||
          decoded.seq >= total) {
        continue;  // corrupt or alien frame: treated as lost
      }
      received.emplace(decoded.seq, std::move(decoded.bytes));  // dedupes
    }
  }
  std::vector<uint8_t> out;
  out.reserve(payload.size());
  for (uint32_t seq = 0; seq < total; ++seq) {
    const std::vector<uint8_t>& piece = received.at(seq);
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

}  // namespace

Result<Channel> Channel::Create(Monitor* monitor, CoreId core, AddrRange region) {
  if (!IsPageAligned(region.base) || !IsPageAligned(region.size) ||
      region.size < 2 * kPageSize) {
    return Error(ErrorCode::kInvalidArgument, "channel region must be >= 2 aligned pages");
  }
  Channel channel(monitor, region);
  Machine* machine = monitor->machine();
  TYCHE_RETURN_IF_ERROR(machine->CheckedWrite64(core, channel.head_addr_, 0));
  TYCHE_RETURN_IF_ERROR(machine->CheckedWrite64(core, channel.tail_addr_, 0));
  return channel;
}

Status Channel::Send(CoreId core, std::span<const uint8_t> message) {
  Machine* machine = monitor_->machine();
  TYCHE_ASSIGN_OR_RETURN(const uint64_t head, machine->CheckedRead64(core, head_addr_));
  TYCHE_ASSIGN_OR_RETURN(const uint64_t tail, machine->CheckedRead64(core, tail_addr_));
  const uint64_t needed = 8 + message.size();
  if (tail - head + needed > data_size_) {
    return Error(ErrorCode::kResourceExhausted, "channel full");
  }
  // Length prefix, then payload, both byte-wise modulo the ring size.
  uint64_t cursor = tail;
  uint64_t length = message.size();
  for (int i = 0; i < 8; ++i) {
    const uint8_t byte = static_cast<uint8_t>(length >> (8 * i));
    TYCHE_RETURN_IF_ERROR(machine->CheckedWrite(
        core, data_base_ + (cursor % data_size_), std::span<const uint8_t>(&byte, 1)));
    ++cursor;
  }
  for (const uint8_t byte : message) {
    TYCHE_RETURN_IF_ERROR(machine->CheckedWrite(
        core, data_base_ + (cursor % data_size_), std::span<const uint8_t>(&byte, 1)));
    ++cursor;
  }
  return machine->CheckedWrite64(core, tail_addr_, cursor);
}

Result<std::vector<uint8_t>> Channel::Recv(CoreId core) {
  Machine* machine = monitor_->machine();
  TYCHE_ASSIGN_OR_RETURN(const uint64_t head, machine->CheckedRead64(core, head_addr_));
  TYCHE_ASSIGN_OR_RETURN(const uint64_t tail, machine->CheckedRead64(core, tail_addr_));
  if (head == tail) {
    return Error(ErrorCode::kNotFound, "channel empty");
  }
  uint64_t cursor = head;
  uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    uint8_t byte = 0;
    TYCHE_RETURN_IF_ERROR(machine->CheckedRead(core, data_base_ + (cursor % data_size_),
                                               std::span<uint8_t>(&byte, 1)));
    length |= static_cast<uint64_t>(byte) << (8 * i);
    ++cursor;
  }
  if (length > data_size_) {
    return Error(ErrorCode::kInternal, "corrupt channel length");
  }
  std::vector<uint8_t> message(length);
  for (uint64_t i = 0; i < length; ++i) {
    TYCHE_RETURN_IF_ERROR(machine->CheckedRead(core, data_base_ + (cursor % data_size_),
                                               std::span<uint8_t>(&message[i], 1)));
    ++cursor;
  }
  TYCHE_RETURN_IF_ERROR(machine->CheckedWrite64(core, head_addr_, cursor));
  return message;
}

void LossyChannel::Enqueue(std::vector<uint8_t> frame, bool duplicate) {
  queue_.push_back(Frame{std::move(frame), duplicate});
}

Status LossyChannel::Send(std::vector<uint8_t> frame) {
  // Each site CONSUMES its trigger: a firing site is the signal that the loss
  // mode applies to THIS frame; nothing propagates to the caller.
  if (FaultFires(faults::kChannelDrop)) {
    ++dropped_;
    return OkStatus();  // frame lost in flight
  }
  if (FaultFires(faults::kChannelDup)) {
    // Bounded amplification: a dup-storm plan (repeat=true) may fire on
    // every Send(), but only max_pending_duplicates_ injected copies may
    // be queued at once; the rest are counted and discarded.
    if (pending_duplicates_ < max_pending_duplicates_) {
      Enqueue(frame, /*duplicate=*/true);
      ++pending_duplicates_;
      ++duplicated_;
    } else {
      ++dup_suppressed_;
    }
  }
  if (FaultFires(faults::kChannelReorder)) {
    if (stashed_) {
      // The delay line is single-slot; release the earlier straggler.
      Enqueue(std::move(*stashed_), /*duplicate=*/false);
    }
    stashed_ = std::move(frame);
    ++reordered_;
    return OkStatus();
  }
  Enqueue(std::move(frame), /*duplicate=*/false);
  if (stashed_) {
    Enqueue(std::move(*stashed_), /*duplicate=*/false);
    stashed_.reset();
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> LossyChannel::Recv() {
  if (queue_.empty()) {
    return Error(ErrorCode::kNotFound, "no frame pending");
  }
  Frame entry = std::move(queue_.front());
  queue_.pop_front();
  if (entry.duplicate) {
    --pending_duplicates_;
  }
  return std::move(entry.bytes);
}

Result<MigrationTransferReport> MigrateOver(Monitor* source, Monitor* dest, DomainId domain,
                                            LossyChannel* channel,
                                            const SchnorrPublicKey& source_key) {
  MigrationTransferReport report;
  const auto carrier = [&](std::span<const uint8_t> payload, const Digest& payload_digest) {
    return Transfer(source->machine(), channel, payload, payload_digest, &report);
  };
  TYCHE_ASSIGN_OR_RETURN(report.migration,
                         MigrateDomain(source, dest, domain, carrier, source_key));
  return report;
}

}  // namespace tyche
