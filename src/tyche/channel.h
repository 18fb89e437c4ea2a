// Copyright 2026 The Tyche Reproduction Authors.
// Attested shared-memory channels: the "secured communication channels"
// enclaves build from exclusively-owned shared pages (§4.2). A channel is a
// single-producer ring buffer in a memory region shared between exactly two
// domains; VerifyPrivate() checks the attested property (reference count 2).

#ifndef SRC_TYCHE_CHANNEL_H_
#define SRC_TYCHE_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/monitor/migration.h"
#include "src/monitor/monitor.h"

namespace tyche {

class Channel {
 public:
  // Lays a ring buffer over `region`. The region must be RW for both
  // endpoints and at least 3 pages (head, tail, data). Construction zeroes
  // the control words through `core` (so the caller must currently have
  // write access).
  static Result<Channel> Create(Monitor* monitor, CoreId core, AddrRange region);

  // Sends one message (length-prefixed). Fails when the ring is full.
  Status Send(CoreId core, std::span<const uint8_t> message);

  // Receives one message; kNotFound when the ring is empty.
  Result<std::vector<uint8_t>> Recv(CoreId core);

  // Judiciary check: the channel region is visible to exactly `expected`
  // domains (2 for a private pair).
  bool VerifyRefCount(uint32_t expected) const {
    return monitor_->engine().MemoryRefCount(region_) == expected;
  }

  const AddrRange& region() const { return region_; }
  uint64_t capacity() const { return data_size_; }

 private:
  Channel(Monitor* monitor, AddrRange region)
      : monitor_(monitor),
        region_(region),
        head_addr_(region.base),
        tail_addr_(region.base + 8),
        data_base_(region.base + kPageSize),
        data_size_(region.size - kPageSize) {}

  Monitor* monitor_ = nullptr;
  AddrRange region_;
  uint64_t head_addr_;  // read cursor (bytes consumed)
  uint64_t tail_addr_;  // write cursor (bytes produced)
  uint64_t data_base_;
  uint64_t data_size_;
};

// The simulated byte-frame wire between two monitors during a live
// migration. With no fault plan armed it delivers every frame in order (so
// clean runs and fault-counting runs behave identically); under an armed plan
// the channel.* fault sites CONSUME their trigger to drop, duplicate, or
// delay one frame. Recv() returns kNotFound when no frame is pending.
// MigrateOver owns reliability -- frames carry sequence numbers and
// checksums, and missing frames are re-sent -- and its retry rounds are what
// make a migration survive these losses; that is the property the sweep
// asserts. A carrier over any other wire is a MigrationCarrier handed
// straight to MigrateDomain.
class LossyChannel {
 public:
  // Takes the frame and moves it into the receive queue; only an injected
  // duplicate is a copy.
  Status Send(std::vector<uint8_t> frame);
  Result<std::vector<uint8_t>> Recv();

  // Telemetry for tests: how often each loss mode actually fired.
  uint64_t dropped() const { return dropped_; }
  uint64_t duplicated() const { return duplicated_; }
  uint64_t reordered() const { return reordered_; }
  // Duplicates suppressed by the amplification bound.
  uint64_t dup_suppressed() const { return dup_suppressed_; }

  size_t pending() const { return queue_.size() + (stashed_ ? 1 : 0); }

  // Amplification bound: at most this many injected duplicates may sit in
  // the receive queue at once. Without it a repeating `channel.dup` plan
  // grows the queue by one extra frame per Send() forever — the receiver
  // pays unbounded memory and drain work for a storm it never asked for.
  // With the bound, pending() <= frames sent (and not dropped) + this cap.
  void set_max_pending_duplicates(uint64_t cap) { max_pending_duplicates_ = cap; }
  uint64_t max_pending_duplicates() const { return max_pending_duplicates_; }

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    bool duplicate = false;  // injected copy, counted against the dup bound
  };

  void Enqueue(std::vector<uint8_t> frame, bool duplicate);

  std::deque<Frame> queue_;
  // A reordered frame waits here and is delivered AFTER the next frame that
  // passes through (a one-slot delay line). If no later Send() flushes it,
  // the next retry round's re-send does — delivery is delayed, never lost.
  std::optional<std::vector<uint8_t>> stashed_;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t reordered_ = 0;
  uint64_t dup_suppressed_ = 0;
  uint64_t pending_duplicates_ = 0;
  uint64_t max_pending_duplicates_ = 8;
};

// What MigrateOver adds to the monitor's report: the transfer counters.
struct MigrationTransferReport {
  MigrationReport migration;  // the monitor's own report
  uint64_t frames_sent = 0;   // includes re-sends
  uint64_t retries = 0;       // transfer rounds beyond the first
  // Total jittered backoff charged to the source machine across retry
  // rounds, in sim cycles. Exposed so tests can assert the schedule is
  // jittered (two payloads => different totals) yet reproducible (same
  // payload => same total).
  uint64_t backoff_cycles = 0;
};

// MigrateDomain (src/monitor/migration.h) with `channel` as its carrier:
// the payload is chunked into checksummed, sequence-numbered frames and sent
// in send-and-drain rounds, each later round re-sending only the frames that
// never arrived, for up to 8 rounds. The monitor verifies what arrives, so
// nothing here is trusted. Every round passes the migrate.transfer fault
// point before it sends.
Result<MigrationTransferReport> MigrateOver(Monitor* source, Monitor* dest, DomainId domain,
                                            LossyChannel* channel,
                                            const SchnorrPublicKey& source_key);

}  // namespace tyche

#endif  // SRC_TYCHE_CHANNEL_H_
