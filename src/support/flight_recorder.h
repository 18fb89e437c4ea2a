// Copyright 2026 The Tyche Reproduction Authors.
// Post-mortem flight recorder (DESIGN.md §6 "Metrics & export").
//
// When something goes wrong at the dispatch boundary -- a typed error
// surfaces to the caller, a fault-injection site fires, or the monitor
// comes back through Recover() -- the interesting state is what happened
// JUST BEFORE: the last few trace entries and how the counters moved since
// the previous incident. The flight recorder captures exactly that into a
// fixed ring of records, atomically under one mutex. It keeps values, not
// text: a counter delta is the counter's index in the borrowed array, and
// libtyche's ExportFlightJson (src/tyche/observe.h) names the indices and
// renders the records as JSON for bug reports and CI artifacts.
//
// Hot-path discipline: dispatch errors are routine (an empty interrupt
// queue returns kNotFound thousands of times per second in the benches), so
// OnDispatchError() deduplicates by (op, error): the FIRST occurrence of
// each distinct failure is captured, repeats cost two relaxed loads, a
// multiply and a compare. Fault-site and recovery captures are rare and
// always recorded.

#ifndef SRC_SUPPORT_FLIGHT_RECORDER_H_
#define SRC_SUPPORT_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/support/metrics.h"
#include "src/support/telemetry.h"

namespace tyche {

// How far one borrowed counter moved between two captures.
struct CounterDelta {
  uint32_t index = 0;  // position in the recorder's counter array
  int64_t delta = 0;
};

struct FlightRecord {
  uint64_t id = 0;            // capture sequence number, from 0
  std::string reason;         // "dispatch_error" | "fault_site" | "recovery"
  uint16_t op = 0;            // ApiOp at the boundary (~0 when not a dispatch)
  uint64_t span = 0;          // causal span of the failing call (0 = none)
  uint64_t error = 0;         // ErrorCode surfaced (0 for recovery captures)
  std::string detail;         // fault site name, recovery summary, ...
  std::vector<TraceEntry> trace;  // last-N ring entries at capture, oldest first
  // Counters that CHANGED since the previous capture (or since the recorder
  // was created, cleared or re-based), in index order.
  std::vector<CounterDelta> metrics_delta;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 16;  // post-mortem records kept
  static constexpr size_t kDefaultLastN = 64;     // trace entries per record

  // Both sources are borrowed and must outlive the recorder. The ring may be
  // null and the counter array empty (captures then omit that section).
  FlightRecorder(const TraceRing* ring, std::span<const StripedCounter> counters,
                 size_t capacity = kDefaultCapacity, size_t last_n = kDefaultLastN);

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Dispatch-error trigger: captures the first occurrence of each distinct
  // (op, error) pair since the last Clear(). Returns true if a record was
  // captured. Safe and cheap to call on every failing dispatch.
  bool OnDispatchError(uint16_t op, uint64_t span, uint64_t error);

  // Unconditional capture for rare triggers (fault-injection hit, recovery).
  void Capture(const std::string& reason, uint16_t op, uint64_t span, uint64_t error,
               const std::string& detail);

  // Oldest-first copy of the retained records.
  std::vector<FlightRecord> Snapshot() const;
  size_t size() const;
  uint64_t captures() const { return captures_.load(std::memory_order_relaxed); }

  // Drops all records and resets the dispatch-error dedup filter.
  void Clear();

  // Takes the counters' current values as the baseline for the next
  // capture's deltas. Whoever resets the counters calls this, so a delta
  // never spans the reset.
  void Rebase();

 private:
  void CaptureLocked(const std::string& reason, uint16_t op, uint64_t span,
                     uint64_t error, const std::string& detail);

  const TraceRing* ring_;
  const std::span<const StripedCounter> counters_;
  const size_t capacity_;
  const size_t last_n_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> captures_{0};

  // Dedup filter: slot = top bits of a multiplicative hash of the (op,
  // error) key, holding the key (never 0, which marks an empty slot).
  // Collisions only mean an extra capture -- correctness is unaffected.
  static constexpr size_t kDedupSlots = 256;
  std::array<std::atomic<uint64_t>, kDedupSlots> seen_{};

  mutable std::mutex mu_;
  std::deque<FlightRecord> records_;
  // Baseline for deltas, one value per borrowed counter.
  std::vector<uint64_t> last_values_;
};

}  // namespace tyche

#endif  // SRC_SUPPORT_FLIGHT_RECORDER_H_
