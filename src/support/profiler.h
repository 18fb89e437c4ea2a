// Copyright 2026 The Tyche Reproduction Authors.
// Phase-level dispatch profiler (DESIGN.md §6 "Phase attribution &
// watchdog"). PR 6 made a dispatch observable from the outside -- one
// TraceEntry says an op took 40ns. This layer opens the inside: WHERE the
// nanoseconds went, split into a small fixed phase taxonomy:
//
//   api_lock_wait    blocking on the dispatch-level RW lock (contended only)
//   shard_lock_wait  blocking on a per-domain shard lock (contended only)
//   engine           capability-engine mutation / query time
//   backend          hardware projection (VT-x / PMP) time
//   journal          audit-journal append, including any chain-lock wait
//   telemetry        trace-ring + histogram recording overhead (measured
//                    OUTSIDE the e2e window and SAMPLED 1-in-16, because
//                    the measurement itself costs two clock reads)
//   other            residual boundary work (arg staging, caller resolution,
//                    guest-memory copies, attestation serialization, ...)
//
// The accounting is CONTINUOUS: a per-thread scratch window opens at the
// dispatch start timestamp, every phase switch charges the elapsed time to
// the phase being left, and the window closes on the same clock read that
// produces the TraceEntry duration. Sum over the window phases therefore
// equals the end-to-end latency exactly (bench_profile gates the ratio at
// +/-10% to catch accounting regressions). The telemetry phase is recorded
// detached because it runs after the e2e clock stops.
//
// Cost model: ScopedPhase is one bare TLS load when no window is open (the
// profiler off / serial production case), and two steady-clock reads when
// one is. Samples land in per-op x per-phase Log2Histograms, one per
// stripe, picked by the same per-thread stripe id as StripedCounter, so
// eight dispatching cores never bounce a bucket line. The whole feature
// sits behind a kill switch (set_enabled) mirroring the telemetry switches;
// storage (~1.2 MiB) is allocated on first enable, never on the record path.
//
// Exemplars: every (op, phase) keeps its slowest sample's trace span id and
// steady-clock timestamp, so a histogram outlier is clickable into the
// Chrome trace (tools/trace_export joins them as instant events).

#ifndef SRC_SUPPORT_PROFILER_H_
#define SRC_SUPPORT_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/support/metrics.h"

namespace tyche {

// The phase taxonomy. Small and closed on purpose: phases are histogram
// dimensions, and the residual bucket keeps the sum-reconciliation property
// without enumerating every boundary activity.
enum class DispatchPhase : uint8_t {
  kApiLockWait = 0,
  kShardLockWait,
  kEngine,
  kBackend,
  kJournal,
  kTelemetry,
  kOther,
  kPhaseCount,  // sentinel
};

inline constexpr size_t kDispatchPhaseCount =
    static_cast<size_t>(DispatchPhase::kPhaseCount);

// Stable lowercase token per phase ("api_lock_wait", ...), used as the
// Prometheus label value and the folded-stack frame name.
const char* DispatchPhaseName(DispatchPhase phase);

inline uint64_t ProfilerNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace profiler_internal {

// Per-thread phase window. `constinit` on the declaration, not only on the
// definition, is what lets every including file see that there is no
// dynamic initializer: the hot-path "is a window open" check is then a bare
// TLS load with no init-function call -- the same trick
// metrics_internal::tls_stripe_plus1 uses. Code reads and writes the window
// by name and never binds a reference to it: UBSan null-checks a reference,
// and under PIE the check tests the flags of a TLS `add` that the linker may
// rewrite into a flag-less `lea`, so it reported null on a valid address.
struct PhaseScratch {
  bool active;       // a dispatch window is open on this thread
  uint8_t current;   // DispatchPhase currently accumulating
  uint64_t last_ns;  // steady-clock ns when `current` began
  uint64_t ns[kDispatchPhaseCount];
};

extern constinit thread_local PhaseScratch tls_scratch;

}  // namespace profiler_internal

// RAII phase switch. When no window is open on this thread (profiler off,
// or code reached outside Dispatch()) construction is a TLS load and a
// predicted branch. When one is, entry charges the elapsed time to the
// phase being left and exit restores it, so nesting attributes correctly:
// a journal append inside a backend-apply region charges journal time to
// kJournal and the surrounding time to kBackend.
class ScopedPhase {
 public:
  explicit ScopedPhase(DispatchPhase phase) {
    if (!profiler_internal::tls_scratch.active) [[likely]] {
      prev_ = kInactive;
      return;
    }
    prev_ = profiler_internal::tls_scratch.current;
    Switch(static_cast<uint8_t>(phase));
  }

  ~ScopedPhase() {
    if (prev_ == kInactive) [[likely]] {
      return;
    }
    Switch(prev_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  static constexpr uint8_t kInactive = 0xff;

  static void Switch(uint8_t next) {
    using profiler_internal::tls_scratch;
    const uint64_t now = ProfilerNowNs();
    tls_scratch.ns[tls_scratch.current] += now - tls_scratch.last_ns;
    tls_scratch.last_ns = now;
    tls_scratch.current = next;
  }

  uint8_t prev_;
};

// Per-op x per-phase log2 latency histograms, striped per thread, plus
// slowest-sample exemplars. One instance per Monitor; the scratch window is
// per-thread and global, so nested monitors on one thread are not supported
// (BeginWindow refuses while a window is open).
class DispatchProfiler {
 public:
  explicit DispatchProfiler(size_t op_count);

  // Kill switch. First enable allocates the sample storage; disabling keeps
  // it (cheap re-enable, and in-flight windows still have cells to land in).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens the phase window on the calling thread at `start_ns` (the same
  // clock read the dispatcher uses for the TraceEntry). Returns false --
  // and records nothing -- when disabled or a window is already open.
  bool BeginWindow(uint64_t start_ns);

  // Closes the window at `end_ns` (again the shared clock read), charging
  // the open tail to the current phase, and records one sample per phase
  // with nonzero accumulated time. Call iff BeginWindow returned true.
  void EndWindow(uint16_t op, uint64_t span, uint64_t end_ns);

  // Records a sample measured outside any window (the telemetry-overhead
  // phase, which runs after the e2e clock stops).
  void RecordDetached(uint16_t op, DispatchPhase phase, uint64_t ns, uint64_t span,
                      uint64_t ts_ns);

  // One (op, phase) histogram with its stripes merged (trailing empty
  // buckets trimmed). Empty when the op is out of range or nothing recorded.
  HistogramSnapshot PhaseSnapshot(uint16_t op, DispatchPhase phase) const;

  struct ExemplarSample {
    uint64_t ns = 0;     // the slowest sample seen (0 = none yet)
    uint64_t span = 0;   // its dispatch span id
    uint64_t ts_ns = 0;  // steady-clock ns it was recorded at
  };
  ExemplarSample Exemplar(uint16_t op, DispatchPhase phase) const;

  size_t op_count() const { return op_count_; }

  // Total samples recorded across every op and phase (cheap liveness probe
  // for tools and tests).
  uint64_t TotalSamples() const;

  // Clears samples and exemplars; storage and the enable switch stay.
  void Reset();

 private:
  struct ExemplarCell {
    std::atomic<uint64_t> max_ns{0};
    uint64_t span = 0;   // guarded by exemplar_mu_
    uint64_t ts_ns = 0;  // guarded by exemplar_mu_
  };

  size_t HistogramIndex(size_t stripe, size_t op, size_t phase) const {
    return (stripe * op_count_ + op) * kDispatchPhaseCount + phase;
  }

  void RecordSample(uint16_t op, size_t phase, uint64_t ns, uint64_t span,
                    uint64_t ts_ns);
  void MaybeUpdateExemplar(ExemplarCell& cell, uint64_t ns, uint64_t span,
                           uint64_t ts_ns);

  const size_t op_count_;
  std::atomic<bool> enabled_{false};
  // Storage pointer is written once (under storage_mu_) and read with an
  // acquire load on the record path; null until the first enable.
  std::atomic<Log2Histogram*> histograms_{nullptr};
  std::mutex storage_mu_;
  std::unique_ptr<Log2Histogram[]> histogram_storage_;
  std::unique_ptr<ExemplarCell[]> exemplars_;
  mutable std::mutex exemplar_mu_;  // guards ExemplarCell span/ts pairs
};

}  // namespace tyche

#endif  // SRC_SUPPORT_PROFILER_H_
