// Copyright 2026 The Tyche Reproduction Authors.
// Dispatch phase profiler (src/support/profiler.h): window accounting,
// phase nesting, exemplars, the folded-stack/attribution exports
// (src/tyche/observe.h), and --
// the property the striped storage must hold -- no lost or double-counted
// samples when recording threads are created and destroyed repeatedly
// (thread churn re-assigns TLS stripes; the cells must outlive any thread).

#include "src/support/profiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/tyche/observe.h"

namespace tyche {
namespace {

constexpr uint16_t kOps = 4;

std::string OpName(uint16_t op) { return "op" + std::to_string(op); }

uint64_t TotalCount(const DispatchProfiler& profiler) {
  uint64_t total = 0;
  for (uint16_t op = 0; op < kOps; ++op) {
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      total += profiler.PhaseSnapshot(op, static_cast<DispatchPhase>(p)).count;
    }
  }
  return total;
}

TEST(ProfilerTest, DisabledRecordsNothing) {
  DispatchProfiler profiler(kOps);
  EXPECT_FALSE(profiler.enabled());
  EXPECT_FALSE(profiler.BeginWindow(100));
  { const ScopedPhase phase(DispatchPhase::kEngine); }
  EXPECT_EQ(profiler.TotalSamples(), 0u);
}

TEST(ProfilerTest, WindowSumsReconcileExactly) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  const uint64_t start = ProfilerNowNs();
  ASSERT_TRUE(profiler.BeginWindow(start));
  {
    const ScopedPhase engine(DispatchPhase::kEngine);
    {
      // Nested: journal time must NOT be charged to engine.
      const ScopedPhase journal(DispatchPhase::kJournal);
    }
  }
  const uint64_t end = ProfilerNowNs();
  profiler.EndWindow(/*op=*/1, /*span=*/5, end);

  uint64_t phase_sum = 0;
  for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
    phase_sum += profiler.PhaseSnapshot(1, static_cast<DispatchPhase>(p)).sum;
  }
  // The window opened and closed on our own clock reads, so the phase sums
  // are EXACTLY the end-to-end time (kOther absorbs the residual).
  EXPECT_EQ(phase_sum, end - start);
  EXPECT_GT(profiler.PhaseSnapshot(1, DispatchPhase::kOther).count, 0u);
}

TEST(ProfilerTest, NestedWindowRefused) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  ASSERT_TRUE(profiler.BeginWindow(ProfilerNowNs()));
  EXPECT_FALSE(profiler.BeginWindow(ProfilerNowNs()));
  profiler.EndWindow(0, 1, ProfilerNowNs());
  // Closed: a fresh window opens again.
  ASSERT_TRUE(profiler.BeginWindow(ProfilerNowNs()));
  profiler.EndWindow(0, 2, ProfilerNowNs());
}

TEST(ProfilerTest, ScopedPhaseOutsideWindowIsNoop) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  { const ScopedPhase phase(DispatchPhase::kBackend); }
  EXPECT_EQ(profiler.TotalSamples(), 0u);
}

TEST(ProfilerTest, DetachedSamplesAndExemplars) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  profiler.RecordDetached(2, DispatchPhase::kTelemetry, 100, /*span=*/11, /*ts_ns=*/1000);
  profiler.RecordDetached(2, DispatchPhase::kTelemetry, 900, /*span=*/12, /*ts_ns=*/2000);
  profiler.RecordDetached(2, DispatchPhase::kTelemetry, 300, /*span=*/13, /*ts_ns=*/3000);

  const auto snapshot = profiler.PhaseSnapshot(2, DispatchPhase::kTelemetry);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.sum, 1300u);

  // The exemplar is the slowest sample, with its span and timestamp.
  const auto exemplar = profiler.Exemplar(2, DispatchPhase::kTelemetry);
  EXPECT_EQ(exemplar.ns, 900u);
  EXPECT_EQ(exemplar.span, 12u);
  EXPECT_EQ(exemplar.ts_ns, 2000u);
}

TEST(ProfilerTest, ResetClearsSamplesKeepsEnable) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  profiler.RecordDetached(0, DispatchPhase::kEngine, 50, 1, 1);
  ASSERT_GT(profiler.TotalSamples(), 0u);
  profiler.Reset();
  EXPECT_EQ(profiler.TotalSamples(), 0u);
  EXPECT_EQ(profiler.Exemplar(0, DispatchPhase::kEngine).ns, 0u);
  EXPECT_TRUE(profiler.enabled());
}

TEST(ProfilerTest, OutOfRangeOpIsDropped) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  profiler.RecordDetached(kOps + 3, DispatchPhase::kEngine, 50, 1, 1);
  profiler.RecordDetached(static_cast<uint16_t>(~0u), DispatchPhase::kEngine, 50, 1, 1);
  EXPECT_EQ(profiler.TotalSamples(), 0u);
}

TEST(ProfilerTest, FoldedStacksShapeAndWeights) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  profiler.RecordDetached(1, DispatchPhase::kEngine, 100, 1, 1);
  profiler.RecordDetached(1, DispatchPhase::kEngine, 150, 2, 2);
  profiler.RecordDetached(3, DispatchPhase::kJournal, 40, 3, 3);

  const std::string folded = ExportFoldedStacks(profiler, OpName);
  EXPECT_NE(folded.find("op1;engine 250\n"), std::string::npos);
  EXPECT_NE(folded.find("op3;journal 40\n"), std::string::npos);
  // Every line: "frame;frame weight".
  std::istringstream in(folded);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    ++lines;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NE(line.substr(0, space).find(';'), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 2u);

  const std::string table = ExportAttributionTable(profiler, OpName, 10);
  EXPECT_NE(table.find("op1;engine"), std::string::npos);
  EXPECT_NE(table.find("op;phase"), std::string::npos);
}

// ===== Thread churn: stripes must neither lose nor double-count =====

TEST(ProfilerTest, ThreadChurnConservesSamples) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  // Waves of short-lived threads: each records a known number of windows,
  // then dies. TLS stripe slots get re-assigned across waves; the striped
  // cells must hold the grand total regardless.
  constexpr int kWaves = 8;
  constexpr int kThreadsPerWave = 6;
  constexpr int kWindowsPerThread = 25;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kThreadsPerWave);
    for (int t = 0; t < kThreadsPerWave; ++t) {
      threads.emplace_back([&profiler, t] {
        const uint16_t op = static_cast<uint16_t>(t % kOps);
        for (int i = 0; i < kWindowsPerThread; ++i) {
          const uint64_t start = ProfilerNowNs();
          if (!profiler.BeginWindow(start)) {
            continue;
          }
          { const ScopedPhase engine(DispatchPhase::kEngine); }
          profiler.EndWindow(op, /*span=*/1, ProfilerNowNs());
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  // Each window records >= 1 sample (the engine phase may round to zero ns
  // on a coarse clock, but the residual/tail always lands somewhere), and
  // the per-(op, phase) counts must sum to exactly one engine + N others
  // per window -- conservatively: total samples seen by TotalSamples()
  // equals the per-snapshot sum (no stripe lost, none counted twice).
  EXPECT_EQ(profiler.TotalSamples(), TotalCount(profiler));
  // Engine-phase counts: every window charged the engine phase exactly once
  // IF the clock advanced inside it; windows are not lost across waves, so
  // the total window count is conserved in the op histograms' bucket sums.
  const uint64_t windows = static_cast<uint64_t>(kWaves) * kThreadsPerWave * kWindowsPerThread;
  uint64_t recorded_windows = 0;
  for (uint16_t op = 0; op < kOps; ++op) {
    // kOther (the residual) gets at least one nonzero charge per window on
    // any clock with ns-scale resolution; tolerate coarse clocks by summing
    // every phase and requiring at least one sample per window overall.
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      recorded_windows += profiler.PhaseSnapshot(op, static_cast<DispatchPhase>(p)).count;
    }
  }
  EXPECT_GE(recorded_windows, windows);
}

TEST(ProfilerTest, ConcurrentWindowsAttributePerThread) {
  DispatchProfiler profiler(kOps);
  profiler.set_enabled(true);
  // Two live threads with interleaved windows: per-thread TLS scratch means
  // neither sees the other's phases.
  std::thread a([&profiler] {
    for (int i = 0; i < 1000; ++i) {
      if (!profiler.BeginWindow(ProfilerNowNs())) {
        continue;
      }
      { const ScopedPhase engine(DispatchPhase::kEngine); }
      profiler.EndWindow(0, 1, ProfilerNowNs());
    }
  });
  std::thread b([&profiler] {
    for (int i = 0; i < 1000; ++i) {
      if (!profiler.BeginWindow(ProfilerNowNs())) {
        continue;
      }
      { const ScopedPhase backend(DispatchPhase::kBackend); }
      profiler.EndWindow(1, 2, ProfilerNowNs());
    }
  });
  a.join();
  b.join();
  // Cross-attribution would show op0 backend samples or op1 engine samples.
  EXPECT_EQ(profiler.PhaseSnapshot(0, DispatchPhase::kBackend).count, 0u);
  EXPECT_EQ(profiler.PhaseSnapshot(1, DispatchPhase::kEngine).count, 0u);
}

}  // namespace
}  // namespace tyche
