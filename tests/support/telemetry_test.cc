// Copyright 2026 The Tyche Reproduction Authors.
// TraceRing and Log2Histogram/HistogramSnapshot: capacity/overwrite
// semantics, percentile math, merge, enable gating, and multi-threaded
// recording with a concurrent lock-free reader (the concurrency the
// ASan/UBSan and TSan CI jobs gate); and the flight recorder's
// dispatch-error dedup filter.

#include "src/support/telemetry.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <initializer_list>
#include <thread>
#include <vector>

#include "src/support/flight_recorder.h"
#include "src/tyche/observe.h"

namespace tyche {
namespace {

TraceEntry MakeEntry(uint16_t op, uint64_t duration_ns) {
  TraceEntry entry;
  entry.op = op;
  entry.duration_ns = duration_ns;
  return entry;
}

TEST(TraceRingTest, AssignsSequenceNumbersOldestFirst) {
  TraceRing ring(8);
  for (uint16_t i = 0; i < 5; ++i) {
    ring.Record(MakeEntry(i, 10 * i));
  }
  const auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, i);
    EXPECT_EQ(snapshot[i].op, i);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, OverwritesOldestWhenFull) {
  TraceRing ring(4);
  for (uint16_t i = 0; i < 10; ++i) {
    ring.Record(MakeEntry(i, 0));
  }
  const auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().op, 6);  // ops 0..5 overwritten
  EXPECT_EQ(snapshot.back().op, 9);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceRingTest, StopGatesRecording) {
  TraceRing ring(4);
  ring.Stop();
  ring.Record(MakeEntry(1, 0));
  EXPECT_EQ(ring.recorded(), 0u);
  ring.Start();
  ring.Record(MakeEntry(2, 0));
  EXPECT_EQ(ring.recorded(), 1u);
}

TEST(TraceRingTest, ClearResets) {
  TraceRing ring(4);
  ring.Record(MakeEntry(1, 0));
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

// Count in the snapshot bucket whose inclusive upper bound is `bound`.
uint64_t BucketCount(const HistogramSnapshot& snapshot, uint64_t bound) {
  for (const auto& [upper, count] : snapshot.buckets) {
    if (upper == bound) {
      return count;
    }
  }
  return 0;
}

HistogramSnapshot SnapshotOf(std::initializer_list<uint64_t> values) {
  Log2Histogram histogram;
  for (const uint64_t value : values) {
    histogram.Record(value);
  }
  return histogram.Snapshot();
}

TEST(Log2HistogramTest, BucketsArePowersOfTwo) {
  const HistogramSnapshot histogram = SnapshotOf({0, 1, 2, 3, 1024});
  EXPECT_EQ(histogram.count, 5u);
  EXPECT_EQ(histogram.sum, 1030u);
  EXPECT_EQ(histogram.max, 1024u);
  EXPECT_EQ(BucketCount(histogram, 1), 2u);     // 0, 1
  EXPECT_EQ(BucketCount(histogram, 2), 1u);     // 2
  EXPECT_EQ(BucketCount(histogram, 4), 1u);     // 3..4
  EXPECT_EQ(BucketCount(histogram, 1024), 1u);  // 513..1024
  // Trailing empty buckets are trimmed: 1024 is bucket 10, the last one.
  ASSERT_EQ(histogram.buckets.size(), 11u);
  EXPECT_EQ(histogram.buckets.back().first, 1024u);
  EXPECT_EQ(Log2Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Log2Histogram::BucketIndex(1025), 11u);
}

TEST(Log2HistogramTest, PercentilesAtBucketResolution) {
  Log2Histogram histogram;
  // 99 cheap samples and one expensive one: p50 stays in the cheap bucket,
  // p99+ reaches the tail.
  for (int i = 0; i < 99; ++i) {
    histogram.Record(100);  // bucket upper bound 128
  }
  histogram.Record(1u << 20);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.Percentile(50), 128u);
  EXPECT_EQ(snapshot.Percentile(99), 128u);
  EXPECT_EQ(snapshot.Percentile(100), 1u << 20);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(99), 0u);
}

TEST(Log2HistogramTest, EmptyHistogramIsAllZero) {
  const HistogramSnapshot histogram = Log2Histogram{}.Snapshot();
  EXPECT_EQ(histogram.count, 0u);
  EXPECT_EQ(histogram.sum, 0u);
  EXPECT_EQ(histogram.max, 0u);
  EXPECT_TRUE(histogram.buckets.empty());
  EXPECT_EQ(histogram.Percentile(0), 0u);
  EXPECT_EQ(histogram.Percentile(50), 0u);
  EXPECT_EQ(histogram.Percentile(100), 0u);
}

TEST(Log2HistogramTest, SingleSampleAnswersEveryPercentile) {
  const HistogramSnapshot histogram = SnapshotOf({300});  // bucket upper bound 512
  EXPECT_EQ(histogram.max, 300u);
  // With one sample the nearest rank is 1 for every p, including p=0.
  EXPECT_EQ(histogram.Percentile(0), 512u);
  EXPECT_EQ(histogram.Percentile(50), 512u);
  EXPECT_EQ(histogram.Percentile(100), 512u);
}

TEST(Log2HistogramTest, HugeValuesClampToTheLastBucket) {
  // Values above 2^63 would compute bucket index 64 -- one past the end.
  const HistogramSnapshot histogram = SnapshotOf({~0ull, (1ull << 63) + 1});
  ASSERT_EQ(histogram.buckets.size(), Log2Histogram::kBuckets);
  EXPECT_EQ(histogram.buckets.back().second, 2u);
  EXPECT_EQ(histogram.Percentile(100), ~0ull);
  EXPECT_EQ(histogram.max, ~0ull);
}

TEST(Log2HistogramTest, DisjointBucketMergeKeepsRanksInRange) {
  Log2Histogram low_cells;
  Log2Histogram high_cells;
  for (int i = 0; i < 10; ++i) {
    low_cells.Record(3);  // bucket upper bound 4
  }
  for (int i = 0; i < 10; ++i) {
    high_cells.Record(1ull << 40);
  }
  HistogramSnapshot low = low_cells.Snapshot();
  low.Merge(high_cells.Snapshot());
  ASSERT_EQ(low.count, 20u);
  // Ranks land inside real buckets on both sides of the empty middle; the
  // nearest-rank scan must terminate inside the table for every p.
  EXPECT_EQ(low.Percentile(0), 4u);
  EXPECT_EQ(low.Percentile(50), 4u);
  EXPECT_EQ(low.Percentile(55), 1ull << 40);
  EXPECT_EQ(low.Percentile(100), 1ull << 40);
  for (double p = 0; p <= 100.0; p += 0.5) {
    const uint64_t value = low.Percentile(p);
    EXPECT_TRUE(value == 4u || value == (1ull << 40)) << "p=" << p;
  }
}

TEST(Log2HistogramTest, MergeAddsCountsAndExtremes) {
  HistogramSnapshot a = SnapshotOf({4});
  a.Merge(SnapshotOf({4096, 4}));
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 4104u);
  EXPECT_EQ(a.max, 4096u);
  EXPECT_EQ(BucketCount(a, 4), 2u);
  EXPECT_EQ(a.Percentile(100), 4096u);
  // Merging keeps the bucket list sorted and the log2 bounds contiguous.
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].first, Log2Histogram::BucketUpperBound(i));
  }
}

TEST(TelemetryTest, RecordsPerOpHistogramsAndRing) {
  Telemetry telemetry(/*op_count=*/4, /*ring_capacity=*/16);
  TraceEntry entry = MakeEntry(2, 100);
  telemetry.RecordCall(entry);
  telemetry.RecordCall(MakeEntry(2, 200));
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.OpHistogram(2).count, 2u);
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
  EXPECT_EQ(telemetry.OpHistogram(1).count, 0u);
  EXPECT_EQ(telemetry.MergedHistogram().count, 3u);
  EXPECT_EQ(telemetry.ring().recorded(), 3u);
  // Out-of-range op: traced but not histogrammed.
  telemetry.RecordCall(MakeEntry(9, 5));
  EXPECT_EQ(telemetry.ring().recorded(), 4u);
  EXPECT_EQ(telemetry.MergedHistogram().count, 3u);
  EXPECT_EQ(telemetry.OpHistogram(9).count, 0u);
}

TEST(TelemetryTest, EnableSwitchesAreIndependent) {
  Telemetry telemetry(2);
  EXPECT_TRUE(telemetry.any_enabled());
  telemetry.set_trace_enabled(false);
  EXPECT_TRUE(telemetry.any_enabled());  // histograms still on
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.ring().recorded(), 0u);
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
  telemetry.set_histograms_enabled(false);
  EXPECT_FALSE(telemetry.any_enabled());
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
}

TEST(TelemetryTest, OpSummaryListsOpsWithSamples) {
  Telemetry telemetry(3);
  telemetry.RecordCall(MakeEntry(1, 50));
  const std::string summary = ExportOpSummary(
      telemetry, [](uint16_t op) { return std::string("op") + std::to_string(op); });
  EXPECT_NE(summary.find("op1"), std::string::npos);
  EXPECT_EQ(summary.find("op0"), std::string::npos);
}

TEST(TelemetryTest, ConcurrentRecordingIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  Telemetry telemetry(/*op_count=*/4, /*ring_capacity=*/1024);
  // A reader snapshots the lock-free histograms while the writers record:
  // every snapshot must be internally consistent (count == sum of buckets,
  // so the exported +Inf bucket matches the last cumulative one) and counts
  // must never go backwards.
  std::atomic<bool> writers_done{false};
  uint64_t snapshots = 0;
  uint64_t torn = 0;
  uint64_t regressions = 0;
  std::thread reader([&] {
    uint64_t last_count = 0;
    bool last_pass = false;
    while (!last_pass) {
      last_pass = writers_done.load(std::memory_order_acquire);
      const HistogramSnapshot snapshot = telemetry.MergedHistogram();
      uint64_t bucket_total = 0;
      for (const auto& bucket : snapshot.buckets) {
        bucket_total += bucket.second;
      }
      torn += bucket_total != snapshot.count;
      regressions += snapshot.count < last_count;
      last_count = snapshot.count;
      ++snapshots;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry.RecordCall(MakeEntry(static_cast<uint16_t>(t % 4), i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  writers_done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(snapshots, 1u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(regressions, 0u);

  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(telemetry.ring().recorded(), kTotal);
  EXPECT_EQ(telemetry.ring().dropped(), kTotal - 1024);
  const HistogramSnapshot merged = telemetry.MergedHistogram();
  EXPECT_EQ(merged.count, kTotal);
  EXPECT_EQ(merged.sum, uint64_t{kThreads} * (kPerThread * (kPerThread - 1) / 2));
  EXPECT_EQ(merged.max, uint64_t{kPerThread - 1});
  // Every sequence number in the snapshot is unique and the snapshot is
  // sorted oldest-first.
  const auto snapshot = telemetry.ring().Snapshot();
  ASSERT_EQ(snapshot.size(), 1024u);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, snapshot[i - 1].seq + 1);
  }
}

// Two ops failing alternately with one error are two failure shapes: each is
// captured once. The filter used to take its slot from the key's low bits,
// which hold only the error, so the two evicted each other and every call
// became a full capture (ring and counters copied under the mutex).
TEST(FlightRecorderTest, DedupKeepsOpsWithTheSameErrorApart) {
  TraceRing ring;
  std::array<StripedCounter, 1> counters;
  counters[0].Add(1);
  FlightRecorder recorder(&ring, counters);
  for (int i = 0; i < 1000; ++i) {
    ring.Record(MakeEntry(static_cast<uint16_t>(i), 1));
    recorder.OnDispatchError(i % 2 == 0 ? 7 : 12, /*span=*/0, /*error=*/5);
  }
  EXPECT_EQ(recorder.captures(), 2u);
  const auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].op, 7u);
  EXPECT_EQ(records[1].op, 12u);
}

// A capture keeps the newest `last_n` trace entries, oldest first: the same
// entries, in the same order, as the tail of a full ring snapshot. A ring that
// holds fewer than `last_n` hands over all of them.
TEST(FlightRecorderTest, CaptureKeepsTheRingsLastEntriesInOrder) {
  constexpr size_t kLastN = 64;
  TraceRing ring;
  FlightRecorder recorder(&ring, /*counters=*/{}, /*capacity=*/8, kLastN);
  for (uint16_t i = 0; i < 10; ++i) {
    ring.Record(MakeEntry(i, i));
  }
  recorder.Capture("partial", 0, 0, 0, "");
  for (size_t i = 0; i < TraceRing::kDefaultCapacity + 1000; ++i) {
    ring.Record(MakeEntry(static_cast<uint16_t>(i), i));
  }
  recorder.Capture("full", 0, 0, 0, "");

  const auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  ASSERT_EQ(records[0].trace.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(records[0].trace[i].seq, i);
  }
  const std::vector<TraceEntry> full = ring.Snapshot();
  ASSERT_EQ(full.size(), TraceRing::kDefaultCapacity);
  const std::vector<TraceEntry>& kept = records[1].trace;
  ASSERT_EQ(kept.size(), kLastN);
  for (size_t i = 0; i < kLastN; ++i) {
    const TraceEntry& want = full[full.size() - kLastN + i];
    EXPECT_EQ(kept[i].seq, want.seq);
    EXPECT_EQ(kept[i].op, want.op);
    EXPECT_EQ(kept[i].duration_ns, want.duration_ns);
  }
  EXPECT_EQ(kept.back().seq, ring.recorded() - 1);
}

TEST(Fnv1aDigestTest, DistinguishesArguments) {
  const uint64_t a[] = {1, 2, 3, 4, 5, 6};
  const uint64_t b[] = {1, 2, 3, 4, 5, 7};
  EXPECT_NE(Fnv1aDigest(a, 6), Fnv1aDigest(b, 6));
  EXPECT_EQ(Fnv1aDigest(a, 6), Fnv1aDigest(a, 6));
}

}  // namespace
}  // namespace tyche
