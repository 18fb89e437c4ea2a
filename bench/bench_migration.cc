// Copyright 2026 The Tyche Reproduction Authors.
// Live-migration cost curve (DESIGN.md §11). Three footprint axes, each
// swept independently while the other two stay at the baseline:
//
//   pages    -- memory image size: capture serializes and the destination
//               rewrites every granted page, so this axis is the payload
//               bulk (BM_MigratePages).
//   caps     -- capability count: every granted window is a separate cap
//               the destination must re-carve from its own tree, so this
//               axis is the restore-stage graph work (BM_MigrateCaps).
//   journal  -- source journal length: the full journal ships as
//               provenance and the destination shadow-replays it, so this
//               axis is the verification bill (BM_MigrateJournalSuffix).
//
// Each iteration boots a fresh source/dest pair (timing paused), then
// times MigrateOver end to end over a LossyChannel with no fault plan
// armed, which delivers every frame in order. Counters follow the
// bench_common.h schema: payload_bytes / frames_sent / retries come straight
// from the report of the last iteration.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/monitor/boot.h"
#include "src/tyche/channel.h"
#include "src/tyche/loader.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

struct Pair {
  std::unique_ptr<Machine> source_machine;
  std::unique_ptr<Machine> dest_machine;
  std::unique_ptr<Monitor> source;
  std::unique_ptr<Monitor> dest;
  DomainId victim = kInvalidDomain;
};

// Boots two identically-measured monitors and builds one sealed victim on
// the source with the requested footprint. Aborts on any failure: a bench
// without a world has nothing to measure.
Pair MakePair(int caps, int pages_per_cap, int journal_ops) {
  Pair pair;
  MachineConfig config;
  pair.source_machine = std::make_unique<Machine>(config);
  pair.dest_machine = std::make_unique<Machine>(config);
  const std::vector<uint8_t> firmware = DemoFirmwareImage();
  const std::vector<uint8_t> monitor_image = DemoMonitorImage();
  BootParams params;
  params.firmware_image = firmware;
  params.monitor_image = monitor_image;
  auto source_boot = MeasuredBoot(pair.source_machine.get(), params);
  auto dest_boot = MeasuredBoot(pair.dest_machine.get(), params);
  if (!source_boot.ok() || !dest_boot.ok()) {
    std::abort();
  }
  pair.source = std::move(source_boot->monitor);
  pair.dest = std::move(dest_boot->monitor);
  Monitor& monitor = *pair.source;
  const DomainId os = source_boot->initial_domain;

  // Journal depth: churn create/destroy pairs before the victim exists so
  // the extra records are pure suffix, not extra live state.
  for (int i = 0; i < journal_ops; ++i) {
    const auto churn = monitor.CreateDomain(0, "churn-" + std::to_string(i));
    if (!churn.ok() || !monitor.DestroyDomain(0, churn->handle).ok()) {
      std::abort();
    }
  }

  const auto created = monitor.CreateDomain(0, "victim");
  if (!created.ok()) {
    std::abort();
  }
  pair.victim = created->domain;
  const uint64_t scratch = monitor.monitor_range().end() + kMiB;
  const CapRights all{CapRights::kAll};
  const RevocationPolicy policy{RevocationPolicy::kZeroMemory};
  for (int c = 0; c < caps; ++c) {
    const AddrRange window{scratch + static_cast<uint64_t>(c) * kMiB,
                           static_cast<uint64_t>(pages_per_cap) * kPageSize};
    const auto cap = FindMemoryCap(monitor, os, window);
    if (!cap.ok() ||
        !monitor
             .GrantMemory(0, *cap, created->handle, window, Perms(Perms::kRWX),
                          all, policy)
             .ok()) {
      std::abort();
    }
  }
  const AddrRange entry_window{scratch, kPageSize};
  if (!monitor.SetEntryPoint(0, created->handle, entry_window.base).ok() ||
      !monitor.ExtendMeasurement(0, created->handle, entry_window).ok() ||
      !monitor.Seal(0, created->handle).ok()) {
    std::abort();
  }
  return pair;
}

void RunMigration(benchmark::State& state, int caps, int pages_per_cap,
                  int journal_ops) {
  MigrationTransferReport last;
  uint64_t sim_cycles = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Pair pair = MakePair(caps, pages_per_cap, journal_ops);
    LossyChannel wire;
    const uint64_t before = pair.source_machine->cycles().cycles() +
                            pair.dest_machine->cycles().cycles();
    state.ResumeTiming();
    const auto report = MigrateOver(pair.source.get(), pair.dest.get(), pair.victim, &wire,
                                    pair.source->public_key());
    if (!report.ok()) {
      std::abort();
    }
    sim_cycles += pair.source_machine->cycles().cycles() +
                  pair.dest_machine->cycles().cycles() - before;
    ++ops;
    last = *report;
  }
  state.counters["sim_cycles/op"] =
      static_cast<double>(sim_cycles) / static_cast<double>(ops);
  state.counters["payload_bytes"] = static_cast<double>(last.migration.payload_bytes);
  state.counters["frames_sent"] = static_cast<double>(last.frames_sent);
  state.counters["retries"] = static_cast<double>(last.retries);
  state.counters["caps_moved"] = static_cast<double>(caps);
  state.counters["pages_moved"] = static_cast<double>(caps * pages_per_cap);
}

// Payload bulk: one capability, growing page count.
void BM_MigratePages(benchmark::State& state) {
  RunMigration(state, /*caps=*/1, /*pages_per_cap=*/static_cast<int>(state.range(0)),
               /*journal_ops=*/0);
}
BENCHMARK(BM_MigratePages)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Graph work: growing capability count, one page each.
void BM_MigrateCaps(benchmark::State& state) {
  RunMigration(state, /*caps=*/static_cast<int>(state.range(0)),
               /*pages_per_cap=*/1, /*journal_ops=*/0);
}
BENCHMARK(BM_MigrateCaps)->Arg(1)->Arg(4)->Arg(16)->Arg(32);

// Verification bill: growing journal suffix, baseline memory footprint.
void BM_MigrateJournalSuffix(benchmark::State& state) {
  RunMigration(state, /*caps=*/1, /*pages_per_cap=*/4,
               /*journal_ops=*/static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MigrateJournalSuffix)->Arg(0)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
