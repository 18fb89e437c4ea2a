// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/observe.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "src/support/fault_hook.h"

namespace tyche {

std::string PromEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromEscapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderSeriesName(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += key;
    out += "=\"";
    out += PromEscapeLabelValue(value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string EscapeJsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Renders a label set with one extra label appended (for histogram "le").
std::string RenderWithExtraLabel(const std::string& name, const MetricLabels& labels,
                                 const std::string& key, const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderSeriesName(name, extended);
}

constexpr size_t kOps = static_cast<size_t>(ApiOp::kOpCount);

// A family of the monitor's native counters: `count` consecutive counter
// indices from `first`, one series each, labelled `label` = label_of(i)
// (unlabelled when `label` is null) and read from the sample by value_of(i).
struct NativeFamily {
  const char* name;
  const char* help;
  size_t first;
  size_t count;
  const char* label;
  const char* (*label_of)(size_t);
  uint64_t (*value_of)(const MonitorStats&, size_t);
};

constexpr const char* kCapabilityOpKinds[] = {"share", "grant", "revoke"};
// Indexed by CapEffect::Kind.
constexpr const char* kEffectKinds[] = {"map", "unmap", "zero", "flush", "attach", "detach"};
static_assert(std::size(kEffectKinds) == MonitorStats::kEffectKinds);
constexpr const char* kTransitionPaths[] = {"trap", "fast"};

constexpr NativeFamily kNativeFamilies[] = {
    {"tyche_api_calls_total", "ABI calls dispatched, by operation", kStatApiCalls, kOps, "op",
     [](size_t i) { return ApiOpName(static_cast<ApiOp>(i)); },
     [](const MonitorStats& s, size_t i) { return s.api_calls[i]; }},
    {"tyche_capability_ops_total", "Successful capability-graph mutations", kStatShares, 3,
     "kind", [](size_t i) { return kCapabilityOpKinds[i]; },
     [](const MonitorStats& s, size_t i) {
       const uint64_t values[] = {s.shares, s.grants, s.revokes};
       return values[i];
     }},
    {"tyche_effects_total",
     "Hardware obligations produced by capability operations, by effect kind", kStatEffects,
     MonitorStats::kEffectKinds, "kind",
     [](size_t i) { return kEffectKinds[i]; },
     [](const MonitorStats& s, size_t i) { return s.effects_by_kind[i]; }},
    {"tyche_recoveries_total",
     "Crash recoveries survived; the only counter that crosses Recover()", kStatRecoveries, 1,
     nullptr, nullptr, [](const MonitorStats& s, size_t) { return s.recoveries; }},
    {"tyche_revocations_cascaded_total",
     "Capabilities revoked transitively by cascading revocation", kStatRevocationsCascaded, 1,
     nullptr, nullptr, [](const MonitorStats& s, size_t) { return s.revocations_cascaded; }},
    {"tyche_transitions_total", "Inter-domain control transfers, by path", kStatTransitions, 2,
     "path", [](size_t i) { return kTransitionPaths[i]; },
     [](const MonitorStats& s, size_t i) {
       return i == 0 ? s.transitions : s.fast_transitions;
     }},
};

MetricLabels NativeLabels(const NativeFamily& family, size_t i) {
  if (family.label == nullptr) {
    return {};
  }
  return {{family.label, family.label_of(i)}};
}

struct BackendField {
  const char* op;
  uint64_t BackendStats::*field;
};

constexpr BackendField kBackendFields[] = {
    {"memory_syncs", &BackendStats::memory_syncs},
    {"pages_mapped", &BackendStats::pages_mapped},
    {"pages_unmapped", &BackendStats::pages_unmapped},
    {"pages_protected", &BackendStats::pages_protected},
    {"pmp_recompiles", &BackendStats::pmp_recompiles},
    {"pmp_entry_writes", &BackendStats::pmp_entry_writes},
    {"tlb_shootdowns", &BackendStats::tlb_shootdowns},
    {"iommu_updates", &BackendStats::iommu_updates},
    {"core_binds", &BackendStats::core_binds},
    {"fast_binds", &BackendStats::fast_binds},
};

}  // namespace

std::string MonitorCounterName(size_t index) {
  for (const NativeFamily& family : kNativeFamilies) {
    if (index >= family.first && index < family.first + family.count) {
      return RenderSeriesName(family.name, NativeLabels(family, index - family.first));
    }
  }
  return std::to_string(index);
}

std::vector<MetricFamily> MonitorMetrics(const Monitor& monitor) {
  const MonitorStats stats = monitor.stats();
  std::vector<MetricFamily> families;
  const auto add = [&families](const char* name, const char* help, MetricType type,
                               std::vector<MetricSeries> series) {
    families.push_back({name, help, type, std::move(series)});
  };
  const auto counter = [&add](const char* name, const char* help, uint64_t value) {
    add(name, help, MetricType::kCounter, {{{}, value, {}}});
  };
  const auto gauge = [&add](const char* name, const char* help, uint64_t value) {
    add(name, help, MetricType::kGauge, {{{}, value, {}}});
  };

  for (const NativeFamily& native : kNativeFamilies) {
    std::vector<MetricSeries> series;
    for (size_t i = 0; i < native.count; ++i) {
      series.push_back({NativeLabels(native, i), native.value_of(stats, i), {}});
    }
    add(native.name, native.help, MetricType::kCounter, std::move(series));
  }

  std::vector<MetricSeries> backend;
  for (const BackendField& field : kBackendFields) {
    backend.push_back(
        {{{"backend", stats.backend_name}, {"op", field.op}}, stats.backend.*field.field, {}});
  }
  add("tyche_backend_ops_total",
      "Hardware projection operations performed by the platform backend",
      MetricType::kCounter, std::move(backend));
  gauge("tyche_backend_failsafe_active",
        "Domains currently parked in the backend's fail-safe state",
        stats.backend_failsafe_active);

  gauge("tyche_journal_records", "Audit-journal chain length (records)", stats.journal_records);
  gauge("tyche_journal_checkpoints", "Signed checkpoints in the audit journal",
        stats.journal_checkpoints);
  counter("tyche_journal_group_commit_batches_total",
          "Journal commits (one per Append or AppendGroup call)",
          stats.journal_commits.batches);
  counter("tyche_journal_group_commit_records_total",
          "Records appended through journal commits", stats.journal_commits.batched_records);
  gauge("tyche_journal_group_commit_max_batch", "Most records appended by one journal commit",
        stats.journal_commits.max_batch);
  counter("tyche_journal_commit_waits_total", "Journal appends that blocked on the chain lock",
          stats.journal_commit_waits.waits);
  counter("tyche_journal_commit_wait_ns_total",
          "Nanoseconds journal appends spent blocked on the chain lock",
          stats.journal_commit_waits.wait_ns);

  counter("tyche_trace_recorded_total", "ABI calls recorded into the trace ring",
          stats.trace_recorded);
  counter("tyche_trace_dropped_total", "Trace entries overwritten by ring wrap-around",
          stats.trace_dropped);
  add("tyche_lock_contention_total", "Conditional-guard acquisitions that had to block",
      MetricType::kCounter,
      {{{{"class", "exclusive"}}, stats.lock_contention_exclusive, {}},
       {{{"class", "shared"}}, stats.lock_contention_shared, {}}});
  // Attributed lock-wait time: measured at the guards (src/support/locking.h),
  // not inferred from counts.
  add("tyche_lock_wait_ns_total", "Nanoseconds spent blocked on contended conditional guards",
      MetricType::kCounter,
      {{{{"class", "exclusive"}}, stats.lock_wait_ns_exclusive, {}},
       {{{"class", "shared"}}, stats.lock_wait_ns_shared, {}},
       {{{"class", "shard"}}, stats.lock_wait_ns_shard, {}}});

  counter("tyche_fault_injections_fired_total",
          "Deterministic fault injections delivered over the process lifetime",
          fault_hook.fired.load(std::memory_order_relaxed));
  gauge("tyche_fault_injection_active",
        "1 while a fault plan is armed or occurrence counting is on",
        fault_hook.active.load(std::memory_order_relaxed) ? 1 : 0);

  gauge("tyche_domains_alive", "Trust domains currently alive", stats.domains_alive);
  add("tyche_caps", "Capabilities held by the engine, by state", MetricType::kGauge,
      {{{{"state", "active"}}, stats.caps_active, {}},
       {{{"state", "donated"}}, stats.caps_donated, {}}});
  counter("tyche_flight_captures_total", "Post-mortem flight records captured",
          stats.flight_captures);

  // Per-op latency, and the phase profiler's per-(op, phase) histograms
  // plus the slowest sample's size, span and timestamp, so a histogram
  // outlier is joinable into the Chrome trace. The profiler's are empty until
  // it is enabled.
  std::vector<MetricSeries> latency;
  for (size_t op = 0; op < kOps; ++op) {
    latency.push_back({{{"op", ApiOpName(static_cast<ApiOp>(op))}},
                       0,
                       monitor.telemetry().OpHistogram(op)});
  }
  add("tyche_dispatch_latency_ns", "Monitor-side wall-clock latency per ABI call (log2 buckets)",
      MetricType::kHistogram, std::move(latency));
  std::vector<MetricSeries> phase_latency, slowest_ns, slowest_span, slowest_ts;
  const DispatchProfiler& profiler = monitor.profiler();
  for (size_t op = 0; op < kOps; ++op) {
    for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
      const auto op16 = static_cast<uint16_t>(op);
      const auto p = static_cast<DispatchPhase>(phase);
      const MetricLabels labels = {{"op", ApiOpName(static_cast<ApiOp>(op))},
                                   {"phase", DispatchPhaseName(p)}};
      const DispatchProfiler::ExemplarSample exemplar = profiler.Exemplar(op16, p);
      phase_latency.push_back({labels, 0, profiler.PhaseSnapshot(op16, p)});
      slowest_ns.push_back({labels, exemplar.ns, {}});
      slowest_span.push_back({labels, exemplar.span, {}});
      slowest_ts.push_back({labels, exemplar.ts_ns, {}});
    }
  }
  add("tyche_dispatch_phase_latency_ns", "Per-phase dispatch latency (log2 buckets)",
      MetricType::kHistogram, std::move(phase_latency));
  add("tyche_dispatch_phase_slowest_ns", "Slowest sample recorded for this (op, phase)",
      MetricType::kGauge, std::move(slowest_ns));
  add("tyche_dispatch_phase_slowest_span",
      "Dispatch span id of the slowest sample (joins the Chrome trace)", MetricType::kGauge,
      std::move(slowest_span));
  add("tyche_dispatch_phase_slowest_ts_ns", "Steady-clock timestamp of the slowest sample",
      MetricType::kGauge, std::move(slowest_ts));
  counter("tyche_profiler_samples_total", "Phase samples recorded by the dispatch profiler",
          stats.profiler_samples);

  // Invariant watchdog: per-invariant health (1 = holds) and its totals.
  add("tyche_watchdog_healthy", "1 while the named invariant holds, 0 after a violation",
      MetricType::kGauge,
      {{{{"invariant", "journal_chain"}}, stats.watchdog_chain_healthy ? 1u : 0u, {}},
       {{{"invariant", "owned_index"}}, stats.watchdog_index_healthy ? 1u : 0u, {}},
       {{{"invariant", "backend_sync"}}, stats.watchdog_backend_healthy ? 1u : 0u, {}}});
  counter("tyche_watchdog_checks_total", "Invariant check rounds run by the watchdog",
          stats.watchdog_checks);
  counter("tyche_watchdog_violations_total", "Invariant violations detected by the watchdog",
          stats.watchdog_violations);

  std::sort(families.begin(), families.end(),
            [](const MetricFamily& a, const MetricFamily& b) { return a.name < b.name; });
  return families;
}

std::string RenderPrometheus(const std::vector<MetricFamily>& families) {
  std::ostringstream out;
  for (const MetricFamily& family : families) {
    const std::string& name = family.name;
    const char* type_name = family.type == MetricType::kCounter ? "counter"
                            : family.type == MetricType::kGauge ? "gauge"
                                                                : "histogram";
    out << "# HELP " << name << " " << PromEscapeHelp(family.help) << "\n";
    out << "# TYPE " << name << " " << type_name << "\n";
    for (const MetricSeries& series : family.series) {
      if (family.type != MetricType::kHistogram) {
        out << RenderSeriesName(name, series.labels) << " " << series.value << "\n";
        continue;
      }
      const HistogramSnapshot& snapshot = series.histogram;
      uint64_t cumulative = 0;
      for (const auto& [bound, count] : snapshot.buckets) {
        cumulative += count;
        out << RenderWithExtraLabel(name + "_bucket", series.labels, "le",
                                    std::to_string(bound))
            << " " << cumulative << "\n";
      }
      out << RenderWithExtraLabel(name + "_bucket", series.labels, "le", "+Inf") << " "
          << snapshot.count << "\n";
      out << RenderSeriesName(name + "_sum", series.labels) << " " << snapshot.sum << "\n";
      out << RenderSeriesName(name + "_count", series.labels) << " " << snapshot.count
          << "\n";
    }
  }
  return out.str();
}

std::string ExportFlightJson(const FlightRecorder& recorder, const OpNamer& op_name,
                             const CounterNamer& counter_name) {
  const auto name_of = [&op_name](uint16_t op) {
    return EscapeJsonString(op_name ? op_name(op) : std::to_string(op));
  };
  const auto name_of_counter = [&counter_name](size_t index) {
    return EscapeJsonString(counter_name ? counter_name(index) : std::to_string(index));
  };
  const std::vector<FlightRecord> records = recorder.Snapshot();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& record = records[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"id\":" << record.id << ",\"reason\":\"" << EscapeJsonString(record.reason)
        << "\",\"op\":\"" << name_of(record.op) << "\",\"span\":" << record.span
        << ",\"error\":" << record.error << ",\"detail\":\""
        << EscapeJsonString(record.detail) << "\",\"trace\":[";
    for (size_t j = 0; j < record.trace.size(); ++j) {
      const TraceEntry& entry = record.trace[j];
      if (j > 0) {
        out << ",";
      }
      out << "{\"seq\":" << entry.seq << ",\"op\":\"" << name_of(entry.op)
          << "\",\"core\":" << entry.core << ",\"domain\":" << entry.domain
          << ",\"span\":" << entry.span << ",\"error\":" << entry.error
          << ",\"duration_ns\":" << entry.duration_ns << "}";
    }
    out << "],\"metrics_delta\":{";
    for (size_t j = 0; j < record.metrics_delta.size(); ++j) {
      const CounterDelta& delta = record.metrics_delta[j];
      if (j > 0) {
        out << ",";
      }
      out << '"' << name_of_counter(delta.index) << "\":" << delta.delta;
    }
    out << "}}";
  }
  out << "]";
  return out.str();
}

std::string ExportOpSummary(const Telemetry& telemetry, const OpNamer& op_name) {
  std::ostringstream out;
  out << "op                         calls       p50(ns)     p99(ns)     max(ns)\n";
  for (size_t op = 0; op < telemetry.op_count(); ++op) {
    const HistogramSnapshot histogram = telemetry.OpHistogram(op);
    if (histogram.count == 0) {
      continue;
    }
    std::string name = op_name(static_cast<uint16_t>(op));
    name.resize(24, ' ');
    out << name << " " << histogram.count;
    for (const uint64_t value :
         {histogram.Percentile(50), histogram.Percentile(99), histogram.max}) {
      out << "  " << value;
    }
    out << "\n";
  }
  return out.str();
}

namespace {

struct AttributionCell {
  uint16_t op = 0;
  DispatchPhase phase = DispatchPhase::kOther;
  uint64_t count = 0;
  uint64_t sum_ns = 0;
};

std::vector<AttributionCell> CollectCells(const DispatchProfiler& profiler) {
  std::vector<AttributionCell> cells;
  for (size_t op = 0; op < profiler.op_count(); ++op) {
    for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
      const auto snapshot = profiler.PhaseSnapshot(static_cast<uint16_t>(op),
                                                   static_cast<DispatchPhase>(phase));
      if (snapshot.count == 0) {
        continue;
      }
      cells.push_back({static_cast<uint16_t>(op), static_cast<DispatchPhase>(phase),
                       snapshot.count, snapshot.sum});
    }
  }
  return cells;
}

}  // namespace

std::string ExportFoldedStacks(const DispatchProfiler& profiler, const OpNamer& op_name) {
  std::ostringstream out;
  for (const AttributionCell& cell : CollectCells(profiler)) {
    out << op_name(cell.op) << ";" << DispatchPhaseName(cell.phase) << " "
        << cell.sum_ns << "\n";
  }
  return out.str();
}

std::string ExportAttributionTable(const DispatchProfiler& profiler, const OpNamer& op_name,
                                   size_t top_n) {
  std::vector<AttributionCell> cells = CollectCells(profiler);
  uint64_t grand_total = 0;
  for (const AttributionCell& cell : cells) {
    grand_total += cell.sum_ns;
  }
  std::sort(cells.begin(), cells.end(),
            [](const AttributionCell& a, const AttributionCell& b) {
              return a.sum_ns > b.sum_ns;
            });
  if (cells.size() > top_n) {
    cells.resize(top_n);
  }
  std::ostringstream out;
  out << "op;phase                                count     total_ns      mean_ns  share\n";
  for (const AttributionCell& cell : cells) {
    std::ostringstream label;
    label << op_name(cell.op) << ";" << DispatchPhaseName(cell.phase);
    const double share =
        grand_total == 0 ? 0.0
                         : 100.0 * static_cast<double>(cell.sum_ns) /
                               static_cast<double>(grand_total);
    out << std::left << std::setw(36) << label.str() << std::right << std::setw(9)
        << cell.count << std::setw(13) << cell.sum_ns << std::setw(13)
        << (cell.count == 0 ? 0 : cell.sum_ns / cell.count) << std::setw(6)
        << std::fixed << std::setprecision(1) << share << "%\n";
  }
  return out.str();
}

}  // namespace tyche
