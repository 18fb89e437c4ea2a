// Copyright 2026 The Tyche Reproduction Authors.
// Observability renderers (DESIGN.md §6 "Metrics & export").
//
// The monitor keeps and checks its observability state and hands out plain,
// nameless values: its one stats sample (Monitor::stats()), FlightRecorder
// records, the per-op histograms, the phase profiler's snapshots. Everything
// that names those values or turns them into text for people and tools
// lives here, in libtyche, outside the trusted computing base:
//
//  - MonitorMetrics / MonitorCounterName: every metric family name, help
//    string and label of the monitor's scrape, and the name of each of its
//    native counters (what a flight-record delta's index means);
//  - RenderPrometheus: the Prometheus text exposition of collected
//    families (tools/check_metrics_format.py checks its grammar);
//  - ExportFlightJson: the flight recorder's records as a JSON array;
//  - ExportOpSummary: the per-op latency table the examples print;
//  - ExportFoldedStacks / ExportAttributionTable: the phase profile as
//    flamegraph.pl input and as a top-N table.
//
// Every JSON exporter in libtyche escapes strings through EscapeJsonString.

#ifndef SRC_TYCHE_OBSERVE_H_
#define SRC_TYCHE_OBSERVE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/monitor/monitor.h"
#include "src/support/flight_recorder.h"
#include "src/support/profiler.h"
#include "src/support/telemetry.h"
#include "src/tyche/metrics_registry.h"

namespace tyche {

// Names an op index for display (e.g. ApiOpName).
using OpNamer = std::function<std::string(uint16_t)>;

// Names a flight-recorder counter index for display (e.g.
// MonitorCounterName).
using CounterNamer = std::function<std::string(size_t)>;

// Prometheus text-format escaping.
std::string PromEscapeHelp(const std::string& text);
std::string PromEscapeLabelValue(const std::string& text);

// Renders "name{k=\"v\",...}" (no labels -> bare name).
std::string RenderSeriesName(const std::string& name, const MetricLabels& labels);

// Escapes a string for use inside a JSON string literal: quotes, backslash,
// and every control character (\n, \r, \t, otherwise \uXXXX), so no byte is
// lost.
std::string EscapeJsonString(const std::string& text);

// The monitor's metric families, sorted by name, each series in a fixed
// order: its stats() sample, per-op latency histograms, per-(op, phase)
// profiler histograms and slowest-sample exemplars, and the fault
// injector's lifetime count and armed flag.
std::vector<MetricFamily> MonitorMetrics(const Monitor& monitor);

// The scrape series of the monitor's native counter `index` (a kStat*
// constant), e.g. `tyche_api_calls_total{op="revoke"}`; the decimal index
// when out of range.
std::string MonitorCounterName(size_t index);

// Prometheus text exposition of `families` in the order given (Collect()
// and MonitorMetrics sort them by name): HELP/TYPE once per family,
// histograms as cumulative buckets plus +Inf, _sum and _count.
std::string RenderPrometheus(const std::vector<MetricFamily>& families);

// JSON array of the recorder's records (trace entries inline). A null
// `op_name` prints op indices as decimal strings, and a null `counter_name`
// prints counter indices so.
std::string ExportFlightJson(const FlightRecorder& recorder, const OpNamer& op_name,
                             const CounterNamer& counter_name);

// Per-op latency table: a header, then "op  calls  p50  p99  max" for ops
// with at least one sample.
std::string ExportOpSummary(const Telemetry& telemetry, const OpNamer& op_name);

// Folded-stack rendering for flamegraph.pl: one "op;phase weight" line per
// (op, phase) with samples, weight = accumulated nanoseconds. Deterministic
// order (op index, then phase index).
std::string ExportFoldedStacks(const DispatchProfiler& profiler, const OpNamer& op_name);

// Human-readable attribution table: the top `top_n` (op, phase) cells by
// accumulated time, with count, total, mean, and share of all profiled time.
std::string ExportAttributionTable(const DispatchProfiler& profiler, const OpNamer& op_name,
                                   size_t top_n);

}  // namespace tyche

#endif  // SRC_TYCHE_OBSERVE_H_
