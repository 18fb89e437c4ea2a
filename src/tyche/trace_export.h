// Copyright 2026 The Tyche Reproduction Authors.
// Chrome trace_event exporter (DESIGN.md §6 "Metrics & export").
//
// Converts the monitor's TraceRing (wall-clock dispatch spans) plus the
// audit journal's span tree (per-record causal events) into the Chrome
// trace-event JSON format, loadable in chrome://tracing / Perfetto:
//
//  - pid 1 "tyche monitor (dispatch)": one complete ("X") slice per trace
//    entry, tid = core, ts/dur from the entry's steady-clock start and
//    duration. Entries with no start timestamp (hand-built in tests, or
//    recorded before PR 6) are laid out synthetically by sequence number.
//  - journal records whose span matches a dispatch slice become instant
//    ("i") events nested inside that slice's interval, so the cascade a
//    revoke produced reads as child ticks under its dispatch span.
//  - pid 2 "tyche audit journal": records with no matching dispatch slice
//    (direct monitor calls, boot-time minting) on the simulated-cycle
//    timeline, ts = tick.
//
// The matching parser below round-trips the exporter's output; tests use it
// to validate the schema and tools/trace_export uses it as a self-check.

#ifndef SRC_TYCHE_TRACE_EXPORT_H_
#define SRC_TYCHE_TRACE_EXPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/support/journal.h"
#include "src/support/status.h"
#include "src/support/telemetry.h"

namespace tyche {

// A profiler exemplar to join into the timeline: the slowest sample of one
// (op, phase) cell, placed as a global instant event. `span` links it to the
// dispatch slice it was recorded under; `ts_ns` is the steady-clock stamp,
// comparable to TraceEntry::start_ns.
struct TraceExemplarMark {
  std::string name;        // e.g. "slowest kRevoke/journal"
  uint64_t span = 0;       // owning dispatch span id (0 = none)
  uint64_t ts_ns = 0;      // steady-clock ns when the sample was recorded
  uint64_t duration_ns = 0;  // the sample itself, surfaced in args
};

// Renders the trace-event JSON. `op_name` names dispatch ops (ApiOp values),
// `event_name` names journal events (JournalEvent values); both must be
// callable (the tool passes the monitor's tables). `exemplars` (optional)
// are joined as pid-1 instant events: placed inside the owning dispatch
// slice when its span is still in the ring, at their real steady-clock
// position otherwise, and dropped when neither placement is comparable.
std::string ExportChromeTrace(const std::vector<TraceEntry>& trace,
                              const std::vector<JournalRecord>& records,
                              const std::function<std::string(uint16_t)>& op_name,
                              const std::function<std::string(uint8_t)>& event_name,
                              const std::vector<TraceExemplarMark>& exemplars = {});

// One event as the round-trip parser sees it. Only the schema-mandated
// fields plus the span argument the exporter emits.
struct ParsedTraceEvent {
  std::string name;
  std::string phase;   // "X", "i", "M"
  double ts = 0;       // microseconds
  double dur = 0;      // microseconds (complete events)
  int64_t pid = -1;
  int64_t tid = -1;
  uint64_t span = 0;   // args.span when present
};

// Parses a trace-event JSON document produced by ExportChromeTrace (object
// format with a "traceEvents" array). Validates the schema: every event
// must carry name/ph/ts/pid/tid, and "X" events a dur. Not a general JSON
// parser -- strict enough to catch exporter regressions, small enough to
// stay dependency-free.
Result<std::vector<ParsedTraceEvent>> ParseChromeTrace(const std::string& json);

}  // namespace tyche

#endif  // SRC_TYCHE_TRACE_EXPORT_H_
