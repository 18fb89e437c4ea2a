// Copyright 2026 The Tyche Reproduction Authors.
// Golden renders for src/tyche/observe.h. Each expected string below was
// captured from the renderers as they stood inside tyche_support, before
// they moved out of the monitor's link closure, on the same hand-built
// fixtures: the scrape, the flight dump and the profile text must stay
// byte-for-byte what tools and dashboards already parse. A renderer change
// that alters one of them is a format break, not a golden to update.

#include "src/tyche/observe.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace tyche {
namespace {

std::string OpName(uint16_t op) { return "op" + std::to_string(op); }

TraceEntry Entry(uint16_t op, uint32_t domain, uint64_t span, uint64_t error, uint64_t ns) {
  TraceEntry entry;
  entry.op = op;
  entry.core = 1;
  entry.domain = domain;
  entry.span = span;
  entry.args_digest = 0xabcdef;
  entry.error = error;
  entry.duration_ns = ns;
  entry.start_ns = 1000 + ns;
  return entry;
}

// Counters with two label sets, a help string and a label value that need
// escaping, callback gauge and counter, a histogram and an empty one.
std::string RenderRegistry() {
  MetricsRegistry registry;
  const std::string help = "ABI calls \\ by op\nsecond line";
  registry.AddCounter("tyche_calls_total", help, {{"op", "create"}})->Add(3);
  registry.AddCounter("tyche_calls_total", help, {{"op", "say \"hi\"\\\n"}})->Add(1);
  registry.AddCallback("tyche_alive", "live domains", /*counter=*/false, {}, [] { return 2; });
  registry.AddCallback("tyche_backend_ops_total", "backend ops", /*counter=*/true,
                       {{"backend", "vtx"}, {"op", "sync"}}, [] { return 17; });
  registry.AddHistogram("tyche_lat_ns", "latency", {{"op", "seal"}}, [] {
    HistogramSnapshot snapshot;
    snapshot.buckets = {{1, 2}, {2, 0}, {4, 3}};
    snapshot.count = 5;
    snapshot.sum = 14;
    snapshot.max = 4;
    return snapshot;
  });
  registry.AddHistogram("tyche_empty_ns", "empty histogram", {},
                        [] { return HistogramSnapshot{}; });
  return RenderPrometheus(registry.Collect());
}

// Three captures (fault site with an escaped detail, a dispatch error, a
// recovery with op ~0) over a ring trimmed to the last two entries; the
// deltas cover a counter whose name carries a label that needs escaping, and
// a counter that never moves and must not appear.
std::string RenderFlight(const OpNamer& op_name) {
  TraceRing ring(8);
  std::array<StripedCounter, 3> counters;
  FlightRecorder recorder(&ring, counters, /*capacity=*/4, /*last_n=*/2);
  StripedCounter* calls = &counters[0];
  StripedCounter* errors = &counters[1];
  const CounterNamer counter_name = [](size_t index) {
    const MetricLabels labels[] = {{{"op", "a\"b"}}, {}, {}};
    const char* names[] = {"tyche_calls_total", "tyche_errors_total", "tyche_idle_total"};
    return RenderSeriesName(names[index], labels[index]);
  };
  ring.Record(Entry(1, 0, 10, 0, 40));
  ring.Record(Entry(2, kTraceNoDomain, 11, 3, 55));
  calls->Add(2);
  recorder.Capture("fault_site", 2, 11, 3, std::string("site\x01\"name\"\n"));
  ring.Record(Entry(3, 4, 12, 0, 70));
  errors->Add(1);
  recorder.OnDispatchError(5, 12, 2);
  calls->Add(1);
  recorder.Capture("recovery", static_cast<uint16_t>(~0u), 0, 0, "replayed 3 records");
  return ExportFlightJson(recorder, op_name, counter_name);
}

void FillProfiler(DispatchProfiler& profiler) {
  profiler.set_enabled(true);
  profiler.RecordDetached(1, DispatchPhase::kEngine, 100, 1, 1);
  profiler.RecordDetached(1, DispatchPhase::kEngine, 150, 2, 2);
  profiler.RecordDetached(3, DispatchPhase::kJournal, 40, 3, 3);
  profiler.RecordDetached(0, DispatchPhase::kApiLockWait, 7, 4, 4);
  profiler.RecordDetached(2, DispatchPhase::kOther, 1000, 5, 5);
  profiler.RecordDetached(2, DispatchPhase::kBackend, 333, 6, 6);
}

std::string RenderAttribution(size_t top_n) {
  DispatchProfiler profiler(4);
  FillProfiler(profiler);
  return ExportAttributionTable(profiler, OpName, top_n);
}

struct GoldenCase {
  const char* name;
  std::string (*render)();
  const char* expected;
};

const GoldenCase kCases[] = {
    {"prometheus", RenderRegistry,
     "# HELP tyche_alive live domains\n"
     "# TYPE tyche_alive gauge\n"
     "tyche_alive 2\n"
     "# HELP tyche_backend_ops_total backend ops\n"
     "# TYPE tyche_backend_ops_total counter\n"
     "tyche_backend_ops_total{backend=\"vtx\","
     "op=\"sync\"} 17\n"
     "# HELP tyche_calls_total ABI calls \\\\ by op\\nsecond line\n"
     "# TYPE tyche_calls_total counter\n"
     "tyche_calls_total{op=\"create\"} 3\n"
     "tyche_calls_total{op=\"say \\\"hi\\\"\\\\\\n\"} 1\n"
     "# HELP tyche_empty_ns empty histogram\n"
     "# TYPE tyche_empty_ns histogram\n"
     "tyche_empty_ns_bucket{le=\"+Inf\"} 0\n"
     "tyche_empty_ns_sum 0\n"
     "tyche_empty_ns_count 0\n"
     "# HELP tyche_lat_ns latency\n"
     "# TYPE tyche_lat_ns histogram\n"
     "tyche_lat_ns_bucket{op=\"seal\",le=\"1\"} 2\n"
     "tyche_lat_ns_bucket{op=\"seal\",le=\"2\"} 2\n"
     "tyche_lat_ns_bucket{op=\"seal\",le=\"4\"} 5\n"
     "tyche_lat_ns_bucket{op=\"seal\",le=\"+Inf\"} 5\n"
     "tyche_lat_ns_sum{op=\"seal\"} 14\n"
     "tyche_lat_ns_count{op=\"seal\"} 5\n"},
    {"flight_json_op_indices", [] { return RenderFlight(nullptr); },
     "[{\"id\":0,\"reason\":\"fault_site\",\"op\":\"2\",\"span\":11,\"error\":3,"
     "\"detail\":\"site\\u0001\\\"name\\\"\\n\",\"trace\":[{\"seq\":0,\"op\":\"1\","
     "\"core\":1,\"domain\":0,\"span\":10,\"error\":0,\"duration_ns\":40},"
     "{\"seq\":1,\"op\":\"2\",\"core\":1,\"domain\":4294967295,\"span\":11,"
     "\"error\":3,\"duration_ns\":55}],"
     "\"metrics_delta\":{\"tyche_calls_total{op=\\\"a\\\\\\\"b\\\"}\":2}},{\"id\":1,"
     "\"reason\":\"dispatch_error\",\"op\":\"5\",\"span\":12,\"error\":2,"
     "\"detail\":\"\",\"trace\":[{\"seq\":1,\"op\":\"2\",\"core\":1,"
     "\"domain\":4294967295,\"span\":11,\"error\":3,\"duration_ns\":55},{\"seq\":2,"
     "\"op\":\"3\",\"core\":1,\"domain\":4,\"span\":12,\"error\":0,"
     "\"duration_ns\":70}],\"metrics_delta\":{\"tyche_errors_total\":1}},{\"id\":2,"
     "\"reason\":\"recovery\",\"op\":\"65535\",\"span\":0,\"error\":0,"
     "\"detail\":\"replayed 3 records\",\"trace\":[{\"seq\":1,\"op\":\"2\","
     "\"core\":1,\"domain\":4294967295,\"span\":11,\"error\":3,\"duration_ns\":55},"
     "{\"seq\":2,\"op\":\"3\",\"core\":1,\"domain\":4,\"span\":12,\"error\":0,"
     "\"duration_ns\":70}],"
     "\"metrics_delta\":{\"tyche_calls_total{op=\\\"a\\\\\\\"b\\\"}\":1}}]"},
    {"flight_json_op_names", [] { return RenderFlight(OpName); },
     "[{\"id\":0,\"reason\":\"fault_site\",\"op\":\"op2\",\"span\":11,\"error\":3,"
     "\"detail\":\"site\\u0001\\\"name\\\"\\n\",\"trace\":[{\"seq\":0,"
     "\"op\":\"op1\",\"core\":1,\"domain\":0,\"span\":10,\"error\":0,"
     "\"duration_ns\":40},{\"seq\":1,\"op\":\"op2\",\"core\":1,"
     "\"domain\":4294967295,\"span\":11,\"error\":3,\"duration_ns\":55}],"
     "\"metrics_delta\":{\"tyche_calls_total{op=\\\"a\\\\\\\"b\\\"}\":2}},{\"id\":1,"
     "\"reason\":\"dispatch_error\",\"op\":\"op5\",\"span\":12,\"error\":2,"
     "\"detail\":\"\",\"trace\":[{\"seq\":1,\"op\":\"op2\",\"core\":1,"
     "\"domain\":4294967295,\"span\":11,\"error\":3,\"duration_ns\":55},{\"seq\":2,"
     "\"op\":\"op3\",\"core\":1,\"domain\":4,\"span\":12,\"error\":0,"
     "\"duration_ns\":70}],\"metrics_delta\":{\"tyche_errors_total\":1}},{\"id\":2,"
     "\"reason\":\"recovery\",\"op\":\"op65535\",\"span\":0,\"error\":0,"
     "\"detail\":\"replayed 3 records\",\"trace\":[{\"seq\":1,\"op\":\"op2\","
     "\"core\":1,\"domain\":4294967295,\"span\":11,\"error\":3,\"duration_ns\":55},"
     "{\"seq\":2,\"op\":\"op3\",\"core\":1,\"domain\":4,\"span\":12,\"error\":0,"
     "\"duration_ns\":70}],"
     "\"metrics_delta\":{\"tyche_calls_total{op=\\\"a\\\\\\\"b\\\"}\":1}}]"},
    {"folded_stacks",
     [] {
       DispatchProfiler profiler(4);
       FillProfiler(profiler);
       return ExportFoldedStacks(profiler, OpName);
     },
     "op0;api_lock_wait 7\n"
     "op1;engine 250\n"
     "op2;backend 333\n"
     "op2;other 1000\n"
     "op3;journal 40\n"},
    {"attribution_table", [] { return RenderAttribution(10); },
     "op;phase                                count     total_ns      mean_ns  share\n"
     "op2;other                                   1         1000         1000  61.3%\n"
     "op2;backend                                 1          333          333  20.4%\n"
     "op1;engine                                  2          250          125  15.3%\n"
     "op3;journal                                 1           40           40   2.5%\n"
     "op0;api_lock_wait                           1            7            7   0.4%\n"},
    {"attribution_table_top_2", [] { return RenderAttribution(2); },
     "op;phase                                count     total_ns      mean_ns  share\n"
     "op2;other                                   1         1000         1000  61.3%\n"
     "op2;backend                                 1          333          333  20.4%\n"},
    {"op_summary",
     [] {
       Telemetry telemetry(4);
       telemetry.RecordCall(Entry(1, 0, 1, 0, 50));
       telemetry.RecordCall(Entry(1, 0, 2, 0, 900));
       telemetry.RecordCall(Entry(3, 0, 3, 0, 12345));
       return ExportOpSummary(telemetry, OpName);
     },
     "op                         calls       p50(ns)     p99(ns)     max(ns)\n"
     "op1                      2  64  1024  900\n"
     "op3                      1  16384  16384  12345\n"},
};

TEST(ObserveGoldenTest, RendersAreByteIdentical) {
  for (const GoldenCase& golden : kCases) {
    EXPECT_EQ(golden.render(), golden.expected) << golden.name;
  }
}

}  // namespace
}  // namespace tyche
