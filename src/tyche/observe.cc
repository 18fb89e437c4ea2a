// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/observe.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

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

}  // namespace

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

std::string ExportFlightJson(const FlightRecorder& recorder, const OpNamer& op_name) {
  const auto name_of = [&op_name](uint16_t op) {
    return EscapeJsonString(op_name ? op_name(op) : std::to_string(op));
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
      const MetricDelta& delta = record.metrics_delta[j];
      if (j > 0) {
        out << ",";
      }
      out << '"' << EscapeJsonString(RenderSeriesName(delta.name, delta.labels))
          << "\":" << delta.delta;
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
