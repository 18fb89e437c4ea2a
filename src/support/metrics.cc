// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tyche {

namespace metrics_internal {

thread_local size_t tls_stripe_plus1 = 0;

size_t AssignThisThreadStripe() {
  static std::atomic<size_t> next_stripe{0};
  tls_stripe_plus1 =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kMetricStripes + 1;
  return tls_stripe_plus1;
}

}  // namespace metrics_internal

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

namespace {

// Renders a label set with one extra label appended (for histogram "le").
std::string RenderWithExtraLabel(const std::string& name, const MetricLabels& labels,
                                 const std::string& key, const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderSeriesName(name, extended);
}

}  // namespace

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size());
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i].first = other.buckets[i].first;
    buckets[i].second += other.buckets[i].second;
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample, 1-based (nearest-rank definition).
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p / 100.0 * count + 0.5));
  uint64_t seen = 0;
  for (const auto& [bound, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen >= rank) {
      return bound;
    }
  }
  return max;
}

HistogramSnapshot Log2Histogram::Snapshot() const {
  std::array<uint64_t, kBuckets> counts;
  size_t used = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    if (counts[i] != 0) {
      used = i + 1;
    }
  }
  HistogramSnapshot snapshot;
  snapshot.buckets.reserve(used);
  for (size_t i = 0; i < used; ++i) {
    snapshot.buckets.emplace_back(BucketUpperBound(i), counts[i]);
    snapshot.count += counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

void Log2Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Child* MetricsRegistry::FindOrAddChild(const std::string& name,
                                                        const std::string& help, Type type,
                                                        const MetricLabels& labels) {
  Family& family = families_[name];
  if (family.children.empty()) {
    family.help = help;
    family.type = type;
  }
  for (Child& child : family.children) {
    if (child.labels == labels) {
      return &child;
    }
  }
  family.children.emplace_back();
  family.children.back().labels = labels;
  return &family.children.back();
}

StripedCounter* MetricsRegistry::AddCounter(const std::string& name, const std::string& help,
                                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child = FindOrAddChild(name, help, Type::kCounter, labels);
  if (child->counter == nullptr) {
    child->counter = std::make_unique<StripedCounter>();
  }
  return child->counter.get();
}

MetricGauge* MetricsRegistry::AddGauge(const std::string& name, const std::string& help,
                                       const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child = FindOrAddChild(name, help, Type::kGauge, labels);
  if (child->gauge == nullptr) {
    child->gauge = std::make_unique<MetricGauge>();
  }
  return child->gauge.get();
}

void MetricsRegistry::AddCallback(const std::string& name, const std::string& help,
                                  bool counter, const MetricLabels& labels,
                                  std::function<uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child =
      FindOrAddChild(name, help, counter ? Type::kCounter : Type::kGauge, labels);
  child->read = std::move(read);
}

void MetricsRegistry::AddHistogram(const std::string& name, const std::string& help,
                                   const MetricLabels& labels,
                                   std::function<HistogramSnapshot()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child = FindOrAddChild(name, help, Type::kHistogram, labels);
  child->histogram = std::move(read);
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    const char* type_name = family.type == Type::kCounter    ? "counter"
                            : family.type == Type::kGauge    ? "gauge"
                                                             : "histogram";
    out << "# HELP " << name << " " << PromEscapeHelp(family.help) << "\n";
    out << "# TYPE " << name << " " << type_name << "\n";
    for (const Child& child : family.children) {
      if (family.type == Type::kHistogram) {
        if (!child.histogram) {
          continue;
        }
        const HistogramSnapshot snapshot = child.histogram();
        uint64_t cumulative = 0;
        for (const auto& [bound, count] : snapshot.buckets) {
          cumulative += count;
          out << RenderWithExtraLabel(name + "_bucket", child.labels, "le",
                                      std::to_string(bound))
              << " " << cumulative << "\n";
        }
        out << RenderWithExtraLabel(name + "_bucket", child.labels, "le", "+Inf") << " "
            << snapshot.count << "\n";
        out << RenderSeriesName(name + "_sum", child.labels) << " " << snapshot.sum << "\n";
        out << RenderSeriesName(name + "_count", child.labels) << " " << snapshot.count
            << "\n";
        continue;
      }
      uint64_t value = 0;
      if (child.counter != nullptr) {
        value = child.counter->Value();
      } else if (child.gauge != nullptr) {
        value = static_cast<uint64_t>(child.gauge->Value());
      } else if (child.read) {
        value = child.read();
      }
      out << RenderSeriesName(name, child.labels) << " " << value << "\n";
    }
  }
  return out.str();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::ScalarValues(
    bool include_callbacks) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> values;
  for (const auto& [name, family] : families_) {
    if (family.type == Type::kHistogram) {
      continue;
    }
    for (const Child& child : family.children) {
      uint64_t value = 0;
      if (child.counter != nullptr) {
        value = child.counter->Value();
      } else if (child.gauge != nullptr) {
        value = static_cast<uint64_t>(child.gauge->Value());
      } else if (child.read) {
        if (!include_callbacks) {
          continue;
        }
        value = child.read();
      }
      values.emplace_back(RenderSeriesName(name, child.labels), value);
    }
  }
  return values;
}

}  // namespace tyche
