// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/metrics_registry.h"

namespace tyche {

MetricsRegistry::Child* MetricsRegistry::FindOrAddChild(const std::string& name,
                                                        const std::string& help, MetricType type,
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
  Child* child = FindOrAddChild(name, help, MetricType::kCounter, labels);
  if (child->counter == nullptr) {
    child->counter = std::make_unique<StripedCounter>();
  }
  return child->counter.get();
}

void MetricsRegistry::AddCallback(const std::string& name, const std::string& help,
                                  bool counter, const MetricLabels& labels,
                                  std::function<uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child =
      FindOrAddChild(name, help, counter ? MetricType::kCounter : MetricType::kGauge, labels);
  child->read = std::move(read);
}

void MetricsRegistry::AddHistogram(const std::string& name, const std::string& help,
                                   const MetricLabels& labels,
                                   std::function<HistogramSnapshot()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  Child* child = FindOrAddChild(name, help, MetricType::kHistogram, labels);
  child->histogram = std::move(read);
}

std::vector<MetricFamily> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricFamily> families;
  families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    MetricFamily collected{name, family.help, family.type, {}};
    for (const Child& child : family.children) {
      MetricSeries series{child.labels, 0, {}};
      if (family.type == MetricType::kHistogram) {
        if (!child.histogram) {
          continue;
        }
        series.histogram = child.histogram();
      } else if (child.counter != nullptr) {
        series.value = child.counter->Value();
      } else if (child.read) {
        series.value = child.read();
      }
      collected.series.push_back(std::move(series));
    }
    families.push_back(std::move(collected));
  }
  return families;
}

}  // namespace tyche
