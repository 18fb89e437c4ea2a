// Copyright 2026 The Tyche Reproduction Authors.
// Named metric families, and a registry that owns them (DESIGN.md §6
// "Metrics & export").
//
// This is libtyche, outside the monitor's trusted computing base. The
// monitor counts with nameless StripedCounters and hands out one typed
// sample (Monitor::stats()); observe.h's MonitorMetrics names that sample
// as MetricFamily values. Code that keeps its own named counters -- the
// fleet front end -- registers them here:
//
//  - MetricFamily / MetricSeries: a family as collected -- name, help, type,
//    and its series with their labels and a value or a histogram snapshot.
//    RenderPrometheus (observe.h) turns a list of them into the scrape.
//  - MetricsRegistry: named families of native striped counters, pull
//    callbacks for signals owned elsewhere, and histogram views, each with
//    optional labels. Collect() is its one walk.

#ifndef SRC_TYCHE_METRICS_REGISTRY_H_
#define SRC_TYCHE_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/metrics.h"

namespace tyche {

// label key/value pairs, kept in the order given.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

// One child series as collected: its labels and, by family type, either a
// scalar value or a histogram snapshot.
struct MetricSeries {
  MetricLabels labels;
  uint64_t value = 0;
  HistogramSnapshot histogram;
};

// One family as collected: children in registration order.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricSeries> series;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create a native striped counter child. The returned pointer is
  // stable for the registry's lifetime; hot paths cache it and never touch
  // the registry again.
  StripedCounter* AddCounter(const std::string& name, const std::string& help,
                             const MetricLabels& labels = {});

  // Registers a pull callback for a signal owned elsewhere. `counter`
  // controls the TYPE line (counter vs gauge).
  void AddCallback(const std::string& name, const std::string& help, bool counter,
                   const MetricLabels& labels, std::function<uint64_t()> read);

  // Registers a histogram view; the callback snapshots the source histogram
  // at collection time.
  void AddHistogram(const std::string& name, const std::string& help,
                    const MetricLabels& labels, std::function<HistogramSnapshot()> read);

  // The one collection walk: families sorted by name, children in
  // registration order.
  std::vector<MetricFamily> Collect() const;

 private:
  struct Child {
    MetricLabels labels;
    std::unique_ptr<StripedCounter> counter;     // native counter
    std::function<uint64_t()> read;              // callback scalar
    std::function<HistogramSnapshot()> histogram;  // callback histogram
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Child> children;
  };

  Child* FindOrAddChild(const std::string& name, const std::string& help, MetricType type,
                        const MetricLabels& labels);

  mutable std::mutex mu_;  // guards families_ shape; cell updates are atomic
  std::map<std::string, Family> families_;
};

}  // namespace tyche

#endif  // SRC_TYCHE_METRICS_REGISTRY_H_
