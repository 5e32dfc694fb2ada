#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lusail::obs {

namespace {

/// Label values need the exposition-format escapes (backslash, quote,
/// newline); names are expected to be clean identifiers already.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// HELP text uses a different escape set than label values (exposition
/// format 0.0.4): backslash and newline are escaped, quotes are NOT —
/// they are legal verbatim outside a quoted position. An unescaped
/// newline here would split the comment mid-line and make the next
/// fragment parse as a sample.
std::string EscapeHelpText(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += EscapeLabelValue(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

/// `labels` plus one extra label, for the histogram `le` series.
std::string RenderLabelsWith(const MetricLabels& labels,
                             const std::string& key,
                             const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

std::string FormatNumber(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

/// Upper bound of log-2 bucket `b` in seconds: 2^b microseconds.
double BucketBoundSeconds(size_t b) {
  return std::ldexp(1.0, static_cast<int>(b)) / 1e6;
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

MetricFamily* MetricsSnapshot::Family(const std::string& name,
                                      const std::string& help,
                                      MetricType type) {
  auto it = index_.find(name);
  if (it != index_.end()) return &families_[it->second];
  index_.emplace(name, families_.size());
  MetricFamily family;
  family.name = name;
  family.help = help;
  family.type = type;
  families_.push_back(std::move(family));
  return &families_.back();
}

void MetricsSnapshot::AddCounter(const std::string& name,
                                 const std::string& help, MetricLabels labels,
                                 double value) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Family(name, help, MetricType::kCounter)->samples.push_back(
      std::move(sample));
}

void MetricsSnapshot::AddGauge(const std::string& name,
                               const std::string& help, MetricLabels labels,
                               double value) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Family(name, help, MetricType::kGauge)->samples.push_back(
      std::move(sample));
}

void MetricsSnapshot::AddHistogram(const std::string& name,
                                   const std::string& help,
                                   MetricLabels labels,
                                   const LatencyHistogram& histogram) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.buckets = histogram.buckets();
  sample.count = histogram.count();
  // MeanMs * count recovers the sum the histogram accumulated in µs.
  sample.sum_seconds = histogram.MeanMs() * histogram.count() / 1e3;
  Family(name, help, MetricType::kHistogram)->samples.push_back(
      std::move(sample));
}

void MetricsSnapshot::AddStateSet(const std::string& name,
                                  const std::string& help,
                                  const MetricLabels& labels,
                                  const std::string& key,
                                  const std::vector<std::string>& states,
                                  const std::string& current) {
  for (const std::string& state : states) {
    MetricLabels state_labels = labels;
    state_labels.emplace_back(key, state);
    AddGauge(name, help, std::move(state_labels),
             state == current ? 1.0 : 0.0);
  }
}

const MetricSample* MetricsSnapshot::Find(const std::string& name,
                                          const MetricLabels& labels) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  for (const MetricSample& sample : families_[it->second].samples) {
    if (sample.labels == labels) return &sample;
  }
  return nullptr;
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  for (const MetricFamily& family : families_) {
    out += "# HELP " + family.name + " " + EscapeHelpText(family.help) + "\n";
    out += "# TYPE " + family.name + " " + std::string(TypeName(family.type)) +
           "\n";
    for (const MetricSample& sample : family.samples) {
      if (family.type != MetricType::kHistogram) {
        out += family.name + RenderLabels(sample.labels) + " " +
               FormatNumber(sample.value) + "\n";
        continue;
      }
      // Cumulative buckets up to the highest non-empty one; +Inf always.
      size_t highest = 0;
      for (size_t b = 0; b < sample.buckets.size(); ++b) {
        if (sample.buckets[b] > 0) highest = b + 1;
      }
      uint64_t cumulative = 0;
      for (size_t b = 0; b < highest; ++b) {
        cumulative += sample.buckets[b];
        out += family.name + "_bucket" +
               RenderLabelsWith(sample.labels, "le",
                                FormatNumber(BucketBoundSeconds(b))) +
               " " + std::to_string(cumulative) + "\n";
      }
      out += family.name + "_bucket" +
             RenderLabelsWith(sample.labels, "le", "+Inf") + " " +
             std::to_string(sample.count) + "\n";
      out += family.name + "_sum" + RenderLabels(sample.labels) + " " +
             FormatNumber(sample.sum_seconds) + "\n";
      out += family.name + "_count" + RenderLabels(sample.labels) + " " +
             std::to_string(sample.count) + "\n";
    }
  }
  return out;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();
  for (const MetricFamily& family : families_) {
    JsonValue samples = JsonValue::Array();
    for (const MetricSample& sample : family.samples) {
      JsonValue entry = JsonValue::Object();
      JsonValue labels = JsonValue::Object();
      for (const auto& [key, value] : sample.labels) {
        labels.Set(key, value);
      }
      entry.Set("labels", std::move(labels));
      if (family.type == MetricType::kHistogram) {
        entry.Set("count", sample.count);
        entry.Set("sum_seconds", sample.sum_seconds);
        JsonValue buckets = JsonValue::Array();
        for (size_t b = 0; b < sample.buckets.size(); ++b) {
          if (sample.buckets[b] == 0) continue;
          JsonValue bucket = JsonValue::Object();
          bucket.Set("le", BucketBoundSeconds(b));
          bucket.Set("count", sample.buckets[b]);
          buckets.Append(std::move(bucket));
        }
        entry.Set("buckets", std::move(buckets));
      } else {
        entry.Set("value", sample.value);
      }
      samples.Append(std::move(entry));
    }
    JsonValue body = JsonValue::Object();
    body.Set("type", TypeName(family.type));
    body.Set("samples", std::move(samples));
    out.Set(family.name, std::move(body));
  }
  return out;
}

uint64_t MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t handle = next_handle_++;
  collectors_.emplace_back(handle, std::move(collector));
  return handle;
}

void MetricsRegistry::RemoveCollector(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [handle](const auto& entry) {
                       return entry.first == handle;
                     }),
      collectors_.end());
}

size_t MetricsRegistry::NumCollectors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return collectors_.size();
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snapshot;
  CollectInto(&snapshot);
  return snapshot;
}

void MetricsRegistry::CollectInto(MetricsSnapshot* snapshot) const {
  // Copy the callbacks out so a slow collector never holds the registry
  // lock (collectors may themselves take component locks).
  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors.reserve(collectors_.size());
    for (const auto& [handle, fn] : collectors_) collectors.push_back(fn);
  }
  for (const Collector& fn : collectors) fn(snapshot);
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace lusail::obs
