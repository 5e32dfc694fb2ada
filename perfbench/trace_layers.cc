#include "trace_layers.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using lusail::obs::Span;
using Interval = std::pair<double, double>;

Interval Extent(const Span& span) {
  return {span.start_us, span.start_us + std::max(0.0, span.duration_us)};
}

/// Length of the union of `intervals` clipped to `window`.
double CoveredUs(std::vector<Interval> intervals, Interval window) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = window.first;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, window.second);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

bool IsDescendant(const lusail::obs::Trace& trace, const Span& span,
                  lusail::obs::SpanId ancestor) {
  for (lusail::obs::SpanId p = span.parent; p != 0;) {
    if (p == ancestor) return true;
    const Span* parent = trace.Find(p);
    if (parent == nullptr) return false;
    p = parent->parent;
  }
  return false;
}

bool IsLayerWork(const Span& span) {
  if (span.category == "request" || span.category == "cache") return true;
  if (span.category != "phase") return false;
  return span.name == "source selection" || span.name == "gjv detection" ||
         span.name == "statistics" || span.name == "decomposition";
}

}  // namespace

void TraceLayers::Add(const lusail::obs::Trace& trace) {
  const Span* root = nullptr;
  for (const Span& span : trace.spans) {
    if (span.category == "query" && span.parent == 0) {
      root = &span;
      break;
    }
  }
  if (root == nullptr) return;
  const Interval root_extent = Extent(*root);
  ++queries;
  query_ms += (root_extent.second - root_extent.first) / 1000.0;

  double last_phase_end = root_extent.first;
  std::vector<Interval> layer_work;
  for (const Span& span : trace.spans) {
    // Remote (grafted server) spans run on another clock base; the
    // client-side request span already covers them.
    if (span.process_id != 0) continue;
    const Interval extent = Extent(span);
    const double ms = (extent.second - extent.first) / 1000.0;
    if (span.category == "phase") {
      last_phase_end = std::max(last_phase_end, extent.second);
      if (span.name == "gjv detection") gjv_ms += ms;
      if (span.name == "statistics") count_probe_ms += ms;
      if (span.name == "decomposition") decompose_ms += ms;
      if (span.name == "SAPE execution") {
        std::vector<Interval> waits;
        for (const Span& inner : trace.spans) {
          if ((inner.category == "request" || inner.category == "cache") &&
              IsDescendant(trace, inner, span.id)) {
            waits.push_back(Extent(inner));
          }
        }
        sape_self_ms += ms - CoveredUs(std::move(waits), extent) / 1000.0;
      }
    }
    if (IsLayerWork(span)) layer_work.push_back(extent);
  }
  finish_ms += std::max(0.0, root_extent.second - last_phase_end) / 1000.0;
  attributed_ms += CoveredUs(std::move(layer_work), root_extent) / 1000.0;
}

}  // namespace perfbench
