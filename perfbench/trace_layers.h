#ifndef PERFBENCH_TRACE_LAYERS_H_
#define PERFBENCH_TRACE_LAYERS_H_

#include "obs/trace.h"

namespace perfbench {

/// Per-layer self and span times read off one query's trace (the spans
/// the engine emits when LusailOptions::trace is set). Summed over the
/// traced queries of a run; all values in milliseconds.
struct TraceLayers {
  uint64_t queries = 0;
  double query_ms = 0.0;      ///< Root "query" span durations.
  double gjv_ms = 0.0;        ///< "gjv detection" phase spans.
  double count_probe_ms = 0.0;  ///< "statistics" phase spans.
  double decompose_ms = 0.0;  ///< "decomposition" phase spans.
  /// "SAPE execution" spans minus the part of them covered by request or
  /// cache spans: federator-side encode, union, join and filter work.
  double sape_self_ms = 0.0;
  /// Root span after the last phase span ends: solution modifiers and
  /// the final decode.
  double finish_ms = 0.0;
  /// Root-span time covered by spans that name one layer's own work:
  /// requests, cache hits, source selection, GJV checks, statistics and
  /// decomposition. The rest is unattributed: SAPE's federator work,
  /// finishing, parsing and gaps between phases.
  double attributed_ms = 0.0;

  void Add(const lusail::obs::Trace& trace);
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_LAYERS_H_
