#ifndef LUSAIL_NET_LATENCY_MODEL_H_
#define LUSAIL_NET_LATENCY_MODEL_H_

#include <cstddef>

namespace lusail::net {

/// Deterministic network cost model for a simulated SPARQL endpoint.
///
/// Every request is charged `request_latency_ms` (round-trip setup) plus
/// transfer time for the query text and the serialized result at
/// `bandwidth_bytes_per_ms`. The charged time is always *accounted* in the
/// metrics; `sleep_scale` times it is additionally *imposed*, so
/// wall-clock measurements reflect network behaviour. Where the wait is
/// imposed depends on the calling thread: under a DeferredWait scope
/// (fed::Federation's request path) it is added to the scope and the
/// federation completes the response on its timer after that long; with
/// no scope (direct callers, server backends, shard-scatter and hedge
/// workers) the calling thread sleeps. sleep_scale = 0 turns the
/// simulation into pure accounting.
///
/// Presets mirror the paper's two deployments: a local cluster (1-10 Gbps
/// Ethernet, sub-millisecond RTT) and a geo-distributed Azure federation
/// (tens of milliseconds RTT across 7 regions, WAN bandwidth).
struct LatencyModel {
  double request_latency_ms = 0.0;
  double bandwidth_bytes_per_ms = 0.0;  ///< 0 means infinite bandwidth.
  double sleep_scale = 1.0;

  /// No latency, infinite bandwidth, no sleeping (unit tests).
  static LatencyModel None() { return LatencyModel{0.0, 0.0, 0.0}; }

  /// ~0.2 ms RTT, 1 Gbps.
  static LatencyModel LocalCluster() {
    return LatencyModel{0.2, 125000.0, 1.0};
  }

  /// ~15 ms RTT, ~20 Mbps effective single-stream WAN throughput
  /// (typical for cross-region transfers).
  static LatencyModel GeoDistributed() {
    return LatencyModel{15.0, 2500.0, 1.0};
  }

  /// Simulated milliseconds charged for one request/response exchange.
  double CostMillis(size_t request_bytes, size_t response_bytes) const {
    double ms = request_latency_ms;
    if (bandwidth_bytes_per_ms > 0.0) {
      ms += static_cast<double>(request_bytes + response_bytes) /
            bandwidth_bytes_per_ms;
    }
    return ms;
  }

  /// Imposes sleep_scale * CostMillis(...): adds it to the thread's
  /// DeferredWait scope when one is installed, else sleeps.
  void Impose(size_t request_bytes, size_t response_bytes) const;
};

/// RAII per-thread collector of simulated network waits. While installed,
/// LatencyModel::Impose on this thread adds its wait here instead of
/// sleeping, so the installer (fed::Federation) can release the thread at
/// once and complete the exchange after millis() on a timer. Scopes nest:
/// destruction restores whatever was installed before.
class DeferredWait {
 public:
  DeferredWait();
  ~DeferredWait();

  DeferredWait(const DeferredWait&) = delete;
  DeferredWait& operator=(const DeferredWait&) = delete;

  /// The wait collected so far, in milliseconds.
  double millis() const { return millis_; }

  /// RAII: hides this thread's scope, so waits imposed while alive are
  /// slept for real. Decorators that time their inner endpoints (replica
  /// health ranking, hedge delays) suspend around them.
  class Suspend {
   public:
    Suspend();
    ~Suspend();

    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;

   private:
    DeferredWait* hidden_;
  };

 private:
  friend struct LatencyModel;

  double millis_ = 0.0;
  DeferredWait* previous_;
};

}  // namespace lusail::net

#endif  // LUSAIL_NET_LATENCY_MODEL_H_
