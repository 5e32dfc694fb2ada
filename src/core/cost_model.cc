#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "cache/federation_cache.h"
#include "sparql/probe.h"

namespace lusail::core {

namespace {

struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};

MeanStd ComputeMeanStd(const std::vector<double>& xs,
                       const std::vector<bool>& exclude) {
  MeanStd ms;
  size_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!exclude[i]) {
      ms.mean += xs[i];
      ++n;
    }
  }
  if (n == 0) return ms;
  ms.mean /= static_cast<double>(n);
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!exclude[i]) {
      ms.std += (xs[i] - ms.mean) * (xs[i] - ms.mean);
    }
  }
  ms.std = std::sqrt(ms.std / static_cast<double>(n));
  return ms;
}

}  // namespace

std::string CostModel::CountQueryText(
    const sparql::TriplePattern& tp,
    const std::vector<const sparql::Expr*>& pushed_filters) {
  return sparql::ProbeText(sparql::ProbeKind::kCount,
                           {sparql::ProbeBody(tp, pushed_filters)});
}

Status CostModel::CollectStatistics(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    const net::RetryPolicy* retry, bool tolerate_failures, bool use_cache) {
  fed::IssueContext ctx;
  ctx.metrics = metrics;
  ctx.cancel = cancel;
  ctx.retry = retry;
  return Collect(
      Send(triples, sources, filters, ctx, tolerate_failures, use_cache));
}

CostModel::Sent CostModel::Send(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters, const fed::IssueContext& ctx,
    bool tolerate_failures, bool use_cache) {
  // Cached counts first; every other (pattern, endpoint) pair becomes a
  // probe, and each endpoint's probes go out as one request. Cache keys
  // stay the single-probe text, so they do not depend on the batching.
  Sent sent;
  sent.shared = use_cache ? federation_->query_cache() : nullptr;
  sent.tolerate_failures = tolerate_failures;
  for (size_t ti = 0; ti < triples.size(); ++ti) {
    // Push filters whose variables all appear in this single pattern.
    std::vector<const sparql::Expr*> pushed;
    std::vector<std::string> tp_vars = triples[ti].VariableNames();
    for (const sparql::Expr& f : filters) {
      std::set<std::string> fvars;
      f.CollectVariables(&fvars);
      bool covered = !fvars.empty();
      for (const std::string& v : fvars) {
        if (std::find(tp_vars.begin(), tp_vars.end(), v) == tp_vars.end()) {
          covered = false;
          break;
        }
      }
      if (covered) pushed.push_back(&f);
    }
    std::string body = sparql::ProbeBody(triples[ti], pushed);
    std::string text = sparql::ProbeText(sparql::ProbeKind::kCount, {body});
    for (int ep : sources[ti]) {
      std::string key = cache::FederationCache::Key(
          federation_->id(static_cast<size_t>(ep)), text);
      if (sent.shared != nullptr) {
        std::optional<uint64_t> cached = sent.shared->GetCount(key);
        if (cached.has_value()) {
          counts_[{static_cast<int>(ti), ep}] = *cached;
          continue;
        }
      }
      sent.probes.push_back({static_cast<size_t>(ep), body});
      sent.probe_tp.push_back(static_cast<int>(ti));
      sent.probe_key.push_back(std::move(key));
    }
  }
  sent.requests = federation_->SendProbes(pool_, sparql::ProbeKind::kCount,
                                          sent.probes, ctx);
  return sent;
}

Status CostModel::Collect(Sent sent) {
  std::vector<Result<uint64_t>> answers =
      fed::Federation::CollectProbes(std::move(sent.requests));
  size_t failed = 0;
  Status first_error;
  for (size_t i = 0; i < sent.probes.size(); ++i) {
    if (!answers[i].ok()) {
      ++failed;
      if (first_error.ok()) first_error = answers[i].status();
      continue;
    }
    const size_t ep = sent.probes[i].endpoint;
    counts_[{sent.probe_tp[i], static_cast<int>(ep)}] = *answers[i];
    if (sent.shared != nullptr) {
      sent.shared->PutCount(sent.probe_key[i], federation_->id(ep),
                            *answers[i]);
    }
  }
  if (failed > 0 && !sent.tolerate_failures) {
    return Status(first_error.code(),
                  std::to_string(failed) + " of " +
                      std::to_string(sent.probes.size()) +
                      " COUNT probes failed; first: " +
                      first_error.ToString());
  }
  return Status::OK();
}

uint64_t CostModel::PatternCount(int tp_index, int ep) const {
  auto it = counts_.find({tp_index, ep});
  return it == counts_.end() ? 0 : it->second;
}

uint64_t CostModel::PatternTotal(int tp_index) const {
  uint64_t total = 0;
  for (const auto& [key, count] : counts_) {
    if (key.first == tp_index) total += count;
  }
  return total;
}

double CostModel::SubqueryCardinality(
    const Subquery& sq,
    const std::vector<sparql::TriplePattern>& triples) const {
  std::vector<std::string> vars =
      sq.projection.empty() ? sq.Variables(triples) : sq.projection;
  double best = 0.0;
  bool any_var = false;
  for (const std::string& v : vars) {
    // Patterns of this subquery containing v.
    std::vector<int> with_v;
    for (int ti : sq.triple_indices) {
      const auto names = triples[ti].VariableNames();
      if (std::find(names.begin(), names.end(), v) != names.end()) {
        with_v.push_back(ti);
      }
    }
    if (with_v.empty()) continue;
    any_var = true;
    double total = 0.0;
    for (int ep : sq.sources) {
      uint64_t min_count = std::numeric_limits<uint64_t>::max();
      for (int ti : with_v) {
        min_count = std::min(min_count, PatternCount(ti, ep));
      }
      total += static_cast<double>(min_count);
    }
    best = std::max(best, total);
  }
  if (!any_var) {
    // Fully ground subquery: at most one row per endpoint.
    return static_cast<double>(sq.sources.size());
  }
  return best;
}

double CostModel::DecompositionCost(
    const std::vector<Subquery>& subqueries,
    const std::vector<sparql::TriplePattern>& triples) const {
  double total = 0.0;
  for (const Subquery& sq : subqueries) {
    total += SubqueryCardinality(sq, triples);
  }
  return total;
}

std::vector<bool> ChauvenetOutliers(const std::vector<double>& values) {
  std::vector<bool> outlier(values.size(), false);
  if (values.size() < 3) return outlier;
  const double n = static_cast<double>(values.size());
  // Iterate to a fixpoint (bounded by the sample size).
  for (size_t round = 0; round < values.size(); ++round) {
    MeanStd ms = ComputeMeanStd(values, outlier);
    if (ms.std <= 0.0) break;
    bool changed = false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (outlier[i]) continue;
      double z = std::fabs(values[i] - ms.mean) / ms.std;
      double expected = n * std::erfc(z / std::sqrt(2.0));
      if (expected < 0.5) {
        outlier[i] = true;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return outlier;
}

std::vector<bool> DecideDelayed(const std::vector<double>& cardinalities,
                                const std::vector<double>& endpoint_counts,
                                DelayThreshold threshold) {
  const size_t n = cardinalities.size();
  std::vector<bool> delayed(n, false);
  if (n <= 1) return delayed;

  std::vector<bool> card_outliers = ChauvenetOutliers(cardinalities);
  std::vector<bool> ep_outliers = ChauvenetOutliers(endpoint_counts);

  if (threshold == DelayThreshold::kOutliersOnly) {
    for (size_t i = 0; i < n; ++i) {
      delayed[i] = card_outliers[i] || ep_outliers[i];
    }
  } else {
    double k = 0.0;
    if (threshold == DelayThreshold::kMuSigma) k = 1.0;
    if (threshold == DelayThreshold::kMu2Sigma) k = 2.0;
    MeanStd card_ms = ComputeMeanStd(cardinalities, card_outliers);
    MeanStd ep_ms = ComputeMeanStd(endpoint_counts, ep_outliers);
    // The comparison is >= so that with only two subqueries the larger one
    // is still delayed (for n = 2, max == mu + sigma exactly); the
    // strictly-above-minimum guard keeps equal-valued sets undelayed.
    double card_min = *std::min_element(cardinalities.begin(),
                                        cardinalities.end());
    double ep_min = *std::min_element(endpoint_counts.begin(),
                                      endpoint_counts.end());
    for (size_t i = 0; i < n; ++i) {
      bool by_cardinality =
          cardinalities[i] >= card_ms.mean + k * card_ms.std &&
          cardinalities[i] > card_min;
      bool by_endpoints = endpoint_counts[i] >= ep_ms.mean + k * ep_ms.std &&
                          endpoint_counts[i] > ep_min;
      delayed[i] = by_cardinality || by_endpoints;
    }
  }

  // At least one subquery must run in the concurrent phase to seed the
  // bound joins: un-delay the one with the smallest cardinality.
  if (std::all_of(delayed.begin(), delayed.end(), [](bool d) { return d; })) {
    size_t smallest = 0;
    for (size_t i = 1; i < n; ++i) {
      if (cardinalities[i] < cardinalities[smallest]) smallest = i;
    }
    delayed[smallest] = false;
  }
  return delayed;
}

}  // namespace lusail::core
