#include "cache/cached_endpoint.h"

#include "common/string_util.h"

namespace lusail::cache {

Result<net::QueryResponse> CachedAskEndpoint::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  if (!LooksLikeAskQuery(text)) {
    return inner_->QueryCancellable(text, cancel);
  }
  std::string key = FederationCache::Key(id(), text);
  if (std::optional<bool> verdict = cache_->GetVerdict(key)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    net::QueryResponse response;
    response.SetAskVerdict(*verdict);
    response.request_bytes = text.size();
    response.response_bytes =
        core::SerializedBytes(*response.ids, *response.ids_dict);
    return response;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Result<net::QueryResponse> response = inner_->QueryCancellable(text, cancel);
  if (response.ok()) {
    cache_->PutVerdict(key, id(), response->RowCount() > 0);
  }
  return response;
}

}  // namespace lusail::cache
