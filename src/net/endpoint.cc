#include "net/endpoint.h"

#include <algorithm>
#include <utility>

namespace lusail::net {

void QueryResponse::SetAskVerdict(bool holds) {
  // A zero-column table has no ids to resolve; every verdict shares one
  // empty id space.
  static const std::shared_ptr<const rdf::TermSource> kNoTerms =
      std::make_shared<const core::TermDictionary>();
  ids = std::make_shared<core::IdTable>();
  ids->AddEmptyRows(holds ? 1 : 0);
  ids_dict = kNoTerms;
}

// Default streaming: evaluate buffered, then hand the ids to the sink in
// batch_rows slices. The whole table exists once (inside this endpoint),
// but the consumer never holds more than one batch. Wire transports
// override this with true incremental decoding.
Result<StreamSummary> Endpoint::QueryStreaming(const std::string& sparql_text,
                                               const CancelToken& cancel,
                                               const StreamOptions& options,
                                               const StreamSink& sink) {
  Stopwatch timer;
  auto evaluated = QueryCancellable(sparql_text, cancel);
  if (!evaluated.ok()) return evaluated.status();

  std::shared_ptr<core::IdTable> ids = std::move(evaluated->ids);
  StreamSummary summary;
  summary.response = std::move(*evaluated);
  summary.response.ids = std::make_shared<core::IdTable>(ids->vars);

  const size_t batch_rows = std::max<size_t>(1, options.batch_rows);
  const size_t total = ids->NumRows();
  size_t limit = total;
  if (options.max_rows > 0 && options.max_rows < total) {
    limit = static_cast<size_t>(options.max_rows);
    summary.truncated = true;
  }
  if (total > 0 && summary.response.first_row_ms == 0.0) {
    summary.response.first_row_ms = timer.ElapsedMillis();
  }

  // At least one batch: an empty result still tells the sink the vars
  // (the streaming serializer needs them for the head).
  size_t begin = 0;
  do {
    if (cancel.Cancelled()) return cancel.StatusAt("stream delivery");
    const size_t end = std::min(limit, begin + batch_rows);
    StreamBatch batch;
    batch.ids = end - begin == total
                    ? ids
                    : std::make_shared<core::IdTable>(ids->Slice(begin, end));
    batch.ids_dict = summary.response.ids_dict;
    summary.rows_delivered += batch.NumRows();
    LUSAIL_RETURN_NOT_OK(sink(std::move(batch)));
    begin = end;
  } while (begin < limit);
  return summary;
}

}  // namespace lusail::net
