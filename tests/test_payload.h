#ifndef LUSAIL_TESTS_TEST_PAYLOAD_H_
#define LUSAIL_TESTS_TEST_PAYLOAD_H_

#include <memory>

#include "cache/federation_cache.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "net/endpoint.h"
#include "sparql/result_table.h"

namespace lusail {

/// Sets `response`'s ID-space payload to `table`, interned into a
/// dictionary of its own (how test endpoints answer with fixed rows).
inline void SetPayload(net::QueryResponse* response,
                       const sparql::ResultTable& table) {
  auto dict = std::make_shared<core::TermDictionary>();
  response->ids = std::make_shared<core::IdTable>(
      core::EncodeResultTable(table, dict.get()));
  response->ids_dict = std::move(dict);
}

/// `table` as a result-cache entry, encoded as SetPayload encodes it.
inline cache::CachedAnswer IdPayload(const sparql::ResultTable& table) {
  net::QueryResponse response;
  SetPayload(&response, table);
  return {response.ids, response.ids_dict};
}

}  // namespace lusail

#endif  // LUSAIL_TESTS_TEST_PAYLOAD_H_
