#ifndef LUSAIL_RPC_RESULTS_JSON_H_
#define LUSAIL_RPC_RESULTS_JSON_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "rdf/dictionary.h"
#include "sparql/result_table.h"

namespace lusail::rpc {

/// SPARQL 1.1 Query Results JSON Format (SRJ, application/sparql-results+json)
/// writer/reader pair. This is the wire format the rpc layer ships
/// between lusail_endpointd servers and HttpSparqlEndpoint clients, and
/// what lusail_cli emits with --format srj. Neither half builds a JSON
/// tree: the writer appends compact SRJ straight from terms, and the
/// reader is one single-pass scanner that interns each term as its value
/// object closes.
///
/// The mapping round-trips sparql::ResultTable exactly:
///   - IRIs            -> {"type":"uri","value":...}
///   - plain literals  -> {"type":"literal","value":...}
///   - typed literals  -> {"type":"literal","value":...,"datatype":...}
///   - lang literals   -> {"type":"literal","value":...,"xml:lang":...}
///   - blank nodes     -> {"type":"bnode","value":...}
///   - unbound / UNDEF -> the variable is omitted from the binding object
///
/// Annotation precedence (writer and reader agree, locked by the codec
/// tests): a non-empty language tag wins — a literal carrying both a
/// lang tag and a datatype is written with xml:lang only and read back as
/// a lang literal. An xml:lang member that is present but the empty
/// string is treated as absent (no language), so a datatype alongside it
/// is honored instead of silently dropped. Empty-string literal *values*
/// ("") are ordinary literals and round-trip bound.
///
/// ASK results follow the spec's boolean form: a zero-column table (the
/// net::Endpoint contract for ASK, 0 or 1 rows) is written as
/// {"head":{},"boolean":...} and read back as a zero-column table.

/// `table`, whose ids resolve through `terms`, as a compact SRJ string.
/// Each column is resolved with one TermSource::TermBatch per block of
/// rows; the pass is reported to `terms` as one decode batch.
std::string IdTableToSrj(const core::IdTable& table,
                         const rdf::TermSource& terms);

/// The table as a compact SRJ string (the same writer, fed from string
/// rows; byte-identical to IdTableToSrj over the same terms).
std::string ResultTableToSrj(const sparql::ResultTable& table);

/// Parses an SRJ document straight into dictionary id space: every bound
/// term is interned into `dict` as its value object closes, so string
/// Term rows are never materialized (the transport-level half of late
/// materialization). Every rejection — malformed JSON, nesting deeper
/// than obs::kJsonMaxDepth, or well-formed JSON that is not a valid SRJ
/// document (missing head, unknown term type, ...) — fails with
/// kInvalidArgument. Terms of bindings decoded before the failing byte
/// may already be interned into `dict`.
///
/// Members may come in any order, except that a boolean member after a
/// results object does not excuse errors already found in the results;
/// the first occurrence of a repeated member is the one that counts.
Result<core::IdTable> ParseSrjToIds(std::string_view text,
                                    core::TermDictionary* dict);

/// ParseSrjToIds into a local dictionary, decoded back to a table (for
/// callers that want strings, such as tests and tools).
Result<sparql::ResultTable> ParseSrj(std::string_view text);

// --- Streaming SRJ (chunked transfer) ------------------------------------
//
// A streamed SELECT response is the same SRJ document, emitted in pieces:
// SrjStreamPrefix (head + the opening of the bindings array), then any
// number of binding batches (AppendSrjBindings / SrjStreamBindings), then
// SrjStreamSuffix. Concatenating the pieces yields exactly what
// ResultTableToSrj would have produced, so a buffered client that
// de-chunks the body parses it with ParseSrj unchanged.

/// `{"head":{"vars":[...]},"results":{"bindings":[` — the streamed
/// document up to the first binding.
std::string SrjStreamPrefix(const std::vector<std::string>& vars);

/// Appends `batch`'s rows, whose ids resolve through `terms`, to `*out`
/// as comma-separated binding objects. `*first` says whether the next
/// binding is the first of the whole stream (no leading comma); it is
/// updated across calls.
void AppendSrjBindings(const core::IdTable& batch,
                       const rdf::TermSource& terms, bool* first,
                       std::string* out);

/// AppendSrjBindings for string rows, into a fresh string.
std::string SrjStreamBindings(const sparql::ResultTable& batch, bool* first);

/// `]}}` — closes the bindings array, the results object, and the root.
std::string SrjStreamSuffix();

namespace internal {
class SrjScanner;
}  // namespace internal

/// Incremental SRJ parser: feed response bytes in arbitrary slices (wire
/// chunks cut anywhere — mid-escape, mid-UTF-8 sequence, mid-binding) and
/// drain complete rows in batches as they decode. Rows land directly in
/// ID space through the decoder's dictionary. It runs the same scanner as
/// ParseSrjToIds, so for any byte sequence and any way of slicing it the
/// two accept the same documents, decode the same rows, and reject with
/// the same status code.
///
/// Rows are pending as soon as their binding object closes, provided the
/// head's vars came first (both this repo's writer and the spec's
/// examples put the head first); bindings that precede the head are held
/// until the document completes. ASK responses — no bindings array — are
/// surfaced when the root object completes as a zero-variable table with
/// 0 or 1 rows, matching ParseSrj.
class SrjChunkDecoder {
 public:
  /// Every bound term is interned into `dict`, which must be non-null.
  explicit SrjChunkDecoder(std::shared_ptr<core::TermDictionary> dict);
  ~SrjChunkDecoder();

  /// Consumes `bytes`; every binding object completed by them is decoded
  /// into the pending batch. Errors are sticky.
  Status Feed(std::string_view bytes);

  /// Declares end of input. Fails unless the whole document was seen.
  Status Finish();

  /// True once the head's vars are known.
  bool HasHead() const;
  const std::vector<std::string>& vars() const;

  /// Rows decoded but not yet taken.
  size_t PendingRows() const;
  /// Rows decoded in total (taken + pending).
  uint64_t TotalRows() const;

  /// Drains the pending rows, in the dictionary's ids.
  core::IdTable TakeIds();

 private:
  std::shared_ptr<core::TermDictionary> dict_;
  std::unique_ptr<internal::SrjScanner> scanner_;
  uint64_t cells_taken_ = 0;  ///< Cells already reported as encoded.
  double decode_seconds_since_take_ = 0.0;
};

}  // namespace lusail::rpc

#endif  // LUSAIL_RPC_RESULTS_JSON_H_
