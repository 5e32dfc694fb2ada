#ifndef LUSAIL_RPC_RESULTS_JSON_H_
#define LUSAIL_RPC_RESULTS_JSON_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "obs/json.h"
#include "sparql/result_table.h"

namespace lusail::rpc {

/// SPARQL 1.1 Query Results JSON Format (SRJ, application/sparql-results+json)
/// serializer/parser pair. This is the wire format the rpc layer ships
/// between lusail_endpointd servers and HttpSparqlEndpoint clients, and
/// what lusail_cli emits with --format srj.
///
/// The mapping round-trips sparql::ResultTable exactly:
///   - IRIs            -> {"type":"uri","value":...}
///   - plain literals  -> {"type":"literal","value":...}
///   - typed literals  -> {"type":"literal","value":...,"datatype":...}
///   - lang literals   -> {"type":"literal","value":...,"xml:lang":...}
///   - blank nodes     -> {"type":"bnode","value":...}
///   - unbound / UNDEF -> the variable is omitted from the binding object
///
/// Annotation precedence (serializer and parser agree, locked by the
/// codec tests): a non-empty language tag wins — a literal carrying both
/// a lang tag and a datatype serializes with xml:lang only and parses
/// back as a lang literal. An xml:lang member that is present but the
/// empty string is treated as absent (no language), so a datatype
/// alongside it is honored instead of silently dropped. Empty-string
/// literal *values* ("") are ordinary literals and round-trip bound.
///
/// ASK results follow the spec's boolean form: a zero-column table (the
/// net::Endpoint contract for ASK, 0 or 1 rows) serializes as
/// {"head":{},"boolean":...} and parses back to a zero-column table.

/// The table as an SRJ document tree (compact-serialize for the wire).
obs::JsonValue ResultTableToSrjJson(const sparql::ResultTable& table);

/// The table as a compact SRJ string.
std::string ResultTableToSrj(const sparql::ResultTable& table);

/// Parses an SRJ document straight into dictionary id space: every bound
/// term is interned into `dict` as it is parsed, so string Term rows are
/// never materialized (the transport-level half of late
/// materialization). Fails with kParseError on malformed JSON and with
/// kInvalidArgument on well-formed JSON that is not a valid SRJ document
/// (missing head, unknown term type, ...).
Result<core::IdTable> ParseSrjToIds(const std::string& text,
                                    core::TermDictionary* dict);

/// ParseSrjToIds into a local dictionary, decoded back to a table (for
/// callers that want strings, such as tests and tools).
Result<sparql::ResultTable> ParseSrj(const std::string& text);

// --- Streaming SRJ (chunked transfer) ------------------------------------
//
// A streamed SELECT response is the same SRJ document, emitted in pieces:
// SrjStreamPrefix (head + the opening of the bindings array), then any
// number of SrjStreamBindings batches, then SrjStreamSuffix. Concatenating
// the pieces yields exactly what ResultTableToSrj would have produced, so
// a buffered client that de-chunks the body parses it with ParseSrj
// unchanged.

/// `{"head":{"vars":[...]},"results":{"bindings":[` — the streamed
/// document up to the first binding.
std::string SrjStreamPrefix(const std::vector<std::string>& vars);

/// `batch`'s rows as comma-separated binding objects. `*first` says
/// whether the next binding is the first of the whole stream (no leading
/// comma); it is updated across calls.
std::string SrjStreamBindings(const sparql::ResultTable& batch, bool* first);

/// `]}}` — closes the bindings array, the results object, and the root.
std::string SrjStreamSuffix();

/// Incremental SRJ parser: feed response bytes in arbitrary slices (wire
/// chunks cut anywhere — mid-escape, mid-UTF-8 sequence, mid-binding) and
/// drain complete rows in batches as they decode. Rows land directly in
/// ID space through the decoder's dictionary (the streaming half of
/// ParseSrjToIds).
///
/// The head must precede the results section (both this repo's serializer
/// and the spec's examples do this). ASK responses — no bindings array —
/// are recognized when the root object completes and are surfaced as a
/// zero-variable table with 0 or 1 rows, matching ParseSrj.
class SrjChunkDecoder {
 public:
  /// Every bound term is interned into `dict`, which must be non-null.
  explicit SrjChunkDecoder(std::shared_ptr<core::TermDictionary> dict);

  /// Consumes `bytes`; every binding object completed by them is decoded
  /// into the pending batch. Errors are sticky.
  Status Feed(std::string_view bytes);

  /// Declares end of input. Fails unless the document was structurally
  /// complete (bindings array closed, or a whole ASK document seen).
  Status Finish();

  /// True once the head has been decoded (vars known).
  bool HasHead() const { return head_done_; }
  const std::vector<std::string>& vars() const { return vars_; }

  /// Rows decoded but not yet taken.
  size_t PendingRows() const;
  /// Rows decoded in total (taken + pending).
  uint64_t TotalRows() const { return total_rows_; }

  /// Drains the pending rows, in the dictionary's ids.
  core::IdTable TakeIds();

 private:
  enum class State { kHead, kBindings, kTail, kDocComplete, kError };

  Status ProcessBuffer();
  Status ScanHead();
  Status ScanBindings();
  Status DecodeHeadPrefix(size_t bindings_open);
  Status DecodeBinding(std::string_view object_text);
  Status DecodeCompleteDoc();

  std::shared_ptr<core::TermDictionary> dict_;
  State state_ = State::kHead;
  Status error_ = Status::OK();

  std::string buffer_;   ///< Unconsumed bytes.
  size_t scan_pos_ = 0;  ///< Scanner cursor into buffer_.

  // Structural scanner state, persistent across Feed boundaries (a wire
  // chunk can end mid-string, mid-escape, or mid-UTF-8 sequence; bytes
  // >= 0x80 never collide with '"' or '\\', so byte-wise scanning is
  // split-safe).
  bool in_string_ = false;
  bool escape_ = false;
  int depth_ = 0;
  std::string current_string_;  ///< Content of the string being scanned.
  std::string last_string_;     ///< Last completed string token.
  std::string pending_key_;     ///< Last key seen before ':'.
  std::vector<std::string> key_stack_;  ///< Key of each open container.
  size_t object_start_ = 0;     ///< Offset of the open binding object.
  int object_depth_ = 0;        ///< Brace depth inside the open binding.

  bool head_done_ = false;
  std::vector<std::string> vars_;

  core::IdTable pending_ids_;  ///< Rows decoded but not yet taken.
  uint64_t total_rows_ = 0;
  uint64_t cells_since_take_ = 0;
  double decode_seconds_since_take_ = 0.0;
};

}  // namespace lusail::rpc

#endif  // LUSAIL_RPC_RESULTS_JSON_H_
