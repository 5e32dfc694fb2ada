#include "rpc/results_json.h"

#include <utility>

#include "common/stopwatch.h"

namespace lusail::rpc {

namespace {

obs::JsonValue TermToJson(const rdf::Term& term) {
  obs::JsonValue out = obs::JsonValue::Object();
  switch (term.kind()) {
    case rdf::TermKind::kIri:
      out.Set("type", "uri");
      out.Set("value", term.lexical());
      break;
    case rdf::TermKind::kBlankNode:
      out.Set("type", "bnode");
      out.Set("value", term.lexical());
      break;
    case rdf::TermKind::kLiteral:
      out.Set("type", "literal");
      out.Set("value", term.lexical());
      if (!term.lang().empty()) {
        out.Set("xml:lang", term.lang());
      } else if (!term.datatype().empty()) {
        out.Set("datatype", term.datatype());
      }
      break;
  }
  return out;
}

Result<rdf::Term> TermFromJson(const obs::JsonValue& value) {
  if (value.type() != obs::JsonValue::Type::kObject) {
    return Status::InvalidArgument("SRJ binding value is not an object");
  }
  const obs::JsonValue& type = value.Get("type");
  const obs::JsonValue& lexical = value.Get("value");
  if (type.type() != obs::JsonValue::Type::kString ||
      lexical.type() != obs::JsonValue::Type::kString) {
    return Status::InvalidArgument(
        "SRJ binding value needs string \"type\" and \"value\" members");
  }
  if (type.AsString() == "uri") {
    return rdf::Term::Iri(lexical.AsString());
  }
  if (type.AsString() == "bnode") {
    return rdf::Term::BlankNode(lexical.AsString());
  }
  if (type.AsString() == "literal" || type.AsString() == "typed-literal") {
    // Precedence (see results_json.h): a non-empty language tag wins over
    // a datatype, matching the serializer. An empty xml:lang means "no
    // language" — it used to shadow an accompanying datatype, turning
    // typed literals from lax producers into plain lang-less literals
    // with the datatype silently dropped.
    const obs::JsonValue& lang = value.Get("xml:lang");
    if (lang.type() == obs::JsonValue::Type::kString &&
        !lang.AsString().empty()) {
      return rdf::Term::LangLiteral(lexical.AsString(), lang.AsString());
    }
    const obs::JsonValue& datatype = value.Get("datatype");
    if (datatype.type() == obs::JsonValue::Type::kString) {
      return rdf::Term::TypedLiteral(lexical.AsString(), datatype.AsString());
    }
    return rdf::Term::Literal(lexical.AsString());
  }
  return Status::InvalidArgument("unknown SRJ term type \"" +
                                 type.AsString() + "\"");
}

/// Appends one SRJ binding object to `table` as a row in `table->vars`
/// order, interning each bound term into `dict`; `row` is scratch space.
Status AppendBinding(const obs::JsonValue& binding, core::TermDictionary* dict,
                     core::IdTable* table, std::vector<rdf::TermId>* row,
                     uint64_t* cells) {
  if (binding.type() != obs::JsonValue::Type::kObject) {
    return Status::InvalidArgument("SRJ binding is not an object");
  }
  row->assign(table->vars.size(), rdf::kInvalidTermId);
  for (const auto& [var, value] : binding.members()) {
    const int col = table->VarIndex(var);
    if (col < 0) {
      return Status::InvalidArgument("SRJ binding references variable \"" +
                                     var + "\" absent from head");
    }
    LUSAIL_ASSIGN_OR_RETURN(rdf::Term term, TermFromJson(value));
    (*row)[static_cast<size_t>(col)] = dict->Intern(term);
    ++*cells;
  }
  table->AppendRow(*row);
  return Status::OK();
}

}  // namespace

obs::JsonValue ResultTableToSrjJson(const sparql::ResultTable& table) {
  obs::JsonValue out = obs::JsonValue::Object();
  obs::JsonValue head = obs::JsonValue::Object();
  if (table.vars.empty()) {
    // ASK: zero-column table, 0 rows = false, >= 1 row = true.
    out.Set("head", std::move(head));
    out.Set("boolean", !table.rows.empty());
    return out;
  }
  obs::JsonValue vars = obs::JsonValue::Array();
  for (const std::string& v : table.vars) vars.Append(v);
  head.Set("vars", std::move(vars));
  out.Set("head", std::move(head));

  obs::JsonValue bindings = obs::JsonValue::Array();
  for (const auto& row : table.rows) {
    obs::JsonValue binding = obs::JsonValue::Object();
    for (size_t i = 0; i < table.vars.size() && i < row.size(); ++i) {
      if (!row[i].has_value()) continue;  // Unbound: omit the variable.
      binding.Set(table.vars[i], TermToJson(*row[i]));
    }
    bindings.Append(std::move(binding));
  }
  obs::JsonValue results = obs::JsonValue::Object();
  results.Set("bindings", std::move(bindings));
  out.Set("results", std::move(results));
  return out;
}

std::string ResultTableToSrj(const sparql::ResultTable& table) {
  return ResultTableToSrjJson(table).Serialize();
}

Result<sparql::ResultTable> ParseSrj(const std::string& text) {
  core::TermDictionary terms;
  LUSAIL_ASSIGN_OR_RETURN(core::IdTable ids, ParseSrjToIds(text, &terms));
  return core::DecodeIdTable(ids, terms);
}

Result<core::IdTable> ParseSrjToIds(const std::string& text,
                                    core::TermDictionary* dict) {
  Stopwatch timer;
  LUSAIL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonValue::Parse(text));
  if (doc.type() != obs::JsonValue::Type::kObject) {
    return Status::InvalidArgument("SRJ document is not a JSON object");
  }
  const obs::JsonValue& head = doc.Get("head");
  if (head.type() != obs::JsonValue::Type::kObject) {
    return Status::InvalidArgument("SRJ document has no \"head\" object");
  }

  core::IdTable table;
  const obs::JsonValue& boolean = doc.Get("boolean");
  if (boolean.type() == obs::JsonValue::Type::kBool) {
    // ASK form: zero-column table with 0 or 1 rows.
    if (boolean.AsBool()) table.AddEmptyRows(1);
    return table;
  }

  const obs::JsonValue& vars = head.Get("vars");
  if (vars.type() != obs::JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "SRJ head has neither \"vars\" nor a boolean result");
  }
  for (const obs::JsonValue& v : vars.items()) {
    if (v.type() != obs::JsonValue::Type::kString) {
      return Status::InvalidArgument("SRJ head var is not a string");
    }
    table.vars.push_back(v.AsString());
  }

  const obs::JsonValue& results = doc.Get("results");
  if (results.type() != obs::JsonValue::Type::kObject) {
    return Status::InvalidArgument("SRJ document has no \"results\" object");
  }
  const obs::JsonValue& bindings = results.Get("bindings");
  if (bindings.type() != obs::JsonValue::Type::kArray) {
    return Status::InvalidArgument("SRJ results have no \"bindings\" array");
  }
  std::vector<rdf::TermId> row;
  uint64_t cells = 0;
  for (const obs::JsonValue& binding : bindings.items()) {
    LUSAIL_RETURN_NOT_OK(AppendBinding(binding, dict, &table, &row, &cells));
  }
  // The whole parse is the boundary encode: terms go from wire JSON to
  // ids without a federator-side string row ever existing.
  dict->AddEncodeBatch(timer.ElapsedMillis() / 1e3, cells);
  return table;
}

std::string SrjStreamPrefix(const std::vector<std::string>& vars) {
  obs::JsonValue head = obs::JsonValue::Object();
  obs::JsonValue vars_json = obs::JsonValue::Array();
  for (const std::string& v : vars) vars_json.Append(v);
  head.Set("vars", std::move(vars_json));
  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("head", std::move(head));
  std::string out = root.Serialize();
  // out == {"head":{"vars":[...]}} — splice the results opening in before
  // the root's closing brace.
  out.pop_back();
  out.append(",\"results\":{\"bindings\":[");
  return out;
}

std::string SrjStreamBindings(const sparql::ResultTable& batch, bool* first) {
  std::string out;
  for (const auto& row : batch.rows) {
    obs::JsonValue binding = obs::JsonValue::Object();
    for (size_t i = 0; i < batch.vars.size() && i < row.size(); ++i) {
      if (!row[i].has_value()) continue;  // Unbound: omit the variable.
      binding.Set(batch.vars[i], TermToJson(*row[i]));
    }
    if (!*first) out.push_back(',');
    *first = false;
    out.append(binding.Serialize());
  }
  return out;
}

std::string SrjStreamSuffix() { return "]}}"; }

SrjChunkDecoder::SrjChunkDecoder(std::shared_ptr<core::TermDictionary> dict)
    : dict_(std::move(dict)) {}

size_t SrjChunkDecoder::PendingRows() const { return pending_ids_.NumRows(); }

Status SrjChunkDecoder::Feed(std::string_view bytes) {
  if (state_ == State::kError) return error_;
  buffer_.append(bytes);
  Status processed = ProcessBuffer();
  if (!processed.ok()) {
    state_ = State::kError;
    error_ = processed;
  }
  return processed;
}

Status SrjChunkDecoder::Finish() {
  switch (state_) {
    case State::kError:
      return error_;
    case State::kTail:
    case State::kDocComplete:
      return Status::OK();
    case State::kHead:
    case State::kBindings:
      state_ = State::kError;
      error_ = Status::ParseError("truncated SRJ stream");
      return error_;
  }
  return Status::Internal("unreachable");
}

Status SrjChunkDecoder::ProcessBuffer() {
  for (;;) {
    switch (state_) {
      case State::kHead:
        LUSAIL_RETURN_NOT_OK(ScanHead());
        if (state_ == State::kHead) return Status::OK();  // Need more bytes.
        break;
      case State::kBindings:
        LUSAIL_RETURN_NOT_OK(ScanBindings());
        if (state_ == State::kBindings) return Status::OK();
        break;
      case State::kTail:
      case State::kDocComplete:
        // Everything after the structural end is framing the transport
        // already validated; drop it.
        buffer_.clear();
        scan_pos_ = 0;
        return Status::OK();
      case State::kError:
        return error_;
    }
  }
}

Status SrjChunkDecoder::ScanHead() {
  while (scan_pos_ < buffer_.size()) {
    char c = buffer_[scan_pos_];
    if (in_string_) {
      if (escape_) {
        escape_ = false;
        current_string_.push_back(c);
      } else if (c == '\\') {
        escape_ = true;
        current_string_.push_back(c);
      } else if (c == '"') {
        in_string_ = false;
        last_string_ = current_string_;
      } else {
        current_string_.push_back(c);
      }
      ++scan_pos_;
      continue;
    }
    switch (c) {
      case '"':
        in_string_ = true;
        current_string_.clear();
        break;
      case ':':
        pending_key_ = last_string_;
        break;
      case '[':
        if (depth_ == 2 && pending_key_ == "bindings" &&
            !key_stack_.empty() && key_stack_.back() == "results") {
          LUSAIL_RETURN_NOT_OK(DecodeHeadPrefix(scan_pos_));
          ++scan_pos_;
          buffer_.erase(0, scan_pos_);
          scan_pos_ = 0;
          state_ = State::kBindings;
          return Status::OK();
        }
        [[fallthrough]];
      case '{':
        key_stack_.push_back(pending_key_);
        pending_key_.clear();
        ++depth_;
        break;
      case ']':
      case '}':
        if (depth_ == 0) {
          return Status::ParseError("unbalanced SRJ document");
        }
        key_stack_.pop_back();
        --depth_;
        if (depth_ == 0) {
          // Root closed with no bindings array: the ASK form (or a
          // malformed document — DecodeCompleteDoc tells them apart).
          LUSAIL_RETURN_NOT_OK(DecodeCompleteDoc());
          state_ = State::kDocComplete;
          return Status::OK();
        }
        break;
      default:
        break;
    }
    ++scan_pos_;
  }
  return Status::OK();  // Need more bytes.
}

Status SrjChunkDecoder::ScanBindings() {
  while (scan_pos_ < buffer_.size()) {
    char c = buffer_[scan_pos_];
    if (object_depth_ == 0) {
      // Between binding objects.
      if (c == '{') {
        object_start_ = scan_pos_;
        object_depth_ = 1;
      } else if (c == ']') {
        ++scan_pos_;
        buffer_.clear();
        scan_pos_ = 0;
        state_ = State::kTail;
        return Status::OK();
      } else if (c != ',' && c != ' ' && c != '\t' && c != '\r' &&
                 c != '\n') {
        return Status::ParseError(
            std::string("unexpected character in SRJ bindings array: '") + c +
            "'");
      }
      ++scan_pos_;
      continue;
    }
    // Inside a binding object.
    if (in_string_) {
      if (escape_) {
        escape_ = false;
      } else if (c == '\\') {
        escape_ = true;
      } else if (c == '"') {
        in_string_ = false;
      }
    } else if (c == '"') {
      in_string_ = true;
    } else if (c == '{' || c == '[') {
      ++object_depth_;
    } else if (c == '}' || c == ']') {
      --object_depth_;
      if (object_depth_ == 0) {
        LUSAIL_RETURN_NOT_OK(DecodeBinding(std::string_view(buffer_).substr(
            object_start_, scan_pos_ + 1 - object_start_)));
        ++scan_pos_;
        buffer_.erase(0, scan_pos_);
        scan_pos_ = 0;
        continue;
      }
    }
    ++scan_pos_;
  }
  // Partial binding (or clean cut): keep only the unfinished bytes.
  if (object_depth_ == 0) {
    buffer_.erase(0, scan_pos_);
  } else {
    buffer_.erase(0, object_start_);
    object_start_ = 0;
  }
  scan_pos_ = buffer_.size();
  return Status::OK();
}

Status SrjChunkDecoder::DecodeHeadPrefix(size_t bindings_open) {
  // The bytes up to and including the '[' plus a synthesized empty tail
  // form a complete SRJ document; ParseSrjToIds validates the head and
  // yields the vars. (This requires head to precede results, which every
  // serializer this repo talks to — including its own — does.)
  std::string doc = buffer_.substr(0, bindings_open + 1);
  doc.append("]}}");
  LUSAIL_ASSIGN_OR_RETURN(core::IdTable parsed,
                          ParseSrjToIds(doc, dict_.get()));
  vars_ = parsed.vars;
  head_done_ = true;
  pending_ids_.vars = vars_;
  return Status::OK();
}

Status SrjChunkDecoder::DecodeBinding(std::string_view object_text) {
  Stopwatch timer;
  LUSAIL_ASSIGN_OR_RETURN(obs::JsonValue binding,
                          obs::JsonValue::Parse(std::string(object_text)));
  std::vector<rdf::TermId> row;
  LUSAIL_RETURN_NOT_OK(AppendBinding(binding, dict_.get(), &pending_ids_,
                                     &row, &cells_since_take_));
  ++total_rows_;
  decode_seconds_since_take_ += timer.ElapsedMillis() / 1e3;
  return Status::OK();
}

Status SrjChunkDecoder::DecodeCompleteDoc() {
  std::string doc = buffer_.substr(0, scan_pos_ + 1);
  LUSAIL_ASSIGN_OR_RETURN(pending_ids_, ParseSrjToIds(doc, dict_.get()));
  vars_ = pending_ids_.vars;
  head_done_ = true;
  total_rows_ += pending_ids_.NumRows();
  return Status::OK();
}

core::IdTable SrjChunkDecoder::TakeIds() {
  if (cells_since_take_ > 0) {
    // Streamed decoding is the boundary encode, batch-timed like
    // ParseSrjToIds.
    dict_->AddEncodeBatch(decode_seconds_since_take_, cells_since_take_);
    cells_since_take_ = 0;
    decode_seconds_since_take_ = 0.0;
  }
  core::IdTable out = std::move(pending_ids_);
  pending_ids_ = core::IdTable(vars_);
  return out;
}

}  // namespace lusail::rpc
