#ifndef LUSAIL_CORE_ID_TABLE_H_
#define LUSAIL_CORE_ID_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dictionary.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/probe.h"
#include "sparql/result_table.h"

namespace lusail::core {

/// Columnar binding table: one contiguous std::vector<TermId> per
/// variable, kInvalidTermId marking an unbound cell. This is the internal
/// currency of federated execution — endpoint responses are encoded into
/// an IdTable at the boundary, every join/union/dedup runs on these
/// fixed-width columns, and only the final projected window is decoded
/// back to the row-major string ResultTable (the wire/compat format).
///
/// The column layout is what makes the join hot path fast: a hash join
/// touches only its key columns while probing (cache-dense sequential
/// u64 reads) and materializes output with per-column gathers instead of
/// per-row vector allocations.
///
/// `vars` is a public member on purpose — construction sites assign or
/// push variable names directly, exactly like the old row-major table.
/// Column storage follows lazily: the next mutating call (AppendRow,
/// Set, AddEmptyRows, ...) grows the column array to match, padding new
/// columns with unbound cells for existing rows. Const accessors treat a
/// var with no column yet as an all-unbound column (At returns
/// kInvalidTermId; Column returns an empty span), so reads between a
/// vars.push_back and the next mutation are safe, if trivial.
class IdTable {
 public:
  std::vector<std::string> vars;

  IdTable() = default;
  explicit IdTable(std::vector<std::string> names) : vars(std::move(names)) {}

  size_t NumRows() const { return num_rows_; }
  size_t NumVars() const { return vars.size(); }

  /// Index of `var` in vars, or -1.
  int VarIndex(const std::string& var) const;

  /// Variables present in both tables, in `a`'s order.
  static std::vector<std::string> SharedVars(const IdTable& a,
                                             const IdTable& b);

  /// Cell accessors. At() on a var whose column does not exist yet (vars
  /// grown since the last mutation) reads as unbound.
  rdf::TermId At(size_t row, size_t col) const {
    return col < cols_.size() ? cols_[col][row] : rdf::kInvalidTermId;
  }
  void Set(size_t row, size_t col, rdf::TermId id);

  /// Appends one row given in vars order; cells beyond row.size() are
  /// unbound. (A zero-length row appends an all-unbound row — ASK tables
  /// with zero vars still count rows.)
  void AppendRow(const std::vector<rdf::TermId>& row);

  /// Appends `n` all-unbound rows.
  void AddEmptyRows(size_t n);

  /// Materializes one row (slow path: per-row vector allocation).
  std::vector<rdf::TermId> Row(size_t row) const;

  /// Column storage. Column() of a var with no column yet returns an
  /// empty vector (see class comment); MutableColumn materializes it.
  const std::vector<rdf::TermId>& Column(size_t col) const;
  std::vector<rdf::TermId>* MutableColumn(size_t col);

  void Reserve(size_t rows);
  void Clear();

  /// New table with the same vars holding the given rows, in order.
  IdTable SelectRows(const std::vector<uint32_t>& rows) const;

  /// Rows [begin, end) as a new table (LIMIT/OFFSET windowing).
  IdTable Slice(size_t begin, size_t end) const;

  /// Appends `other`'s rows; requires identical vars (join partitions
  /// produced by the same routine). AppendUnionIds aligns by name.
  void Append(const IdTable& other);

  /// Bulk constructor for operators that materialize whole columns: each
  /// column must hold `num_rows` cells, or be empty to mean all-unbound.
  static IdTable FromColumns(std::vector<std::string> names,
                             std::vector<std::vector<rdf::TermId>> cols,
                             size_t num_rows);

 private:
  /// Grows cols_ to vars.size(), padding new columns with unbound cells.
  void SyncColumns();

  std::vector<std::vector<rdf::TermId>> cols_;
  size_t num_rows_ = 0;
};

/// Natural inner (or left-outer) join on all shared variables, SPARQL
/// compatibility semantics: an unbound shared cell is compatible with any
/// value; shared output columns prefer the bound side. Output layout is
/// deterministic: left.vars then right-only vars. An inner join hashes
/// the smaller side and emits rows in the other side's order; a left
/// outer join hashes `right` and emits in `left` order. With no shared
/// variables this degenerates to the cartesian product.
IdTable JoinIds(const IdTable& left, const IdTable& right, bool left_outer);

/// Appends src's rows to dst, aligning columns by name; variables missing
/// from src become unbound (UNION at the federator).
void AppendUnionIds(IdTable* dst, const IdTable& src);

/// Projects onto `vars` (missing variables become unbound columns);
/// optionally deduplicates rows.
IdTable ProjectIds(const IdTable& table, const std::vector<std::string>& vars,
                   bool distinct);

/// The given rows of `table`, in that order, projected onto `vars`
/// (missing variables become unbound columns).
IdTable GatherRows(const IdTable& table, const std::vector<std::string>& vars,
                   const std::vector<uint32_t>& rows);

/// Keeps the rows satisfying `filter`, decoding cells through `dict`.
void FilterIds(IdTable* table, const sparql::Expr& filter,
               const TermDictionary& dict);

/// Encodes a wire ResultTable into ids (boundary encoder; batch-timed
/// into the dictionary's encode counters).
IdTable EncodeResultTable(const sparql::ResultTable& table,
                          TermDictionary* dict);

/// Decodes back to the wire format through the source that minted the
/// ids (late materialization; batch-timed into the source's decode
/// counters, if it keeps any).
sparql::ResultTable DecodeIdTable(const IdTable& table,
                                  const rdf::TermSource& terms);

/// sparql::DecodeProbeAnswer over an id answer: resolves only the tag
/// and count cells through `terms`, with no string table built.
Result<std::vector<uint64_t>> DecodeProbeIds(sparql::ProbeKind kind,
                                             const IdTable& table,
                                             const rdf::TermSource& terms,
                                             size_t n);

/// Re-keys `table`, whose ids belong to `terms`, into `dict`, with no
/// term copied or hashed per cell. Ids of a stable space
/// (TermSource::stable_space) are looked up in the dictionary's
/// translation memo for that space first; each other distinct id is
/// resolved and interned once per table (a flat per-table map, then one
/// InternBatch over term pointers) and, when stable, memoized. New terms
/// are interned in the order EncodeResultTable of the decoded table would
/// intern them. Batch-timed into `dict`'s encode counters, every cell
/// counted, as EncodeResultTable counts them.
IdTable TranslateIds(const IdTable& table, const rdf::TermSource& terms,
                     TermDictionary* dict);

/// Wire size of `table` decoded through `terms`: equal to
/// DecodeIdTable(table, terms).SerializedBytes(), without decoding.
size_t SerializedBytes(const IdTable& table, const rdf::TermSource& terms);

/// 128 bits of FNV-1a over a VALUES binding block in id space — the
/// bind variable plus each binding's dictionary content hash — rendered
/// as hex. Keys bound-join fetches in the shared result cache: mixing a
/// precomputed 8-byte hash per binding replaces serializing and
/// re-hashing the block's N-Triples text. Content hashes (not raw ids)
/// make the key stable across dictionary instances, so a warm engine
/// with a fresh dictionary still hits entries a previous engine stored.
std::string FingerprintIdBindings(const std::string& var,
                                  const TermDictionary& dict,
                                  const rdf::TermId* ids, size_t count);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_ID_TABLE_H_
