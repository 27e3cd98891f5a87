// Flat batch kernel — a sealed Pipeline compiled once into a plan that
// serves a whole batch of packets without the table interpreter.
//
// The interpreter (Pipeline::ProcessBatch -> MatchActionTable::ApplyBatch)
// reads keys through the bounds-checked Phv::Get, looks each packet up
// through MatchIndex::FindBest and interprets each action op through a
// switch whose data-index check can throw. Everything it decides per packet
// is fixed once the tables are sealed, so the kernel decides it at build
// time instead (the heavy-analysis-once shape of an asymmetric codec):
//
//   * a batch is a row-major int64 matrix: row p is packet p's PHV, a PHV
//     field id is a column offset;
//   * each placed table, in stage order, looks the whole batch up through
//     its MatchIndex::FindBestBatch, which reads the key columns in place
//     (and resolves a narrow range field through its key -> interval
//     array);
//   * action ops are compiled once: every data index is checked against
//     every entry's action data (and the miss data) here, so no serving op
//     can throw, and each op then runs over the batch's hit rows.
//
// Lookups read the table's live MatchIndex, so a clone patched by
// ApplyDelta is served as patched. Tables sealed without an index (below
// MatchActionTable::kIndexMinEntries) get a MatchIndex built from their
// entries here. Exact tables are rejected: lowering emits range and ternary
// tables only. The kernel borrows the pipeline: it must be rebuilt after
// any mutation of a placed table (the InferenceEngine that owns it is
// rebuilt on every swap).
//
// Pipeline::ProcessBatch stays the reference: a kernel run is bit-identical
// to it, outputs and table hits (tests/test_batch_kernel.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace pegasus::dataplane {

class Pipeline;

class BatchKernel {
 public:
  /// Compiles `pipeline` for PHVs of `num_fields` fields and batches of at
  /// most `max_rows` rows. Throws std::invalid_argument on an exact table,
  /// when a key or an action target lies outside the PHV, or when an action
  /// op reads a data word past some entry's (or the miss program's) action
  /// data.
  BatchKernel(const Pipeline& pipeline, std::size_t num_fields,
              std::size_t max_rows);
  ~BatchKernel();
  BatchKernel(BatchKernel&&) noexcept;
  BatchKernel& operator=(BatchKernel&&) noexcept;

  std::size_t num_fields() const { return num_fields_; }
  std::size_t max_rows() const { return max_rows_; }

  /// Runs rows [0, n) of `rows` (row p's field f at rows[p * num_fields()
  /// + f], n <= max_rows()) through every table in stage order, in place.
  /// Returns the table hits over the batch, as Pipeline::ProcessBatch does.
  std::size_t Run(std::int64_t* rows, std::size_t n);

 private:
  struct Table;

  std::size_t num_fields_ = 0;
  std::size_t max_rows_ = 0;
  std::vector<Table> tables_;
  // Per-run scratch, sized at build time.
  std::vector<std::int32_t> best_;             // winner's sorted position
  std::vector<std::uint32_t> hit_row_;         // hits from the front, misses
  std::vector<const std::int64_t*> hit_data_;  // from the back
};

}  // namespace pegasus::dataplane
