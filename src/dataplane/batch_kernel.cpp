#include "dataplane/batch_kernel.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "dataplane/pipeline.hpp"
#include "dataplane/table.hpp"

namespace pegasus::dataplane {

namespace {

/// One action op with its operands resolved and bounds-checked.
struct CompiledOp {
  ActionOp::Kind kind = ActionOp::Kind::kSetConst;
  std::size_t column = 0;
  std::size_t data_index = 0;
  std::int64_t imm = 0;
  std::int64_t sat_max = -1;
};

}  // namespace

struct BatchKernel::Table {
  /// The table's live index, or `owned` for a small table sealed without
  /// one.
  const MatchIndex* index = nullptr;
  std::unique_ptr<MatchIndex> owned;
  std::span<const std::size_t> key_columns;
  std::vector<CompiledOp> hit_ops;
  std::vector<CompiledOp> miss_ops;
  const std::int64_t* miss_data = nullptr;
};

namespace {

/// Resolves `ops` against the PHV width and checks every data index
/// against the shortest action data the program can be handed.
std::vector<CompiledOp> CompileOps(const std::string& table,
                                   const std::vector<ActionOp>& ops,
                                   std::size_t num_fields,
                                   std::size_t min_data_words,
                                   const char* what) {
  std::vector<CompiledOp> out;
  out.reserve(ops.size());
  for (const ActionOp& op : ops) {
    if (op.target >= num_fields) {
      throw std::invalid_argument(table + ": " + what +
                                  " action writes a field outside the PHV");
    }
    const bool reads_data = op.kind == ActionOp::Kind::kSetFromData ||
                            op.kind == ActionOp::Kind::kAddFromData;
    if (reads_data && op.data_index >= min_data_words) {
      throw std::invalid_argument(
          table + ": " + what + " action reads data word " +
          std::to_string(op.data_index) + " but some " + what +
          " data holds only " + std::to_string(min_data_words) + " words");
    }
    out.push_back({op.kind, op.target, op.data_index, op.imm, op.sat_max});
  }
  return out;
}

/// Runs one op over `count` rows; row k's action data is data[k].
template <bool kSat, typename ValueOf>
inline void ApplyOp(const CompiledOp& op, std::int64_t* rows,
                    std::size_t stride, const std::uint32_t* row_ids,
                    const std::int64_t* const* data, std::size_t count,
                    ValueOf value_of) {
  std::int64_t* column = rows + op.column;
  for (std::size_t k = 0; k < count; ++k) {
    std::int64_t& cell = column[row_ids[k] * stride];
    std::int64_t v = value_of(cell, data[k]);
    if constexpr (kSat) v = std::clamp<std::int64_t>(v, 0, op.sat_max);
    cell = v;
  }
}

template <typename ValueOf>
inline void ApplyOpSat(const CompiledOp& op, std::int64_t* rows,
                       std::size_t stride, const std::uint32_t* row_ids,
                       const std::int64_t* const* data, std::size_t count,
                       ValueOf value_of) {
  if (op.sat_max >= 0) {
    ApplyOp<true>(op, rows, stride, row_ids, data, count, value_of);
  } else {
    ApplyOp<false>(op, rows, stride, row_ids, data, count, value_of);
  }
}

void RunOps(const std::vector<CompiledOp>& ops, std::int64_t* rows,
            std::size_t stride, const std::uint32_t* row_ids,
            const std::int64_t* const* data, std::size_t count) {
  for (const CompiledOp& op : ops) {
    switch (op.kind) {
      case ActionOp::Kind::kSetConst:
        ApplyOpSat(op, rows, stride, row_ids, data, count,
                   [imm = op.imm](std::int64_t, const std::int64_t*) {
                     return imm;
                   });
        break;
      case ActionOp::Kind::kAddConst:
        ApplyOpSat(op, rows, stride, row_ids, data, count,
                   [imm = op.imm](std::int64_t cell, const std::int64_t*) {
                     return cell + imm;
                   });
        break;
      case ActionOp::Kind::kSetFromData:
        ApplyOpSat(op, rows, stride, row_ids, data, count,
                   [i = op.data_index](std::int64_t, const std::int64_t* d) {
                     return d[i];
                   });
        break;
      case ActionOp::Kind::kAddFromData:
        ApplyOpSat(op, rows, stride, row_ids, data, count,
                   [i = op.data_index](std::int64_t cell,
                                       const std::int64_t* d) {
                     return cell + d[i];
                   });
        break;
    }
  }
}

}  // namespace

BatchKernel::BatchKernel(const Pipeline& pipeline, std::size_t num_fields,
                         std::size_t max_rows)
    : num_fields_(num_fields), max_rows_(max_rows) {
  if (max_rows == 0) {
    throw std::invalid_argument("BatchKernel: max_rows must be > 0");
  }
  const std::vector<const MatchActionTable*> tables = pipeline.Tables();
  tables_.reserve(tables.size());
  for (const MatchActionTable* src : tables) {
    if (src->kind() == MatchKind::kExact) {
      throw std::invalid_argument(src->name() +
                                  ": exact tables are not served by the "
                                  "batch kernel");
    }
    Table t;
    for (FieldId f : src->key_fields()) {
      if (f >= num_fields) {
        throw std::invalid_argument(src->name() +
                                    ": key field outside the PHV");
      }
    }
    t.key_columns = src->key_fields();
    if (src->index() == nullptr) {
      t.owned = std::make_unique<MatchIndex>(
          src->entries(), src->kind() == MatchKind::kTernary);
    }
    t.index = src->index() != nullptr ? src->index() : t.owned.get();
    // A table with no entries never hits, and its index reports SIZE_MAX
    // words: its program may read any data word.
    t.hit_ops = CompileOps(src->name(), src->action_program(), num_fields,
                           t.index->min_action_words(), "entry");
    t.miss_ops = CompileOps(src->name(), src->miss_program(), num_fields,
                            src->miss_data().size(), "miss");
    t.miss_data = src->miss_data().data();
    tables_.push_back(std::move(t));
  }
  best_.resize(max_rows);
  hit_row_.resize(max_rows);
  hit_data_.resize(max_rows);
}

BatchKernel::~BatchKernel() = default;
BatchKernel::BatchKernel(BatchKernel&&) noexcept = default;
BatchKernel& BatchKernel::operator=(BatchKernel&&) noexcept = default;

std::size_t BatchKernel::Run(std::int64_t* rows, std::size_t n) {
  if (n > max_rows_) {
    throw std::invalid_argument("BatchKernel::Run: batch exceeds max_rows");
  }
  // The index reads key fields as unsigned, as Phv keys are gathered.
  const auto* keys = reinterpret_cast<const std::uint64_t*>(rows);
  std::size_t total_hits = 0;
  for (const Table& t : tables_) {
    t.index->FindBestBatch(keys, num_fields_, t.key_columns, n, best_.data());
    // Hits fill hit_row_ from the front, misses (only when a miss program
    // exists) from the back.
    const bool track_misses = !t.miss_ops.empty();
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const std::int32_t pos = best_[p];
      if (pos != MatchIndex::kMiss) {
        hit_row_[hits] = static_cast<std::uint32_t>(p);
        hit_data_[hits] = t.index->ActionData(pos).data();
        ++hits;
      } else if (track_misses) {
        ++misses;
        hit_row_[max_rows_ - misses] = static_cast<std::uint32_t>(p);
      }
    }
    RunOps(t.hit_ops, rows, num_fields_, hit_row_.data(), hit_data_.data(),
           hits);
    if (misses != 0) {
      const std::size_t first = max_rows_ - misses;
      std::fill(hit_data_.begin() + static_cast<std::ptrdiff_t>(first),
                hit_data_.end(), t.miss_data);
      RunOps(t.miss_ops, rows, num_fields_, hit_row_.data() + first,
             hit_data_.data() + first, misses);
    }
    total_hits += hits;
  }
  return total_hits;
}

}  // namespace pegasus::dataplane
