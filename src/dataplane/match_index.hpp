// Compiled bit-vector match index for ternary/range tables — the classic
// Lucent bit-vector / DCFL decomposition applied to the software TCAM.
//
// A linear TCAM scan costs O(entries) rule evaluations plus a priority
// compare per matching entry. The index instead precomputes, per key field,
// the set of entries compatible with every possible field value:
//
//   * ternary fields are decomposed into 4-bit nibble chunks; each chunk
//     owns a 16-row table of entry bitsets (row v = entries whose rule
//     accepts nibble value v). Arbitrary masks — not just prefixes — are
//     exactly representable because a ternary rule constrains each nibble
//     independently: (key & mask) == (value & mask) holds iff it holds
//     nibble-by-nibble. Chunks only cover bits some entry actually masks;
//     higher key bits cannot influence any rule and are skipped.
//   * range fields are decomposed into sorted disjoint elementary
//     intervals (boundaries = every entry's lo and hi+1); each interval
//     owns the bitset of entries whose [lo, hi] covers it. A lookup is one
//     binary search per field.
//
// Entries are pre-sorted by (priority desc, insertion order asc), so after
// ANDing the per-field bitsets the winner is simply the first set bit
// (std::countr_zero) — no per-entry priority compares survive to lookup
// time. Action data is copied into a contiguous arena in sorted order, so
// dispatching the winning action touches one cache line, not a scattered
// TableEntry.
//
// Lookup cost: sum(chunks) word-parallel ANDs over ceil(entries/64) words
// (ternary) or nk binary searches (range), independent of entry count up to
// the bitset width — near-O(1) per packet where the scan was O(entries).
//
// FindBest is the reference lookup. FindBestBatch serves a whole batch of
// keys laid out row by row and skips the binary search of a range field
// whose top interval boundary is at most kMaxIntervalArray: such a field
// also keeps a direct key -> interval array (uint16 per key value), built
// here and never touched by ApplyDelta (patches only land on existing
// boundaries).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/crc.hpp"

namespace pegasus::dataplane {

struct TableEntry;
struct EntryPatch;

/// Build/footprint counters for one compiled index (surfaced per table by
/// the compiler's `lower` pass diagnostics and aggregated per pipeline).
struct MatchIndexStats {
  std::size_t entries = 0;
  /// Bitset row width: ceil(entries / 64).
  std::size_t words_per_row = 0;
  /// Range fields: total elementary intervals across key fields.
  std::size_t intervals = 0;
  /// Ternary fields: nibble chunk tables built (16 bitset rows each).
  std::size_t nibble_chunks = 0;
  /// Resident footprint of the bitset planes + boundaries + arena.
  std::size_t bytes = 0;
  double build_ms = 0.0;
  /// O(delta) update counters: in-place patches applied without a reseal.
  std::uint64_t deltas_applied = 0;     // entry patches applied in place
  std::uint64_t leaf_words_patched = 0; // action-arena words rewritten
  std::uint64_t reseals_avoided = 0;    // ApplyDelta batches (each would
                                        // otherwise have been a full reseal)
  std::uint64_t delta_apply_ns = 0;     // cumulative in-place patch time
};

/// Immutable lookup structure compiled from a table's entry list at
/// Seal() time. One index serves either a ternary or a range table.
class MatchIndex {
 public:
  /// Sentinel returned by FindBest on miss.
  static constexpr std::int32_t kMiss = -1;
  /// Widest range-field domain (top interval boundary) resolved through a
  /// direct key -> interval array; wider fields binary-search their starts.
  static constexpr std::uint64_t kMaxIntervalArray = 4096;

  /// Compiles the index. `kind_is_ternary` selects the nibble-chunk
  /// decomposition; otherwise entries' range_lo/range_hi are used. Field
  /// coverage is derived from the rules themselves (mask union /
  /// boundaries), so declared key widths are not needed.
  MatchIndex(std::span<const TableEntry> entries, bool kind_is_ternary);

  /// Highest-priority match for the per-field key values (earliest
  /// insertion wins ties), as a *sorted position*; kMiss when no entry
  /// matches. `keys[i]` is the value of key field i.
  std::int32_t FindBest(const std::uint64_t* keys) const;

  /// Batch counterpart of FindBest, bit-identical to it: for p in [0, n),
  /// best[p] is the winner for row p, whose key field i is
  /// keys[p * stride + columns[i]].
  void FindBestBatch(const std::uint64_t* keys, std::size_t stride,
                     std::span<const std::size_t> columns, std::size_t n,
                     std::int32_t* best) const;

  /// Original entry index of sorted position `pos`.
  std::size_t EntryIndex(std::int32_t pos) const {
    return order_[static_cast<std::size_t>(pos)];
  }

  /// Action-data words of sorted position `pos` (contiguous arena slice).
  std::span<const std::int64_t> ActionData(std::int32_t pos) const {
    const auto p = static_cast<std::size_t>(pos);
    return {arena_.data() + arena_offset_[p],
            arena_offset_[p + 1] - arena_offset_[p]};
  }

  const MatchIndexStats& stats() const { return stats_; }

  /// Fewest action-data words any entry holds; SIZE_MAX for an empty
  /// index. ApplyDelta keeps every entry's word count, so it holds for the
  /// index's lifetime.
  std::size_t min_action_words() const { return min_action_words_; }

  /// True when `patch` can be applied in place: same action-data size (so
  /// arena offsets stay valid) and a match representable by the compiled
  /// planes — ternary masks within existing chunk coverage, range bounds
  /// landing on existing elementary-interval boundaries. Anything else
  /// needs a full reseal.
  bool CanAbsorb(const EntryPatch& patch) const;

  /// Applies pre-validated patches in place: rewrites each entry's arena
  /// words and flips its bits in every chunk/interval row. Never
  /// reallocates, so a cloned index stays independent and patching is
  /// O(patches), not O(entries). Every patch must satisfy CanAbsorb.
  void ApplyDelta(std::span<const EntryPatch> patches);

 private:
  /// One 4-bit chunk of a ternary key field: 16 bitset rows starting at
  /// `plane_row * words_` inside plane_.
  struct NibbleChunk {
    std::uint32_t field = 0;
    std::uint32_t shift = 0;
    std::uint32_t plane_row = 0;
  };
  /// One range key field: elementary interval starts (sorted, starts[0]=0)
  /// and the first bitset row of its interval plane. When starts.back() <=
  /// kMaxIntervalArray, interval_of[k] is the interval holding key k for k
  /// in [0, starts.back()] (larger keys lie in the top interval); otherwise
  /// it is empty.
  struct RangeField {
    std::uint32_t field = 0;
    std::uint32_t plane_row = 0;
    std::vector<std::uint64_t> starts;
    std::vector<std::uint16_t> interval_of;
  };

  void BuildTernary(std::span<const TableEntry> entries);
  void BuildRange(std::span<const TableEntry> entries);

  std::size_t words_ = 0;            // bitset words per row
  std::size_t num_entries_ = 0;
  std::vector<std::uint64_t> plane_; // all bitset rows, row-major
  std::vector<NibbleChunk> chunks_;
  std::vector<RangeField> ranges_;
  /// sorted position -> original entry index ((priority desc, idx asc)).
  std::vector<std::uint32_t> order_;
  /// original entry index -> sorted position (inverse of order_), so a
  /// delta patch addressed by entry index finds its bitset column in O(1).
  std::vector<std::uint32_t> pos_of_;
  /// Action-data arena in sorted order; offsets has num_entries_+1 slots.
  std::vector<std::int64_t> arena_;
  std::vector<std::size_t> arena_offset_;
  std::size_t min_action_words_ = SIZE_MAX;
  MatchIndexStats stats_;
};

}  // namespace pegasus::dataplane
