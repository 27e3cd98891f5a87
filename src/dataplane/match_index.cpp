#include "dataplane/match_index.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>

#include "dataplane/table.hpp"

namespace pegasus::dataplane {

namespace {

// Entries up to 64*64 = 4096 fit the stack accumulator; larger tables fall
// back to a thread-local buffer (rare: the lowering caps ternary expansion
// at 4096 entries per table).
constexpr std::size_t kStackWords = 64;

inline std::uint64_t* AccBuffer(std::size_t words,
                                std::uint64_t* stack_buf) {
  if (words <= kStackWords) return stack_buf;
  static thread_local std::vector<std::uint64_t> heap_buf;
  if (heap_buf.size() < words) heap_buf.resize(words);
  return heap_buf.data();
}

}  // namespace

MatchIndex::MatchIndex(std::span<const TableEntry> entries,
                       bool kind_is_ternary) {
  const auto start = std::chrono::steady_clock::now();
  num_entries_ = entries.size();
  words_ = (num_entries_ + 63) / 64;

  // TCAM physical order: higher priority first, insertion order on ties —
  // the winner of an AND'd bitset is then always the lowest set bit.
  order_.resize(num_entries_);
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return entries[a].priority > entries[b].priority;
                   });
  pos_of_.resize(num_entries_);
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    pos_of_[order_[pos]] = static_cast<std::uint32_t>(pos);
  }

  // Action-data arena in sorted order: the winning entry's words are one
  // contiguous, cache-resident slice.
  arena_offset_.resize(num_entries_ + 1, 0);
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    const std::size_t words = entries[order_[pos]].action_data.size();
    arena_offset_[pos + 1] = arena_offset_[pos] + words;
    min_action_words_ = std::min(min_action_words_, words);
  }
  arena_.reserve(arena_offset_.back());
  for (std::size_t pos = 0; pos < num_entries_; ++pos) {
    const auto& data = entries[order_[pos]].action_data;
    arena_.insert(arena_.end(), data.begin(), data.end());
  }

  if (kind_is_ternary) {
    BuildTernary(entries);
  } else {
    BuildRange(entries);
  }

  stats_.entries = num_entries_;
  stats_.words_per_row = words_;
  stats_.nibble_chunks = chunks_.size();
  for (const RangeField& rf : ranges_) stats_.intervals += rf.starts.size();
  stats_.bytes = plane_.size() * sizeof(std::uint64_t) +
                 (order_.size() + pos_of_.size()) * sizeof(std::uint32_t) +
                 arena_.size() * sizeof(std::int64_t) +
                 arena_offset_.size() * sizeof(std::size_t);
  for (const RangeField& rf : ranges_) {
    stats_.bytes += rf.starts.size() * sizeof(std::uint64_t) +
                    rf.interval_of.size() * sizeof(std::uint16_t);
  }
  stats_.build_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

void MatchIndex::BuildTernary(std::span<const TableEntry> entries) {
  const std::size_t nk = entries.empty() ? 0 : entries[0].ternary.size();
  for (std::size_t f = 0; f < nk; ++f) {
    // Only bits some entry actually masks can influence a match; everything
    // above is don't-care for every rule and needs no chunk table.
    std::uint64_t mask_union = 0;
    for (const TableEntry& e : entries) mask_union |= e.ternary[f].mask;
    const int cover_bits =
        64 - std::countl_zero(mask_union | 1ull);  // >=1 to avoid UB on 0
    const std::size_t num_chunks =
        mask_union == 0 ? 0 : (static_cast<std::size_t>(cover_bits) + 3) / 4;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      NibbleChunk chunk;
      chunk.field = static_cast<std::uint32_t>(f);
      chunk.shift = static_cast<std::uint32_t>(4 * c);
      chunk.plane_row = static_cast<std::uint32_t>(plane_.size() / words_);
      plane_.resize(plane_.size() + 16 * words_, 0);
      std::uint64_t* rows = plane_.data() + chunk.plane_row * words_;
      for (std::size_t pos = 0; pos < num_entries_; ++pos) {
        const TernaryRule& r = entries[order_[pos]].ternary[f];
        const std::uint64_t m = (r.mask >> chunk.shift) & 0xf;
        const std::uint64_t v = (r.value >> chunk.shift) & m;
        for (std::uint64_t nib = 0; nib < 16; ++nib) {
          if ((nib & m) == v) {
            rows[nib * words_ + pos / 64] |= 1ull << (pos % 64);
          }
        }
      }
      chunks_.push_back(chunk);
    }
  }
}

void MatchIndex::BuildRange(std::span<const TableEntry> entries) {
  const std::size_t nk = entries.empty() ? 0 : entries[0].range_lo.size();
  for (std::size_t f = 0; f < nk; ++f) {
    RangeField rf;
    rf.field = static_cast<std::uint32_t>(f);
    // Elementary intervals: every lo starts one, every hi ends one. The
    // hi+1 boundary is skipped at the top of the 64-bit domain (no wrap).
    rf.starts.push_back(0);
    for (const TableEntry& e : entries) {
      rf.starts.push_back(e.range_lo[f]);
      if (e.range_hi[f] != ~0ull) rf.starts.push_back(e.range_hi[f] + 1);
    }
    std::sort(rf.starts.begin(), rf.starts.end());
    rf.starts.erase(std::unique(rf.starts.begin(), rf.starts.end()),
                    rf.starts.end());
    rf.plane_row = static_cast<std::uint32_t>(plane_.size() / words_);
    plane_.resize(plane_.size() + rf.starts.size() * words_, 0);
    std::uint64_t* rows = plane_.data() + rf.plane_row * words_;
    for (std::size_t i = 0; i < rf.starts.size(); ++i) {
      const std::uint64_t first = rf.starts[i];
      const std::uint64_t last =
          i + 1 < rf.starts.size() ? rf.starts[i + 1] - 1 : ~0ull;
      for (std::size_t pos = 0; pos < num_entries_; ++pos) {
        const TableEntry& e = entries[order_[pos]];
        if (e.range_lo[f] <= first && e.range_hi[f] >= last) {
          rows[i * words_ + pos / 64] |= 1ull << (pos % 64);
        }
      }
    }
    const std::uint64_t top = rf.starts.back();
    if (top <= kMaxIntervalArray) {
      rf.interval_of.reserve(top + 1);
      std::size_t interval = 0;
      for (std::uint64_t k = 0; k <= top; ++k) {
        if (interval + 1 < rf.starts.size() && rf.starts[interval + 1] == k) {
          ++interval;
        }
        rf.interval_of.push_back(static_cast<std::uint16_t>(interval));
      }
    }
    ranges_.push_back(std::move(rf));
  }
}

bool MatchIndex::CanAbsorb(const EntryPatch& patch) const {
  if (patch.entry_index >= num_entries_) return false;
  const std::size_t pos = pos_of_[patch.entry_index];
  // Arena offsets stay valid only if the patched slice keeps its size.
  if (patch.action_data.size() !=
      arena_offset_[pos + 1] - arena_offset_[pos]) {
    return false;
  }
  // Ternary: every masked bit of the new rule must fall inside some
  // existing chunk — bits above the compiled coverage have no rows to
  // express them, so a rule using them forces a reseal.
  for (const NibbleChunk& c : chunks_) {
    if (c.field >= patch.ternary.size()) return false;
  }
  for (std::size_t f = 0; f < patch.ternary.size(); ++f) {
    std::uint64_t covered = 0;
    for (const NibbleChunk& c : chunks_) {
      if (c.field == f) covered |= 0xfull << c.shift;
    }
    if ((patch.ternary[f].mask & ~covered) != 0) return false;
  }
  // Range: the new bounds must land on existing elementary-interval
  // boundaries, otherwise an interval would need splitting (reseal).
  for (const RangeField& rf : ranges_) {
    if (rf.field >= patch.range_lo.size() ||
        rf.field >= patch.range_hi.size()) {
      return false;
    }
    const std::uint64_t lo = patch.range_lo[rf.field];
    const std::uint64_t hi = patch.range_hi[rf.field];
    if (lo > hi) return false;
    if (!std::binary_search(rf.starts.begin(), rf.starts.end(), lo)) {
      return false;
    }
    if (hi != ~0ull &&
        !std::binary_search(rf.starts.begin(), rf.starts.end(), hi + 1)) {
      return false;
    }
  }
  return true;
}

void MatchIndex::ApplyDelta(std::span<const EntryPatch> patches) {
  const auto start = std::chrono::steady_clock::now();
  for (const EntryPatch& p : patches) {
    const std::size_t pos = pos_of_[p.entry_index];
    std::copy(p.action_data.begin(), p.action_data.end(),
              arena_.begin() + static_cast<std::ptrdiff_t>(arena_offset_[pos]));
    const std::uint64_t bit = 1ull << (pos % 64);
    const std::size_t word = pos / 64;
    for (const NibbleChunk& c : chunks_) {
      const TernaryRule& r = p.ternary[c.field];
      const std::uint64_t m = (r.mask >> c.shift) & 0xf;
      const std::uint64_t v = (r.value >> c.shift) & m;
      std::uint64_t* rows = plane_.data() + c.plane_row * words_;
      for (std::uint64_t nib = 0; nib < 16; ++nib) {
        std::uint64_t& w = rows[nib * words_ + word];
        if ((nib & m) == v) {
          w |= bit;
        } else {
          w &= ~bit;
        }
      }
    }
    for (const RangeField& rf : ranges_) {
      const std::uint64_t lo = p.range_lo[rf.field];
      const std::uint64_t hi = p.range_hi[rf.field];
      std::uint64_t* rows = plane_.data() + rf.plane_row * words_;
      for (std::size_t i = 0; i < rf.starts.size(); ++i) {
        const std::uint64_t first = rf.starts[i];
        const std::uint64_t last =
            i + 1 < rf.starts.size() ? rf.starts[i + 1] - 1 : ~0ull;
        std::uint64_t& w = rows[i * words_ + word];
        if (lo <= first && hi >= last) {
          w |= bit;
        } else {
          w &= ~bit;
        }
      }
    }
    ++stats_.deltas_applied;
    stats_.leaf_words_patched += p.action_data.size();
  }
  ++stats_.reseals_avoided;
  stats_.delta_apply_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::int32_t MatchIndex::FindBest(const std::uint64_t* keys) const {
  if (num_entries_ == 0) return kMiss;
  const std::size_t words = words_;
  std::uint64_t stack_buf[kStackWords];
  std::uint64_t* acc = AccBuffer(words, stack_buf);
  // Start from "every entry matches" (trimmed to the entry count) so
  // catch-all-only tables — zero chunks/fields — still hit.
  for (std::size_t w = 0; w < words; ++w) acc[w] = ~0ull;
  if (num_entries_ % 64 != 0) {
    acc[words - 1] = (1ull << (num_entries_ % 64)) - 1;
  }
  for (const NibbleChunk& c : chunks_) {
    const std::uint64_t nib = (keys[c.field] >> c.shift) & 0xf;
    const std::uint64_t* row =
        plane_.data() + (c.plane_row + nib) * words;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      acc[w] &= row[w];
      any |= acc[w];
    }
    if (any == 0) return kMiss;
  }
  for (const RangeField& rf : ranges_) {
    // Interval containing the key: last start <= key (starts[0] == 0).
    const auto it = std::upper_bound(rf.starts.begin(), rf.starts.end(),
                                     keys[rf.field]);
    const auto interval =
        static_cast<std::size_t>(it - rf.starts.begin()) - 1;
    const std::uint64_t* row =
        plane_.data() + (rf.plane_row + interval) * words;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      acc[w] &= row[w];
      any |= acc[w];
    }
    if (any == 0) return kMiss;
  }
  for (std::size_t w = 0; w < words; ++w) {
    if (acc[w] != 0) {
      return static_cast<std::int32_t>(w * 64 +
                                       static_cast<std::size_t>(
                                           std::countr_zero(acc[w])));
    }
  }
  return kMiss;
}

void MatchIndex::FindBestBatch(const std::uint64_t* keys, std::size_t stride,
                               std::span<const std::size_t> columns,
                               std::size_t n, std::int32_t* best) const {
  if (num_entries_ == 0) {
    std::fill(best, best + n, kMiss);
    return;
  }
  const std::size_t words = words_;
  std::uint64_t stack_buf[kStackWords];
  std::uint64_t* acc = AccBuffer(words, stack_buf);
  // ANDs bitset row `row` into acc; false once no entry is left.
  const auto and_row = [&](std::size_t row) {
    const std::uint64_t* bits = plane_.data() + row * words;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      acc[w] &= bits[w];
      any |= acc[w];
    }
    return any != 0;
  };
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint64_t* row_keys = keys + p * stride;
    for (std::size_t w = 0; w < words; ++w) acc[w] = ~0ull;
    if (num_entries_ % 64 != 0) {
      acc[words - 1] = (1ull << (num_entries_ % 64)) - 1;
    }
    bool live = true;
    for (std::size_t c = 0; live && c < chunks_.size(); ++c) {
      const NibbleChunk& chunk = chunks_[c];
      const std::uint64_t key = row_keys[columns[chunk.field]];
      live = and_row(chunk.plane_row + ((key >> chunk.shift) & 0xf));
    }
    for (std::size_t r = 0; live && r < ranges_.size(); ++r) {
      const RangeField& rf = ranges_[r];
      const std::uint64_t key = row_keys[columns[rf.field]];
      std::size_t interval;
      if (!rf.interval_of.empty()) {
        interval = rf.interval_of[std::min<std::uint64_t>(
            key, rf.interval_of.size() - 1)];
      } else {
        const auto it =
            std::upper_bound(rf.starts.begin(), rf.starts.end(), key);
        interval = static_cast<std::size_t>(it - rf.starts.begin()) - 1;
      }
      live = and_row(rf.plane_row + interval);
    }
    best[p] = kMiss;
    for (std::size_t w = 0; live && w < words; ++w) {
      if (acc[w] != 0) {
        best[p] = static_cast<std::int32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(acc[w])));
        break;
      }
    }
  }
}

}  // namespace pegasus::dataplane
