// Preallocated open-addressing per-flow table — the serving-runtime
// counterpart of the register-array view in runtime/flow_state.hpp.
//
// The paper's §7.3 concurrency study (and the SFC / 5GC²ache lessons the
// ROADMAP cites) says per-flow state at line rate must live in fixed,
// preallocated structures with bounded, cache-local access. FlowTable
// delivers exactly that: one flat table sized at construction, linear
// probing bounded by `max_probe` slots, and deterministic eviction inside
// the probe window when it is full — the same policy a hardware flow cache
// implements. Nothing allocates after construction.
//
// Layout is split-lane by default: probing walks a dense metadata lane
// (16-byte digest + stamp entries, four probe slots per 64-byte cache
// line) and the cold per-flow Value lane is touched only on hit or insert.
// At million-flow scale every probe step in the old interleaved layout
// dragged a cold value line through the LLC; the split lane turns an
// 8-slot probe window into 2–3 metadata lines. The interleaved layout is
// kept selectable (FlowTableOptions::layout) as the measured baseline —
// bench_flowscale A/Bs the two — and the semantics are identical by
// construction: both layouts share one probe/eviction implementation.
//
// Keys are 64-bit FlowKey digests; two flows only collide into one entry if
// their digests are equal (a property real switches share — the digest IS
// the flow identity past the parser). Slots never empty once occupied
// (eviction replaces in place), which keeps the probe invariant simple: a
// key can only live between its home slot and the first empty slot of its
// probe window. Occupancy is encoded in the stamp (stamp == 0 ⇔ empty;
// ticks start at 1), so the metadata entry stays at 16 bytes.
//
// Eviction is exact-LRU inside the probe window by default (unique stamps,
// fully deterministic — the MT == ST equality proofs rely on it). A
// second-chance/CLOCK policy is selectable: a hit sets a reference bit
// (stamp bit 63) instead of re-stamping, and the victim scan walks the
// window in probe order clearing reference bits until it finds an
// unreferenced entry (falling back to the home slot when every entry was
// referenced). Still deterministic — just a different, cheaper policy.
//
// Per-table stats (hits / misses / inserts / evictions / probes + a
// probe-length histogram) feed the StreamServer's shard accounting;
// SramBits() prices the table like the dataplane would
// (dataplane::FlowTableSramBits).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dataplane/registers.hpp"
#include "dataplane/resources.hpp"

namespace pegasus::runtime {

/// Physical layout of the table. kSplit probes a dense metadata lane and
/// touches values only on hit/insert; kInterleaved stores metadata and
/// value together (the pre-split baseline, kept for A/B measurement).
enum class FlowTableLayout { kSplit, kInterleaved };

/// Eviction policy inside a full probe window. kLru is exact-LRU on unique
/// stamps (deterministic default); kSecondChance is a CLOCK-style scan over
/// the window in probe order (also deterministic, cheaper per hit).
enum class FlowTableEviction { kLru, kSecondChance };

inline const char* FlowTableLayoutName(FlowTableLayout l) {
  return l == FlowTableLayout::kSplit ? "split" : "interleaved";
}

inline const char* FlowTableEvictionName(FlowTableEviction e) {
  return e == FlowTableEviction::kLru ? "lru" : "second_chance";
}

struct FlowTableOptions {
  std::size_t capacity = std::size_t{1} << 12;
  std::size_t max_probe = 8;
  FlowTableLayout layout = FlowTableLayout::kSplit;
  FlowTableEviction eviction = FlowTableEviction::kLru;
};

struct FlowTableStats {
  static constexpr std::size_t kProbeHistBuckets = 16;

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t probes = 0;
  /// probe_hist[i] counts operations whose probe sequence examined i+1
  /// slots; the last bucket absorbs anything longer. sum(probe_hist) ==
  /// the number of Find/FindOrInsert calls.
  std::array<std::uint64_t, kProbeHistBuckets> probe_hist{};
  /// Occupancy snapshot (filled by SnapshotStats, zero on the live counter
  /// struct): resident entries and total slots at snapshot time. Summing
  /// across shards keeps resident/slots a meaningful aggregate load factor.
  std::uint64_t resident = 0;
  std::uint64_t slots = 0;

  double LoadFactor() const {
    return slots ? static_cast<double>(resident) / static_cast<double>(slots)
                 : 0.0;
  }

  /// Mean probe-sequence length per operation.
  double MeanProbe() const {
    const std::uint64_t ops = hits + misses;
    return ops ? static_cast<double>(probes) / static_cast<double>(ops) : 0.0;
  }

  FlowTableStats& operator+=(const FlowTableStats& o) {
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    evictions += o.evictions;
    probes += o.probes;
    for (std::size_t i = 0; i < kProbeHistBuckets; ++i) {
      probe_hist[i] += o.probe_hist[i];
    }
    resident += o.resident;
    slots += o.slots;
    return *this;
  }
};

/// Mixes a flow digest into a well-distributed hash (splitmix64 finalizer).
inline std::uint64_t MixDigest(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename Value>
class FlowTable {
 public:
  /// `capacity` is rounded up to a power of two; `max_probe` bounds the
  /// linear probe length (and therefore the worst-case per-packet work).
  explicit FlowTable(const FlowTableOptions& opts)
      : max_probe_(opts.max_probe),
        layout_(opts.layout),
        eviction_(opts.eviction) {
    if (opts.capacity == 0) {
      throw std::invalid_argument("FlowTable: zero capacity");
    }
    if (opts.max_probe == 0) {
      throw std::invalid_argument("FlowTable: zero probe length");
    }
    const std::size_t pow2 = std::bit_ceil(opts.capacity);
    if (max_probe_ > pow2) max_probe_ = pow2;
    capacity_ = pow2;
    mask_ = pow2 - 1;
    if (layout_ == FlowTableLayout::kSplit) {
      meta_.resize(pow2);
      values_.resize(pow2);
    } else {
      islots_.resize(pow2);
    }
  }

  explicit FlowTable(std::size_t capacity, std::size_t max_probe = 8)
      : FlowTable(FlowTableOptions{capacity, max_probe,
                                   FlowTableLayout::kSplit,
                                   FlowTableEviction::kLru}) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  std::size_t max_probe() const { return max_probe_; }
  FlowTableLayout layout() const { return layout_; }
  FlowTableEviction eviction() const { return eviction_; }
  const FlowTableStats& stats() const { return stats_; }

  /// Live-table load factor (resident entries / slots).
  double LoadFactor() const {
    return static_cast<double>(size_) / static_cast<double>(capacity_);
  }

  /// Counters plus an occupancy snapshot (resident/slots).
  FlowTableStats SnapshotStats() const {
    FlowTableStats s = stats_;
    s.resident = size_;
    s.slots = capacity_;
    return s;
  }

  /// Zeroes the counters; resident entries (and their LRU stamps) are
  /// untouched. The StreamServer drains the counters into its shard's
  /// counter block at each batch flush and resets them here, without
  /// disturbing live flow state.
  void ResetStats() { stats_ = {}; }

  /// Batch key-gather hook: software-prefetches the metadata line(s) of
  /// `key`'s whole probe window, with a read hint — the lookup path is
  /// read-mostly, and a probe can end anywhere in the window. A shard
  /// worker draining a burst off its ring prefetches every key up front,
  /// then processes the packets — the flow-state cache misses overlap
  /// instead of serializing (the 5GC²ache lesson: LLC behavior, not
  /// instruction count, governs per-packet serving cost).
  void Prefetch(const dataplane::FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t home = MixDigest(key.digest) & mask_;
    if (layout_ == FlowTableLayout::kSplit) {
      constexpr std::size_t kStride = 64 / sizeof(Meta);
      for (std::size_t off = 0; off < max_probe_; off += kStride) {
        __builtin_prefetch(
            static_cast<const void*>(&meta_[(home + off) & mask_]),
            /*rw=*/0, /*locality=*/3);
      }
      // The window rarely starts line-aligned: cover the straddled tail.
      __builtin_prefetch(
          static_cast<const void*>(&meta_[(home + max_probe_ - 1) & mask_]),
          /*rw=*/0, /*locality=*/3);
    } else {
      constexpr std::size_t kStride =
          sizeof(ISlot) >= 64 ? 1 : 64 / sizeof(ISlot);
      for (std::size_t off = 0; off < max_probe_; off += kStride) {
        __builtin_prefetch(
            static_cast<const void*>(&islots_[(home + off) & mask_]),
            /*rw=*/0, /*locality=*/3);
      }
      __builtin_prefetch(
          static_cast<const void*>(&islots_[(home + max_probe_ - 1) & mask_]),
          /*rw=*/0, /*locality=*/3);
    }
#else
    (void)key;
#endif
  }

  /// Looks the flow up without inserting. Returns nullptr when absent (and
  /// counts a miss). A hit refreshes the entry's recency (LRU stamp or
  /// second-chance reference bit).
  Value* Find(const dataplane::FlowKey& key) {
    return layout_ == FlowTableLayout::kSplit ? FindImpl<true>(key)
                                              : FindImpl<false>(key);
  }

  /// Looks the flow up, inserting a value-initialized entry when absent.
  /// When the probe window is full, the eviction policy picks a victim in
  /// the window (deterministically; exact-LRU by default). The evicted
  /// flow's state is reset, never merged — surviving entries are untouched.
  Value& FindOrInsert(const dataplane::FlowKey& key) {
    return layout_ == FlowTableLayout::kSplit ? FindOrInsertImpl<true>(key)
                                              : FindOrInsertImpl<false>(key);
  }

  /// Drops every entry (capacity and stats are kept).
  void Clear() {
    if (layout_ == FlowTableLayout::kSplit) {
      for (Meta& m : meta_) m = Meta{};
      for (Value& v : values_) v = Value{};
    } else {
      for (ISlot& s : islots_) {
        s.meta = Meta{};
        s.value = Value{};
      }
    }
    size_ = 0;
  }

  /// Dataplane SRAM footprint of this table given the logical per-flow
  /// state width (see runtime/stream_server.hpp's OnlineFlowStateSpec).
  std::size_t SramBits(std::size_t bits_per_flow) const {
    return dataplane::FlowTableSramBits(bits_per_flow, capacity_);
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Second-chance reference bit, kept inside the stamp so metadata stays
  /// 16 bytes. LRU mode never sets it, so LRU stamps order exactly by age.
  static constexpr std::uint64_t kRefBit = std::uint64_t{1} << 63;

  /// Hot-lane entry: everything a probe step needs. stamp == 0 ⇔ empty.
  struct Meta {
    std::uint64_t digest = 0;
    std::uint64_t stamp = 0;
  };
  static_assert(sizeof(Meta) == 16, "four probe slots per 64-byte line");

  struct ISlot {
    Meta meta{};
    Value value{};
  };

  template <bool Split>
  Meta& MetaAt(std::size_t i) {
    if constexpr (Split) {
      return meta_[i];
    } else {
      return islots_[i].meta;
    }
  }

  template <bool Split>
  Value& ValueAt(std::size_t i) {
    if constexpr (Split) {
      return values_[i];
    } else {
      return islots_[i].value;
    }
  }

  void Touch(Meta& m) {
    if (eviction_ == FlowTableEviction::kLru) {
      m.stamp = ++tick_;
    } else {
      m.stamp |= kRefBit;
    }
  }

  void RecordProbe(std::size_t len) {
    stats_.probe_hist[std::min(len, FlowTableStats::kProbeHistBuckets) - 1]++;
  }

  /// CLOCK sweep: walk the window in probe order, clear reference bits,
  /// evict the first unreferenced entry. Every entry referenced → all bits
  /// are now clear and the home slot is the victim (deterministic).
  template <bool Split>
  std::size_t SecondChanceVictim(std::size_t home) {
    std::size_t idx = home;
    for (std::size_t p = 0; p < max_probe_; ++p, idx = (idx + 1) & mask_) {
      Meta& m = MetaAt<Split>(idx);
      if (m.stamp & kRefBit) {
        m.stamp &= ~kRefBit;
        continue;
      }
      return idx;
    }
    return home;
  }

  template <bool Split>
  Value* FindImpl(const dataplane::FlowKey& key) {
    std::size_t idx = MixDigest(key.digest) & mask_;
    std::size_t len = 0;
    for (std::size_t p = 0; p < max_probe_; ++p, idx = (idx + 1) & mask_) {
      Meta& m = MetaAt<Split>(idx);
      ++stats_.probes;
      ++len;
      if (m.stamp == 0) break;  // never-emptied invariant: key is absent
      if (m.digest == key.digest) {
        ++stats_.hits;
        Touch(m);
        RecordProbe(len);
        return &ValueAt<Split>(idx);
      }
    }
    RecordProbe(len);
    ++stats_.misses;
    return nullptr;
  }

  template <bool Split>
  Value& FindOrInsertImpl(const dataplane::FlowKey& key) {
    const std::size_t home = MixDigest(key.digest) & mask_;
    std::size_t idx = home;
    std::size_t victim = home;
    std::uint64_t victim_stamp = ~std::uint64_t{0};
    std::size_t empty = kNone;
    std::size_t len = 0;
    for (std::size_t p = 0; p < max_probe_; ++p, idx = (idx + 1) & mask_) {
      Meta& m = MetaAt<Split>(idx);
      ++stats_.probes;
      ++len;
      if (m.stamp == 0) {
        empty = idx;
        break;
      }
      if (m.digest == key.digest) {
        ++stats_.hits;
        Touch(m);
        RecordProbe(len);
        return ValueAt<Split>(idx);
      }
      if (m.stamp < victim_stamp) {
        victim_stamp = m.stamp;
        victim = idx;
      }
    }
    RecordProbe(len);
    ++stats_.misses;
    ++stats_.inserts;
    std::size_t at = empty;
    if (at == kNone) {
      ++stats_.evictions;
      at = eviction_ == FlowTableEviction::kSecondChance
               ? SecondChanceVictim<Split>(home)
               : victim;
    } else {
      ++size_;
    }
    Meta& m = MetaAt<Split>(at);
    m.digest = key.digest;
    m.stamp = ++tick_;
    Value& v = ValueAt<Split>(at);
    v = Value{};
    return v;
  }

  std::vector<Meta> meta_;     // split: hot lane (probed)
  std::vector<Value> values_;  // split: cold lane (hit/insert only)
  std::vector<ISlot> islots_;  // interleaved baseline
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t max_probe_;
  std::size_t size_ = 0;
  std::uint64_t tick_ = 0;
  FlowTableLayout layout_;
  FlowTableEviction eviction_;
  FlowTableStats stats_;
};

}  // namespace pegasus::runtime
