// Stage-latency telemetry (ISSUE 10 tentpole part 2): what the metrics
// core + flight recorder look like once wired to the serving path. One
// ServerTelemetry owns a cache-line-padded ShardTelemetry per shard
// (stage histograms + a private event ring) plus a control ring for
// producer/ingest/watchdog events, and a monotonic clock whose epoch every
// timestamp shares. Counts are not kept here: they live once, in the
// server's per-shard counter blocks, attached or not.
//
// Sampling discipline (same as the fault hooks, runtime/fault.hpp): the
// per-producer Sampler costs one predictable branch when sample_every is
// 0, and a countdown decrement — no modulo, no RNG — when it is not.
// A sampled packet carries a 32-bit truncated enqueue timestamp through
// the ring (in TracePacket's padding hole, so ShardItem stays 2x64
// bytes); 0 means "unsampled", and the 1-in-4-billion stamp that truly
// lands on 0 is nudged to 1 — a 1ns bias on one sample, not a lost one.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pegasus::telemetry {

/// The instrumented stages of a packet's life. kSwapPublish is the odd
/// one out (per-swap, not per-packet) but lives in the same set so swap
/// gaps get the same quantile treatment as packet latencies.
enum class Stage : std::uint8_t {
  /// PacketSource::Next — trace decode / pcap parse time at ingest.
  kIngestNext = 0,
  /// Push -> worker pop: time spent queued in the shard's SPSC ring.
  kRingDwell,
  /// FlowTable::FindOrInsert.
  kFlowLookup,
  /// OnlineFeatureExtractor Update + Emit*.
  kFeatureExtract,
  /// One batch flush: Infer + argmax + decision emit, amortized whole-
  /// batch cost (recorded once per flush, not per packet).
  kInferFlush,
  /// ApplySwap's serving gap: partial-batch flush + engine rebuild.
  kSwapPublish,
  /// Push (or ingest stamp) -> decision emitted, per sampled packet.
  kEndToEnd,
};

inline constexpr std::size_t kNumStages = 7;

const char* StageName(Stage stage);

struct TelemetryOptions {
  /// Record stage latencies for 1 in N packets; 0 disables sampling (one
  /// predictable branch on the hot path, nothing else).
  std::uint32_t sample_every = 0;
  /// Per-shard flight-recorder capacity in events (rounded to a power of
  /// two; the control ring gets the same). 0 disables tracing.
  std::size_t trace_events = 0;
  /// Force the telemetry structures to exist even with sampling and
  /// tracing off — the per-swap serving gap still lands in its histogram
  /// and each flush still reads the clock once. This is the "disabled" arm
  /// of the CI overhead gate: telemetry attached, per-packet sampling off.
  bool attach = false;

  bool Attached() const {
    return attach || sample_every != 0 || trace_events != 0;
  }
};

/// 1-in-N countdown. Owned by exactly one thread (each producer/worker
/// keeps its own); never shared.
struct Sampler {
  std::uint32_t every = 0;
  std::uint32_t countdown = 1;  // first eligible event is sampled

  explicit Sampler(std::uint32_t n = 0) : every(n) {}

  bool Sample() {
    if (every == 0) [[likely]] {
      return false;
    }
    if (--countdown != 0) return false;
    countdown = every;
    return true;
  }
};

/// One histogram per stage.
class StageHistograms {
 public:
  void Record(Stage stage, std::uint64_t ns) {
    h_[static_cast<std::size_t>(stage)].Record(ns);
  }
  const Log2Histogram& Of(Stage stage) const {
    return h_[static_cast<std::size_t>(stage)];
  }
  HistogramSnapshot Snapshot(Stage stage) const {
    return h_[static_cast<std::size_t>(stage)].Snapshot();
  }
  void Reset() {
    for (auto& h : h_) h.Reset();
  }

 private:
  Log2Histogram h_[kNumStages];
};

/// Everything one shard's telemetry records: its stage histograms and
/// its event ring. alignas keeps neighbouring shards' blocks off each
/// other's cache lines.
struct alignas(64) ShardTelemetry {
  explicit ShardTelemetry(std::size_t trace_capacity)
      : ring(trace_capacity) {}

  StageHistograms stages;
  EventRing ring;
};

/// The server-wide aggregate: per-shard blocks + the multi-writer control
/// ring + the shared clock.
class ServerTelemetry {
 public:
  ServerTelemetry(const TelemetryOptions& opts, std::size_t num_shards)
      : opts_(opts), control_(opts.trace_events),
        base_(std::chrono::steady_clock::now()) {
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<ShardTelemetry>(opts.trace_events));
    }
  }

  const TelemetryOptions& options() const { return opts_; }
  std::uint32_t sample_every() const { return opts_.sample_every; }
  bool tracing() const { return control_.enabled(); }
  std::size_t num_shards() const { return shards_.size(); }
  ShardTelemetry& shard(std::size_t i) { return *shards_[i]; }
  const ShardTelemetry& shard(std::size_t i) const { return *shards_[i]; }
  EventRing& control_ring() { return control_; }
  const EventRing& control_ring() const { return control_; }

  /// Nanoseconds since this telemetry instance was built (steady clock —
  /// every event and stamp shares the epoch).
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - base_)
            .count());
  }

  /// Truncated 32-bit stamp for the in-ring dwell/end-to-end clock.
  /// Wraps every ~4.29s; u32 subtraction at the consumer handles one
  /// wrap, and a span longer than that is far beyond any sane ring dwell.
  /// Never returns 0 (the "unsampled" sentinel).
  std::uint32_t Stamp32() const {
    const auto s = static_cast<std::uint32_t>(NowNs());
    return s == 0 ? 1u : s;
  }
  std::uint32_t Stamp32(std::uint64_t now_ns) const {
    const auto s = static_cast<std::uint32_t>(now_ns);
    return s == 0 ? 1u : s;
  }

  /// Merged, time-ordered dump of the control ring + every shard ring.
  std::vector<TraceEvent> DumpTrace() const {
    std::vector<std::vector<TraceEvent>> dumps;
    dumps.reserve(shards_.size() + 1);
    dumps.push_back(control_.Dump());
    for (const auto& s : shards_) dumps.push_back(s->ring.Dump());
    return MergeTraceDumps(std::move(dumps));
  }

  void Reset() {
    control_.Reset();
    for (auto& s : shards_) {
      s->stages.Reset();
      s->ring.Reset();
    }
  }

 private:
  TelemetryOptions opts_;
  EventRing control_;
  std::chrono::steady_clock::time_point base_;
  std::vector<std::unique_ptr<ShardTelemetry>> shards_;
};

}  // namespace pegasus::telemetry
