// Exposition (ISSUE 10 tentpole part 4): the snapshot struct
// StreamServer::TelemetrySnapshot() fills, plus JSON and Prometheus-text
// writers over it, plus an optional background StatsReporter thread that
// emits one line-rate summary per tick to any ostream.
//
// A TelemetrySnapshot is a plain value: take one at any time (including
// while the server runs — every source field is an atomic), diff two of
// them for rates, serialize them for artifacts. bench_stream writes one
// to BENCH_telemetry.json; the CI latency gate compares runs by the
// quantiles recorded here.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace pegasus::telemetry {

/// One stage's merged histogram + extracted quantiles.
struct StageSnapshot {
  Stage stage = Stage::kIngestNext;
  HistogramSnapshot hist;
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;

  /// Fills count/mean/quantiles from `hist`.
  void Finish();
};

/// One shard's live row.
struct ShardTelemetrySnapshot {
  std::uint64_t heartbeat = 0;
  std::uint64_t processed = 0;
  std::uint64_t decisions = 0;
  std::size_t ring_depth = 0;
  std::size_t ring_depth_hwm = 0;
  std::uint64_t shed_ring_full = 0;
  std::uint64_t shed_misrouted = 0;
  std::uint64_t shed_inference = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  bool stalled = false;
};

struct TelemetrySnapshot {
  /// False when the server was built with telemetry detached (the true
  /// zero-overhead shape). Every counter is still reported — counts live
  /// in the server's counter plane, not in telemetry — and only the stage
  /// histograms and trace_events_recorded stay zero.
  bool attached = false;
  std::uint32_t sample_every = 0;
  bool tracing = false;
  /// Steady-clock reading (ns) when the snapshot was taken: since
  /// telemetry start when attached, since the clock's epoch when detached.
  /// Diff two snapshots of one server for rates.
  std::uint64_t now_ns = 0;
  std::uint64_t active_version = 0;
  bool running = false;

  std::uint64_t packets = 0;    // == StreamServerStats::packets
  std::uint64_t decisions = 0;  // == StreamServerStats::decisions
  std::uint64_t shed_total = 0;
  std::uint64_t stall_events = 0;
  std::size_t stalled_shards = 0;
  std::uint64_t trace_events_recorded = 0;

  std::array<StageSnapshot, kNumStages> stages{};
  std::vector<ShardTelemetrySnapshot> shards;

  const StageSnapshot& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  /// Flow-table hit fraction over the tallies the shards last published
  /// (at each batch flush; 0 when the tables have seen nothing).
  double HitRate() const;
};

/// Machine-readable JSON (one object; stable key order; no dependency on
/// a JSON library — same discipline as the bench emitters).
void WriteJson(const TelemetrySnapshot& snap, std::ostream& os);

/// Prometheus text exposition format (# TYPE lines + samples; histograms
/// as cumulative le-labelled buckets in seconds, counters as _total).
void WritePrometheus(const TelemetrySnapshot& snap, std::ostream& os);

/// Background reporter: calls `take` every `interval_ms` and writes one
/// human-oriented line per tick (pps, shed rate, max ring depth/HWM, hit
/// rate, e2e p50/p99/p999) to `os`. Rates come from diffing consecutive
/// snapshots, the first line's against a baseline Start() takes. The
/// callback form keeps this header free of the runtime — pass
/// [&server] { return server.TelemetrySnapshot(); }.
class StatsReporter {
 public:
  using SnapshotFn = std::function<TelemetrySnapshot()>;

  StatsReporter(SnapshotFn take, std::ostream& os,
                std::uint64_t interval_ms = 1000);
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Takes the baseline snapshot and starts the thread.
  void Start();
  /// Stops the thread after emitting one final line (so short runs still
  /// produce output). Idempotent; the destructor calls it.
  void Stop();
  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void EmitLine(const TelemetrySnapshot& cur);

  SnapshotFn take_;
  std::ostream& os_;
  std::uint64_t interval_ms_;
  /// The previous line's snapshot; Start() takes the first one.
  TelemetrySnapshot last_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace pegasus::telemetry
