#include "telemetry/exposition.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace pegasus::telemetry {

void StageSnapshot::Finish() {
  count = hist.count;
  mean_ns = hist.Mean();
  p50_ns = hist.Quantile(0.50);
  p90_ns = hist.Quantile(0.90);
  p99_ns = hist.Quantile(0.99);
  p999_ns = hist.Quantile(0.999);
}

double TelemetrySnapshot::HitRate() const {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& s : shards) {
    hits += s.table_hits;
    misses += s.table_misses;
  }
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void WriteJson(const TelemetrySnapshot& snap, std::ostream& os) {
  os << "{\n"
     << "  \"attached\": " << (snap.attached ? "true" : "false") << ",\n"
     << "  \"sample_every\": " << snap.sample_every << ",\n"
     << "  \"tracing\": " << (snap.tracing ? "true" : "false") << ",\n"
     << "  \"running\": " << (snap.running ? "true" : "false") << ",\n"
     << "  \"now_ns\": " << snap.now_ns << ",\n"
     << "  \"active_version\": " << snap.active_version << ",\n"
     << "  \"packets\": " << snap.packets << ",\n"
     << "  \"decisions\": " << snap.decisions << ",\n"
     << "  \"shed_total\": " << snap.shed_total << ",\n"
     << "  \"stall_events\": " << snap.stall_events << ",\n"
     << "  \"stalled_shards\": " << snap.stalled_shards << ",\n"
     << "  \"trace_events_recorded\": " << snap.trace_events_recorded
     << ",\n"
     << "  \"flow_table_hit_rate\": " << snap.HitRate() << ",\n"
     << "  \"stages\": {\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageSnapshot& st = snap.stages[i];
    os << "    \"" << StageName(static_cast<Stage>(i)) << "\": {"
       << "\"count\": " << st.count << ", \"mean_ns\": " << st.mean_ns
       << ", \"p50_ns\": " << st.p50_ns << ", \"p90_ns\": " << st.p90_ns
       << ", \"p99_ns\": " << st.p99_ns << ", \"p999_ns\": " << st.p999_ns
       << "}" << (i + 1 < kNumStages ? "," : "") << "\n";
  }
  os << "  },\n  \"shards\": [\n";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const ShardTelemetrySnapshot& sh = snap.shards[i];
    os << "    {\"shard\": " << i << ", \"heartbeat\": " << sh.heartbeat
       << ", \"processed\": " << sh.processed
       << ", \"decisions\": " << sh.decisions
       << ", \"ring_depth\": " << sh.ring_depth
       << ", \"ring_depth_hwm\": " << sh.ring_depth_hwm
       << ", \"shed_ring_full\": " << sh.shed_ring_full
       << ", \"shed_misrouted\": " << sh.shed_misrouted
       << ", \"shed_inference\": " << sh.shed_inference
       << ", \"table_hits\": " << sh.table_hits
       << ", \"table_misses\": " << sh.table_misses
       << ", \"stalled\": " << (sh.stalled ? "true" : "false") << "}"
       << (i + 1 < snap.shards.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

namespace {

void WriteHistogramProm(std::ostream& os, const char* name,
                        const HistogramSnapshot& hist,
                        const char* stage_label) {
  // Cumulative le buckets in seconds (Prometheus convention). Only emit
  // buckets up to the last populated one, plus +Inf — 64 log2 buckets
  // per stage would be mostly-empty noise.
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (hist.buckets[i] != 0) last = i;
  }
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= last; ++i) {
    cum += hist.buckets[i];
    os << name << "_bucket{stage=\"" << stage_label << "\",le=\""
       << static_cast<double>(HistogramBucketHigh(i)) * 1e-9 << "\"} " << cum
       << "\n";
  }
  os << name << "_bucket{stage=\"" << stage_label << "\",le=\"+Inf\"} "
     << hist.count << "\n";
  os << name << "_sum{stage=\"" << stage_label << "\"} "
     << static_cast<double>(hist.sum) * 1e-9 << "\n";
  os << name << "_count{stage=\"" << stage_label << "\"} " << hist.count
     << "\n";
}

}  // namespace

void WritePrometheus(const TelemetrySnapshot& snap, std::ostream& os) {
  os << "# TYPE pegasus_packets_total counter\n"
     << "pegasus_packets_total " << snap.packets << "\n"
     << "# TYPE pegasus_decisions_total counter\n"
     << "pegasus_decisions_total " << snap.decisions << "\n"
     << "# TYPE pegasus_shed_total counter\n"
     << "pegasus_shed_total " << snap.shed_total << "\n"
     << "# TYPE pegasus_stall_events_total counter\n"
     << "pegasus_stall_events_total " << snap.stall_events << "\n"
     << "# TYPE pegasus_active_version gauge\n"
     << "pegasus_active_version " << snap.active_version << "\n"
     << "# TYPE pegasus_stalled_shards gauge\n"
     << "pegasus_stalled_shards " << snap.stalled_shards << "\n"
     << "# TYPE pegasus_flow_table_hit_rate gauge\n"
     << "pegasus_flow_table_hit_rate " << snap.HitRate() << "\n";
  os << "# TYPE pegasus_ring_depth gauge\n";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    os << "pegasus_ring_depth{shard=\"" << i << "\"} "
       << snap.shards[i].ring_depth << "\n";
  }
  os << "# TYPE pegasus_ring_depth_hwm gauge\n";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    os << "pegasus_ring_depth_hwm{shard=\"" << i << "\"} "
       << snap.shards[i].ring_depth_hwm << "\n";
  }
  os << "# TYPE pegasus_stage_latency_seconds histogram\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    WriteHistogramProm(os, "pegasus_stage_latency_seconds",
                       snap.stages[i].hist,
                       StageName(static_cast<Stage>(i)));
  }
}

StatsReporter::StatsReporter(SnapshotFn take, std::ostream& os,
                             std::uint64_t interval_ms)
    : take_(std::move(take)), os_(os), interval_ms_(interval_ms) {}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Start() {
  if (thread_.joinable()) return;
  // The baseline every rate is measured from, not printed: even a run that
  // ends before the first tick gets a final line with its whole-run rate.
  last_ = take_();
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void StatsReporter::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void StatsReporter::Loop() {
  // Sleep in small slices so Stop() returns promptly even with a long
  // interval; emit a final line on the way out so a run shorter than one
  // interval still reports.
  const auto slice = std::chrono::milliseconds(10);
  auto next = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(interval_ms_);
  while (!stop_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= next) {
      EmitLine(take_());
      next += std::chrono::milliseconds(interval_ms_);
    }
    std::this_thread::sleep_for(slice);
  }
  EmitLine(take_());
}

void StatsReporter::EmitLine(const TelemetrySnapshot& cur) {
  double pps = 0.0;
  double shed_rate = 0.0;
  if (cur.now_ns > last_.now_ns) {
    const double dt =
        static_cast<double>(cur.now_ns - last_.now_ns) * 1e-9;
    // A count that fell between ticks was reset (ResetStats) and counted
    // up again from zero: its whole current value is the increase.
    const auto increase = [](std::uint64_t now, std::uint64_t before) {
      return static_cast<double>(now >= before ? now - before : now);
    };
    pps = increase(cur.packets, last_.packets) / dt;
    shed_rate = increase(cur.shed_total, last_.shed_total) / dt;
  }
  std::size_t depth = 0;
  std::size_t hwm = 0;
  for (const auto& sh : cur.shards) {
    depth = std::max(depth, sh.ring_depth);
    hwm = std::max(hwm, sh.ring_depth_hwm);
  }
  const StageSnapshot& e2e = cur.stage(Stage::kEndToEnd);
  char line[256];
  std::snprintf(line, sizeof(line),
                "[telemetry] pps=%.0f shed/s=%.0f ring=%zu hwm=%zu "
                "hit=%.3f e2e_p50=%.0fns p99=%.0fns p999=%.0fns v=%llu\n",
                pps, shed_rate, depth, hwm, cur.HitRate(), e2e.p50_ns,
                e2e.p99_ns, e2e.p999_ns,
                static_cast<unsigned long long>(cur.active_version));
  os_ << line;
  os_.flush();
  last_ = cur;
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pegasus::telemetry
