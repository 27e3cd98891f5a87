// perfbench — the repository's serving benchmark, one command per workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Workloads (BENCHMARK.json records why each was chosen):
//   flow-churn    CNN-M, 2 pinned shards, closed loop over 262K live flows
//   paced-update  CNN-M, 2 pinned shards, open loop at 100K pps from a pcap
//   mlp-saturate  MLP-B, 1 shard single-threaded, closed loop. Not listed in
//                 BENCHMARK.json: on a shared host its cache-bound inference
//                 swings up to 2x for seconds at a time, wider than any
//                 bound. Run it by name to see the inference-kernel share.
//
// Every workload alternates two model versions during the run (a delta
// update for CNN-M, a whole-model swap for MLP-B), so every end-to-end
// metric is measured on every workload.
//
// --trace 0 serves the workload on a live StreamServer for --seconds and
// prints the end-to-end metrics. --trace 1 serves it the same way and then
// replays the same traffic through the layers' public calls with a span
// per call (replay.hpp), printing the per-layer metrics and writing the
// spans as Chrome trace-event JSON under --out-dir.
//
// Every live run's decisions must equal the replay's (per flow, in order,
// with version and score), and the server's accounting identities must
// hold; anything else is counted in "failed" and the exit status is 1.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "eval/experiment.hpp"
#include "io/replay.hpp"
#include "replay.hpp"
#include "runtime/affinity.hpp"
#include "runtime/stream_server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

namespace pb = pegasus::perfbench;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;
using Clock = std::chrono::steady_clock;

// Setup is repeated and its median reported, so slow repetitions do not
// move setup_s. Half the repeats run before serving and half after it: on a
// shared machine the CPU speed can shift for tens of seconds at a time, and
// repeats that far apart rarely all fall in one slow stretch.
constexpr int kSetupRepeats = 6;
// Open loop: the generator reads the decision counters in its slack, at
// most once per this interval.
constexpr double kPollIntervalS = 10e-6;
// An open-loop run whose generator sent half its packets later than this
// behind schedule fell behind: it could not hold the rate, and the whole
// run counts as failed. Transient lateness (a generator descheduled on a
// busy host) is charged in the latencies, which run from the scheduled
// send time, and shows in gen.lag_p99_us.
constexpr double kMaxLagMedianUs = 1'000.0;
// Closed-loop throughput is the median over windows of consecutive passes
// lasting at least this long.
constexpr double kThroughputWindowS = 1.0;
// Latency percentiles are taken per window of this many seconds of send
// time (within a pass), and the figure reported is their median over all
// windows. Two update periods, so every open-loop window holds an update
// in each direction (v1->v2 and v2->v1).
constexpr double kLatencyWindowS = 2.0 * pegasus::perfbench::kUpdatePeriodS;
// Decision latency percentiles taken per window. p50 and p90 are gated
// end-to-end metrics; p99 and p999 are printed only. The worker threads of
// the server yield when idle, so any few-millisecond pause of a worker's
// CPU delays every decision waiting in its batch: a competing thread that
// takes 10% of both worker CPUs in 3 ms slices doubles p99 and moves p90
// by a fifth (measured on a 4-vCPU Xeon VM), and a shared host gives such
// pauses to some runs and not others.
constexpr double kLatencyQuantiles[] = {50.0, 90.0, 99.0, 99.9};
constexpr std::size_t kNumLatencyQuantiles = std::size(kLatencyQuantiles);
// Chrome trace size cap (spans beyond it still count in the totals).
constexpr std::size_t kMaxStoredSpans = 200'000;
// Closed-loop workloads have no capture of their own; this many of their
// packets are written as one to time decoding.
constexpr std::size_t kDecodeSamplePackets = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && have_seed &&
         have_seconds && have_trace && !a.out_dir.empty();
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---- positions: (flow, index) -> trace position --------------------------

class PacketIndex {
 public:
  explicit PacketIndex(const std::vector<tr::TracePacket>& trace) {
    std::uint32_t flows = 0;
    for (const auto& p : trace) flows = std::max(flows, p.flow + 1);
    start_.assign(static_cast<std::size_t>(flows) + 1, 0);
    for (const auto& p : trace) ++start_[p.flow + 1];
    for (std::size_t f = 1; f < start_.size(); ++f) start_[f] += start_[f - 1];
    pos_.assign(trace.size(), kNone);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& p = trace[i];
      const std::size_t at = start_[p.flow] + p.index;
      if (at >= start_[p.flow + 1] || pos_[at] != kNone) {
        throw std::runtime_error("trace packet indexes are not 0..n-1 per flow");
      }
      pos_[at] = static_cast<std::uint32_t>(i);
    }
  }
  /// Trace position of packet `index` of `flow`, or kNone.
  std::uint32_t Of(std::uint32_t flow, std::uint32_t index) const {
    if (static_cast<std::size_t>(flow) + 1 >= start_.size()) return kNone;
    const std::size_t at = start_[flow] + index;
    return at < start_[flow + 1] ? pos_[at] : kNone;
  }
  static constexpr std::uint32_t kNone = 0xffffffffu;

 private:
  std::vector<std::size_t> start_;
  std::vector<std::uint32_t> pos_;
};

// ---- decisions vs reference ----------------------------------------------

using DecisionKey = std::tuple<std::uint32_t, std::uint32_t>;

void SortByPacket(std::vector<rt::StreamDecision>& v) {
  std::sort(v.begin(), v.end(),
            [](const rt::StreamDecision& a, const rt::StreamDecision& b) {
              return DecisionKey{a.flow, a.index} < DecisionKey{b.flow, b.index};
            });
}

bool SameDecision(const rt::StreamDecision& a, const rt::StreamDecision& b) {
  return a.flow_digest == b.flow_digest && a.flow == b.flow &&
         a.index == b.index && a.predicted == b.predicted &&
         a.version == b.version &&
         std::memcmp(&a.score, &b.score, sizeof(float)) == 0;
}

/// Decisions missing from, added to or different from the reference (both
/// sorted by packet).
std::uint64_t CountMismatches(const std::vector<rt::StreamDecision>& got,
                              const std::vector<rt::StreamDecision>& ref) {
  std::uint64_t bad = 0;
  std::size_t i = 0, j = 0;
  while (i < got.size() || j < ref.size()) {
    if (i == got.size()) { ++bad; ++j; continue; }
    if (j == ref.size()) { ++bad; ++i; continue; }
    const DecisionKey a{got[i].flow, got[i].index};
    const DecisionKey b{ref[j].flow, ref[j].index};
    if (a < b) { ++bad; ++i; continue; }
    if (b < a) { ++bad; ++j; continue; }
    if (!SameDecision(got[i], ref[j])) ++bad;
    ++i;
    ++j;
  }
  return bad;
}

/// The existing bit-exactness contract: every reference decision equals
/// the offline Extract*Features + eval::PredictClassesLowered prediction of
/// the version that made it. Decisions find their dataset flow by digest
/// (a capture numbers flows in order of first appearance). Returns the
/// number of disagreements.
std::uint64_t CrossCheckOffline(const pb::Workload& w, const pb::Models& m,
                                const pb::Input& in,
                                const std::vector<rt::StreamDecision>& ref) {
  tr::ExtractOptions every;
  every.max_samples_per_flow = std::numeric_limits<std::size_t>::max();
  const tr::SampleSet all =
      w.feature == rt::FeatureKind::kStat
          ? tr::ExtractStatFeatures(in.dataset.flows, every)
          : tr::ExtractSeqFeatures(in.dataset.flows, every);
  std::vector<std::size_t> first(in.dataset.flows.size() + 1, 0);
  for (const std::size_t f : all.flow_index) ++first[f + 1];
  for (std::size_t f = 1; f < first.size(); ++f) first[f] += first[f - 1];
  std::unordered_map<std::uint64_t, std::size_t> flow_of;
  for (std::size_t f = 0; f < in.dataset.flows.size(); ++f) {
    flow_of.emplace(in.dataset.flows[f].key.digest, f);
  }
  std::uint64_t bad = 0;
  for (std::size_t v = 0; v < 2; ++v) {
    tr::SampleSet subset;
    subset.dim = all.dim;
    std::vector<const rt::StreamDecision*> which;
    for (const auto& d : ref) {
      if (m.IndexOfVersion(d.version) != v) continue;
      const auto it = flow_of.find(d.flow_digest);
      const std::size_t k = d.index + 1 - tr::kWindow;
      if (it == flow_of.end() || d.index + 1 < tr::kWindow ||
          first[it->second] + k >= first[it->second + 1]) {
        ++bad;
        continue;
      }
      const std::size_t row = first[it->second] + k;
      subset.x.insert(subset.x.end(), all.x.begin() + row * all.dim,
                      all.x.begin() + (row + 1) * all.dim);
      subset.labels.push_back(all.labels[row]);
      which.push_back(&d);
    }
    rt::InferenceEngine engine(*m.v[v]);
    const auto predicted = pegasus::eval::PredictClassesLowered(engine, subset);
    for (std::size_t i = 0; i < which.size(); ++i) {
      bad += predicted[i] != which[i]->predicted;
    }
  }
  return bad;
}

// ---- reference / traced replay -------------------------------------------

struct ReplayResult {
  std::vector<rt::StreamDecision> decisions;  // sorted by packet
  double wall_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t decided = 0;
  std::uint64_t shadow_packets = 0;
  std::uint64_t shadow_hits = 0;
  std::uint64_t shadow_mismatches = 0;
};

ReplayResult RunReplay(const pb::Workload& w, const pb::Models& m,
                       const pb::Input& in, pb::SpanRecorder& rec) {
  pb::Replay replay(w, m, rec);
  std::unique_ptr<pegasus::io::PcapPacketSource> source;
  if (!in.capture_path.empty()) {
    source = std::make_unique<pegasus::io::PcapPacketSource>(in.capture_path,
                                                             in.labeler);
  }
  std::size_t next_update = 0;
  tr::TracePacket p;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in.trace.size(); ++i) {
    if (next_update < in.update_at.size() && in.update_at[next_update] == i) {
      replay.Update();
      ++next_update;
    }
    rec.Begin(pb::kSpanPacket, i, 0);
    if (source) {
      rec.Begin(pb::kSpanIoDecode, i, 0);
      if (!source->Next(p)) throw std::runtime_error("capture ended early");
      rec.End();
      replay.Process(p, i);
    } else {
      replay.Process(in.trace[i], i);
    }
    rec.End();
  }
  replay.Finish();
  ReplayResult r;
  r.wall_s = Since(t0);
  r.packets = in.trace.size();
  r.decided = replay.decided();
  r.shadow_packets = replay.shadow_packets();
  r.shadow_hits = replay.shadow_table_hits();
  r.shadow_mismatches = replay.shadow_mismatches();
  r.decisions = replay.TakeDecisions();
  SortByPacket(r.decisions);
  return r;
}

// ---- live serving --------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;
  std::uint64_t unseen = 0;
  rt::StreamServerStats stats;
  std::size_t ring_hwm = 0;
  std::vector<rt::StreamDecision> decisions;
  /// Decision latency percentiles (kLatencyQuantiles) of each window,
  /// microseconds.
  std::vector<double> window_latency_us[kNumLatencyQuantiles];
  std::uint64_t latency_samples = 0;
  std::vector<double> apply_ms;
  std::vector<double> visible_ms;
  std::vector<double> lag_us;
  double push_ns = 0.0;
  std::uint64_t pushes = 0;
};

/// One live run over the whole input on a fresh server. `timed_pushes`
/// adds two clock readings per packet (push time and closed-loop lag);
/// only the traced mode asks for them.
PassResult RunPass(const pb::Workload& w, const pb::Models& m,
                   const pb::Input& in, const PacketIndex& index,
                   const rt::PinPlan& plan, bool timed_pushes) {
  PassResult r;
  const std::size_t shards = w.shards;
  rt::StreamServer server(m.v[0], pb::ServerOptions(w), 1);
  std::unique_ptr<pegasus::io::PcapPacketSource> source;
  if (w.paced()) {
    source = std::make_unique<pegasus::io::PcapPacketSource>(in.capture_path,
                                                             in.labeler);
  }
  if (w.multithreaded) server.Start();
  std::unique_ptr<rt::ScopedThreadPin> pin;
  if (w.multithreaded && !plan.ingest_cpu.empty() && plan.ingest_cpu[0] >= 0) {
    pin = std::make_unique<rt::ScopedThreadPin>(plan.ingest_cpu[0]);
  }

  pb::PollLog log(shards);
  std::vector<std::uint64_t> counts(shards, 0);
  std::vector<std::uint64_t> last(shards, ~std::uint64_t{0});
  auto poll = [&](double t) {
    const auto snap = server.TelemetrySnapshot();
    bool changed = false;
    for (std::size_t s = 0; s < shards; ++s) {
      counts[s] = snap.shards[s].decisions;
      changed = changed || counts[s] != last[s];
    }
    if (changed) {
      log.Add(t, counts);
      last = counts;
    }
  };

  const std::size_t n = in.trace.size();
  const std::size_t block = w.poll_every_packets;
  std::vector<double> block_t;
  std::vector<double> update_t;
  std::vector<std::uint64_t> update_version;
  if (w.paced()) r.lag_us.reserve(n);
  std::size_t next_update = 0;
  std::uint64_t version = 1;
  tr::TracePacket p;
  double last_poll = -1.0;
  double prev_done = 0.0;
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    double now = 0.0;
    if (w.paced()) {
      const double due = in.send_s[i];
      now = Since(t0);
      while (now < due) {
        if (now - last_poll >= kPollIntervalS) {
          poll(now);
          last_poll = now;
        }
        now = Since(t0);
      }
      r.lag_us.push_back((now - due) * 1e6);
    } else if (i % block == 0) {
      now = Since(t0);
      poll(now);
      block_t.push_back(now);
    }
    if (next_update < in.update_at.size() && in.update_at[next_update] == i) {
      ++next_update;
      ++version;
      // Single-threaded, the call would first run the pending partial
      // batch through the outgoing model inline, so its time would measure
      // how full that batch happened to be. Flush it just before (same
      // decisions, same version): the timed call holds the publish alone.
      if (!w.multithreaded) server.Flush();
      const double call = Since(t0);
      if (m.delta) {
        server.SwapModelDelta(m.patches[m.IndexOfVersion(version) == 1 ? 0 : 1],
                              version);
      } else {
        server.SwapModel(m.v[m.IndexOfVersion(version)], version);
      }
      r.apply_ms.push_back((Since(t0) - call) * 1e3);
      update_t.push_back(call);
      update_version.push_back(version);
    }
    const tr::TracePacket* pkt = &in.trace[i];
    if (source) {
      if (!source->Next(p)) throw std::runtime_error("capture ended early");
      if (p.flow != pkt->flow || p.index != pkt->index) ++r.failed;
      pkt = &p;
    }
    if (timed_pushes) {
      const double start = Since(t0);
      if (!w.paced() && i > 0) r.lag_us.push_back((start - prev_done) * 1e6);
      server.Push(*pkt);
      prev_done = Since(t0);
      r.push_ns += (prev_done - start) * 1e9;
      ++r.pushes;
    } else {
      server.Push(*pkt);
    }
  }
  poll(Since(t0));
  if (w.multithreaded) {
    server.Stop();
  } else {
    server.Flush();
  }
  const double end = Since(t0);
  poll(end);
  r.wall_s = end;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  pin.reset();
  r.offered = n;

  for (const auto& s : server.Health().shards) {
    r.ring_hwm = std::max(r.ring_hwm, s.ring_depth_hwm);
  }
  r.stats = server.Stats();
  r.decisions = server.TakeDecisions();

  // When each decision was first seen, and from that its latency.
  std::vector<std::uint32_t> shard_of(r.decisions.size());
  for (std::size_t j = 0; j < r.decisions.size(); ++j) {
    shard_of[j] = static_cast<std::uint32_t>(
        rt::StreamServer::ShardIndexOf(r.decisions[j].flow_digest, shards));
    if (j > 0 && shard_of[j] < shard_of[j - 1]) {
      throw std::runtime_error("TakeDecisions is not shard-major");
    }
  }
  const std::vector<double> seen = pb::SeenTimes(shard_of, log);
  // Latency per window of send time. The open loop leaves out the ramps
  // at both ends of its schedule.
  const double from = w.paced() ? in.window_begin_s : 0.0;
  const double span = w.paced() ? in.window_end_s - from : end;
  std::vector<std::vector<double>> windows(static_cast<std::size_t>(
      std::max(1.0, std::ceil(span / kLatencyWindowS))));
  for (std::size_t j = 0; j < r.decisions.size(); ++j) {
    const auto& d = r.decisions[j];
    const std::uint32_t pos = index.Of(d.flow, d.index);
    if (pos == PacketIndex::kNone || std::isnan(seen[j])) {
      ++r.unseen;
      continue;
    }
    const double sent = w.paced() ? in.send_s[pos] : block_t[pos / block];
    if (sent < from || sent >= from + span) continue;
    const auto win = std::min(windows.size() - 1,
                              static_cast<std::size_t>((sent - from) /
                                                       kLatencyWindowS));
    windows[win].push_back((seen[j] - sent) * 1e6);
    ++r.latency_samples;
  }
  for (const auto& v : windows) {
    // A window needs ten samples beyond its highest percentile.
    if (v.size() < 10'000) continue;
    for (std::size_t q = 0; q < kNumLatencyQuantiles; ++q) {
      r.window_latency_us[q].push_back(pb::Percentile(v, kLatencyQuantiles[q]));
    }
  }
  // An update is visible once every shard has emitted a decision made by
  // it (or by a later version).
  std::vector<std::size_t> first_of(shards + 1, r.decisions.size());
  for (std::size_t j = r.decisions.size(); j-- > 0;) first_of[shard_of[j]] = j;
  for (std::size_t s = shards; s-- > 0;) {
    first_of[s] = std::min(first_of[s], first_of[s + 1]);
  }
  for (std::size_t k = 0; k < update_t.size(); ++k) {
    if (w.paced()) {
      const double due = in.send_s[in.update_at[k]];
      if (due < in.window_begin_s || due >= in.window_end_s) continue;
    }
    double visible = -1.0;
    for (std::size_t s = 0; s < shards && !std::isnan(visible); ++s) {
      const auto first = std::partition_point(
          r.decisions.begin() + static_cast<std::ptrdiff_t>(first_of[s]),
          r.decisions.begin() + static_cast<std::ptrdiff_t>(first_of[s + 1]),
          [&](const rt::StreamDecision& d) {
            return d.version < update_version[k];
          });
      const auto at = static_cast<std::size_t>(first - r.decisions.begin());
      if (at >= first_of[s + 1] || std::isnan(seen[at])) {
        visible = std::numeric_limits<double>::quiet_NaN();
      } else {
        visible = std::max(visible, seen[at]);
      }
    }
    if (!std::isnan(visible)) r.visible_ms.push_back((visible - update_t[k]) * 1e3);
  }

  // The accounting identities of StreamServerStats.
  const auto& st = r.stats;
  const std::uint64_t served = st.packets + st.shed.total();
  r.failed += served > r.offered ? served - r.offered : r.offered - served;
  const std::uint64_t parts = st.decisions + st.warmup + st.shed.inference;
  r.failed += parts > st.packets ? parts - st.packets : st.packets - parts;
  r.failed += st.shed.total() + r.unseen;
  return r;
}

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-40s %18s  %s\n", "metric", "value", "unit");
  for (const auto& mt : metrics) {
    std::printf("%-40s %18.6f  %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }
  std::printf("failed_ratio %.6g (%llu of %llu packets)\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  const pb::Workload* wp = pb::FindWorkload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const auto& w : pb::Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const pb::Workload& w = *wp;

  // ---- provenance, and the refusals --------------------------------------
  const int nproc = rt::OnlineCpuCount();
  const rt::StreamServerOptions opts = pb::ServerOptions(w);
  const rt::PinPlan plan =
      rt::MakePinPlan(opts.pin_policy, w.multithreaded ? w.shards : 0,
                      w.multithreaded ? 1 : 0);
  const std::size_t threads = pb::ThreadCount(w);
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"nproc\": %d, \"cpu_model\": \"%s\", \"pin_policy\": \"%s\", "
      "\"pin_cpus\": \"%s\", \"threads\": %zu, \"shards\": %zu, "
      "\"multithreaded\": %s, \"flows_per_shard\": %zu, \"batch_size\": %zu}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, pegasus::bench::BuildType(), pegasus::bench::GitSha(),
      nproc, JsonEscape(CpuModel()).c_str(), rt::CpuPinPolicyName(opts.pin_policy),
      plan.Describe().c_str(), threads, w.shards,
      w.multithreaded ? "true" : "false", w.flows_per_shard, opts.batch_size);
  if (std::strcmp(pegasus::bench::BuildType(), "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 pegasus::bench::BuildType());
    return 2;
  }
  if (nproc > 0 && threads > static_cast<std::size_t>(nproc)) {
    std::fprintf(stderr, "workload needs %zu threads but only %d CPUs\n",
                 threads, nproc);
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  // ---- setup: training data, training, compile + lower, server + Start ---
  std::vector<double> setup_s, train_s, lower_s;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    auto m = std::make_unique<pb::Models>(pb::BuildModels(w));
    {
      rt::StreamServer server(m->v[0], opts, 1);
      if (w.multithreaded) server.Start();
      setup_s.push_back(Since(t0));
      if (w.multithreaded) server.Stop();
    }
    train_s.push_back(m->train_s);
    lower_s.push_back(m->lower_s);
    return m;
  };
  std::unique_ptr<pb::Models> models;
  for (int rep = 0; rep < kSetupRepeats / 2; ++rep) models = set_up();
  const pb::Models& m = *models;
  std::printf("models: %s updates, plan bytes %zu / %zu\n",
              m.delta ? "delta" : "whole-model", m.plan_bytes[0],
              m.plan_bytes[1]);

  // ---- serving traffic (not part of setup) -------------------------------
  const auto in_ptr = pb::BuildInput(w, args.seed, args.seconds, args.out_dir);
  const pb::Input& in = *in_ptr;
  const PacketIndex index(in.trace);
  std::printf("traffic: %zu packets, %zu updates\n", in.trace.size(),
              in.update_at.size());

  // ---- reference decisions (traced when --trace 1) -----------------------
  std::uint64_t failed = 0;
  pb::SpanRecorder rec(args.trace, pb::SpanNames(), kMaxStoredSpans);
  const ReplayResult ref = RunReplay(w, m, in, rec);
  failed += ref.shadow_mismatches;
  if (ref.shadow_mismatches) {
    std::printf("dataplane shadow disagreed with the engine %llu times\n",
                static_cast<unsigned long long>(ref.shadow_mismatches));
  }
  if (args.trace && w.traffic != pb::TrafficKind::kChurn) {
    const std::uint64_t bad = CrossCheckOffline(w, m, in, ref.decisions);
    std::printf("offline cross-check: %llu of %zu decisions disagree with "
                "eval::PredictClassesLowered\n",
                static_cast<unsigned long long>(bad), ref.decisions.size());
    failed += bad;
  }

  // ---- live runs for --seconds -------------------------------------------
  std::vector<PassResult> passes;
  const auto m0 = Clock::now();
  std::uint64_t attempted = 0;
  do {
    PassResult r = RunPass(w, m, in, index, plan, args.trace);
    SortByPacket(r.decisions);
    const std::uint64_t bad = CountMismatches(r.decisions, ref.decisions);
    r.failed += bad;
    std::printf("pass %zu: %.3f s, %.0f pps, %llu decisions, %llu failed "
                "(%llu differ from the reference)\n",
                passes.size(), r.wall_s, static_cast<double>(r.offered) / r.wall_s,
                static_cast<unsigned long long>(r.decisions.size()),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(bad));
    attempted += r.offered;
    failed += r.failed;
    // Checked, so equal to the reference; only the figures are kept.
    std::vector<rt::StreamDecision>().swap(r.decisions);
    passes.push_back(std::move(r));
  } while (!w.paced() && Since(m0) < args.seconds);

  std::vector<double> apply, visible, lag, window_latency[kNumLatencyQuantiles];
  double cpu = 0.0, wall = 0.0;
  std::uint64_t shed = 0;
  std::size_t ring_hwm = 0;
  double push_ns = 0.0;
  std::uint64_t pushes = 0;
  for (const auto& r : passes) {
    for (std::size_t q = 0; q < kNumLatencyQuantiles; ++q) {
      window_latency[q].insert(window_latency[q].end(),
                               r.window_latency_us[q].begin(),
                               r.window_latency_us[q].end());
    }
    cpu += r.cpu_s;
    wall += r.wall_s;
    apply.insert(apply.end(), r.apply_ms.begin(), r.apply_ms.end());
    visible.insert(visible.end(), r.visible_ms.begin(), r.visible_ms.end());
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    shed += r.stats.shed.total();
    ring_hwm = std::max(ring_hwm, r.ring_hwm);
    push_ns += r.push_ns;
    pushes += r.pushes;
  }
  while (setup_s.size() < kSetupRepeats) set_up();
  std::printf("setup: median %.3f s (train %.3f s, lower %.3f s) of repeats:",
              pb::Median(setup_s), pb::Median(train_s), pb::Median(lower_s));
  for (const double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");

  const double lag_p99 = pb::Percentile(lag, 99.0);
  if (w.paced()) {
    const double lag_p50 = pb::Percentile(lag, 50.0);
    std::printf("generator lag p50 %.1f us, p99 %.1f us\n", lag_p50, lag_p99);
    if (lag_p50 > kMaxLagMedianUs) {
      std::printf("generator fell behind schedule (lag p50 %.1f us > %.0f us): "
                  "the run counts as failed\n", lag_p50, kMaxLagMedianUs);
      failed = attempted;
    }
  }
  const PassResult& last = passes.back();
  // Every pass made the reference's decisions, or counted as failed.
  const double f1 =
      pegasus::eval::EvaluateDecisions(ref.decisions, m.num_classes).f1;
  // Throughput per window of consecutive passes lasting at least
  // kThroughputWindowS (a short last window is dropped unless it is the
  // only one); the median over windows is reported.
  std::vector<double> window_pps;
  {
    double packets = 0.0, seconds = 0.0;
    for (const auto& r : passes) {
      packets += static_cast<double>(r.offered);
      seconds += r.wall_s;
      if (seconds >= kThroughputWindowS ||
          (&r == &last && window_pps.empty())) {
        window_pps.push_back(packets / seconds);
        packets = seconds = 0.0;
      }
    }
  }
  const double throughput = pb::Median(window_pps);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", pb::Median(setup_s), "s"},
        {"throughput_pps", throughput, "1/s"},
        {"decision_latency_p50_us", pb::Median(window_latency[0]), "us"},
        {"decision_latency_p90_us", pb::Median(window_latency[1]), "us"},
        {"update_apply_ms", pb::Median(apply), "ms"},
        {"update_visible_ms", pb::Median(visible), "ms"},
        {"cpu_cores", cpu / wall, "cores"},
        {"decision_macro_f1", f1, "f1"},
    };
    std::printf("%zu passes, %zu throughput windows, %zu latency windows, "
                "%zu updates (%zu visible)\n",
                passes.size(), window_pps.size(), window_latency[0].size(),
                apply.size(), visible.size());
    // How far the windows spread around the medians reported.
    std::printf("windows (q1 / median / q3): throughput %.0f / %.0f / %.0f pps, "
                "p50 %.1f / %.1f / %.1f us, p90 %.1f / %.1f / %.1f us\n",
                pb::Percentile(window_pps, 25.0), throughput,
                pb::Percentile(window_pps, 75.0),
                pb::Percentile(window_latency[0], 25.0),
                pb::Median(window_latency[0]),
                pb::Percentile(window_latency[0], 75.0),
                pb::Percentile(window_latency[1], 25.0),
                pb::Median(window_latency[1]),
                pb::Percentile(window_latency[1], 75.0));
    // Reported but not gated: on a shared host the 99th and 99.9th
    // percentiles follow the host's preemptions more than the server.
    std::printf("decision_latency_p99_us %.3f us, decision_latency_p999_us "
                "%.3f us (not gated metrics)\n",
                pb::Median(window_latency[2]), pb::Median(window_latency[3]));
  } else {
    auto total_ns = [&](std::uint32_t s) {
      return static_cast<double>(rec.totals(s).total_ns);
    };
    // The replay again without spans: the untraced cost of the same calls.
    pb::SpanRecorder off(false, pb::SpanNames(), 0);
    const ReplayResult plain = RunReplay(w, m, in, off);
    failed += CountMismatches(plain.decisions, ref.decisions);
    // The shadow dataplane pass is extra work, not tracing cost.
    const double shadow_ns = total_ns(pb::kSpanShadowFill) +
                             total_ns(pb::kSpanProcessBatch);
    const double traced_ns =
        (ref.wall_s * 1e9 - shadow_ns) / static_cast<double>(ref.packets);
    const double plain_ns = plain.wall_s * 1e9 / static_cast<double>(plain.packets);

    // Decoding: the open-loop workload decodes inside the replay; the
    // others have a sample of their packets written as a capture for it.
    if (!w.paced()) {
      const std::string path = args.out_dir + "/" + w.name + "-decode.pcap";
      if (w.traffic == pb::TrafficKind::kChurn) {
        pb::WriteTraceCapture(path, in.trace, kDecodeSamplePackets);
      } else {
        pegasus::io::PcapExportOptions eopts;
        eopts.merged = true;
        pegasus::io::WriteDatasetPcap(path, in.dataset, eopts);
      }
      pegasus::io::PcapPacketSource source(path);
      tr::TracePacket p;
      for (std::uint64_t i = 0;; ++i) {
        rec.Begin(pb::kSpanIoDecode, i, 2);
        const bool more = source.Next(p);
        rec.End();
        if (!more) break;
      }
      std::filesystem::remove(path);
    }

    auto per_call_ns = [&](std::uint32_t s) {
      const auto& t = rec.totals(s);
      return t.count ? static_cast<double>(t.self_ns) / static_cast<double>(t.count) : 0.0;
    };
    double layer_ns = 0.0;
    for (std::uint32_t s = 0; s < pb::kNumSpanNames; ++s) {
      if (s == pb::kSpanIoDecode && !w.paced()) continue;  // separate pass
      if (pb::IsLayerSpan(s)) layer_ns += static_cast<double>(rec.totals(s).self_ns);
    }
    const double layer_ns_per_pkt = layer_ns / static_cast<double>(ref.packets);
    std::printf("\nself time per packet by span (traced replay, %zu spans kept):\n",
                rec.stored());
    for (std::uint32_t s = 0; s < pb::kNumSpanNames; ++s) {
      const auto& t = rec.totals(s);
      std::printf("  %-28s %10llu calls %12.1f ns/pkt self %s\n", rec.name(s).c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.self_ns) / static_cast<double>(ref.packets),
                  pb::IsLayerSpan(s) ? "" : "(not a layer)");
    }
    const double live_ns = 1e9 / throughput;
    std::printf("layer self-time sum %.1f ns/pkt; untraced replay %.1f ns/pkt "
                "(%.3f); traced %.1f ns/pkt; live server %.1f ns/pkt (%.3f)\n",
                layer_ns_per_pkt, plain_ns, Ratio(layer_ns_per_pkt, plain_ns),
                traced_ns, live_ns, Ratio(layer_ns_per_pkt, live_ns));

    const std::string trace_path = args.out_dir + "/perfbench-trace-" + w.name +
                                   "-" + std::to_string(args.seed) + ".json";
    {
      std::ofstream os(trace_path);
      rec.WriteChromeTrace(os);
    }
    std::printf("wrote %s\n", trace_path.c_str());

    const auto& st = last.stats;
    const double probes = static_cast<double>(st.table.hits + st.table.misses);
    metrics = {
        {"io.decode_ns", per_call_ns(pb::kSpanIoDecode), "ns"},
        {"stream_server.route_ns", per_call_ns(pb::kSpanRoute), "ns"},
        {"stream_server.push_ns", Ratio(push_ns, static_cast<double>(pushes)), "ns"},
        {"stream_server.ring_hwm", static_cast<double>(ring_hwm), "count"},
        {"stream_server.batch_fill", Ratio(static_cast<double>(st.decisions), static_cast<double>(st.batches)), "count"},
        {"stream_server.swap_gap_ms", Ratio(st.swap_wall_ms, static_cast<double>(st.swaps)), "ms"},
        {"stream_server.shed", static_cast<double>(shed), "count"},
        {"flow_table.find_ns", per_call_ns(pb::kSpanFlowTable), "ns"},
        {"flow_table.hit_rate", Ratio(static_cast<double>(st.table.hits), probes), "ratio"},
        {"flow_table.evictions", static_cast<double>(st.table.evictions), "count"},
        {"flow_table.mean_probe", st.table.MeanProbe(), "count"},
        {"features.update_ns", per_call_ns(pb::kSpanFeatureUpdate), "ns"},
        {"features.emit_ns", per_call_ns(pb::kSpanFeatureEmit), "ns"},
        {"inference_engine.infer_ns_per_pkt", Ratio(total_ns(pb::kSpanInfer), static_cast<double>(ref.decided)), "ns"},
        {"inference_engine.batches", static_cast<double>(st.batches), "count"},
        {"dataplane.process_batch_ns_per_pkt", Ratio(total_ns(pb::kSpanProcessBatch), static_cast<double>(ref.shadow_packets)), "ns"},
        {"dataplane.table_hits_per_pkt", Ratio(static_cast<double>(ref.shadow_hits), static_cast<double>(ref.shadow_packets)), "count"},
        {"dataplane.tables", static_cast<double>(m.v[0]->NumTables()), "count"},
        {"dataplane.index_bytes", static_cast<double>(m.v[0]->pipeline().MatchIndexReport().bytes), "bytes"},
        {"control.clone_patch_ms", Ratio(total_ns(pb::kSpanClonePatch), 1e6 * static_cast<double>(rec.totals(pb::kSpanClonePatch).count)), "ms"},
        {"control.delta_bytes", (static_cast<double>(m.plan_bytes[0]) + static_cast<double>(m.plan_bytes[1])) / 2.0, "bytes"},
        {"setup.train_s", pb::Median(train_s), "s"},
        {"setup.lower_s", pb::Median(lower_s), "s"},
        {"gen.lag_p99_us", lag_p99, "us"},
        {"trace.overhead", Ratio(traced_ns, plain_ns), "ratio"},
    };
  }
  if (!in.capture_path.empty()) std::filesystem::remove(in.capture_path);
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
