#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "compiler/compiler.hpp"
#include "control/planner.hpp"
#include "eval/experiment.hpp"
#include "io/pcap.hpp"
#include "io/replay.hpp"
#include "io/wire.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "stats.hpp"

namespace pegasus::perfbench {

namespace {

namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

// One training recipe for every seed: the benchmark varies traffic, never
// the models, so decisions stay comparable across seeds and commits.
constexpr std::size_t kTrainFlowsPerClass = 100;
constexpr std::uint64_t kTrainDatasetSeed = 1001;
constexpr std::size_t kTrainEpochs = 16;

// mlp-saturate: about 2,000 flows per class (~360K packets).
constexpr std::size_t kSaturateFlowsPerClass = 2000;
// flow-churn: as many live flows as the two shards have slots, so the
// flow table misses and evicts all the time.
constexpr std::size_t kChurnLiveFlows = 262'144;
constexpr std::size_t kChurnPackets = 2'000'000;
// PeerRush flows carry 24..96 packets, 60 on average.
constexpr double kMeanPacketsPerFlow = 60.0;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  return rt::MixDigest(seed * 0x9E3779B97F4A7C15ull + salt);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(3);
    // Inference dominates: the flow state stays cache-resident, so match
    // and action take the cycles.
    w[0].name = "mlp-saturate";
    w[0].feature = rt::FeatureKind::kStat;
    w[0].multithreaded = false;
    w[0].shards = 1;
    w[0].flows_per_shard = 1 << 15;
    w[0].traffic = TrafficKind::kPeerRushTrace;
    w[0].update_every_packets = 10'000;
    w[0].poll_every_packets = 64;

    // Flow state dominates: most packets never fill a window and the
    // table runs full, so inference barely runs.
    w[1].name = "flow-churn";
    w[1].feature = rt::FeatureKind::kSeq;
    w[1].multithreaded = true;
    w[1].shards = 2;
    w[1].flows_per_shard = 131'072;
    w[1].pin = rt::CpuPinPolicy::kCompact;
    w[1].traffic = TrafficKind::kChurn;
    w[1].update_every_packets = 250'000;
    w[1].poll_every_packets = 256;

    // Queueing dominates: far below capacity, latency is batch fill and
    // swap gaps, not inference speed.
    w[2].name = "paced-update";
    w[2].feature = rt::FeatureKind::kSeq;
    w[2].multithreaded = true;
    w[2].shards = 2;
    w[2].flows_per_shard = 1 << 15;
    w[2].pin = rt::CpuPinPolicy::kCompact;
    w[2].traffic = TrafficKind::kPeerRushCapture;
    return w;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

rt::StreamServerOptions ServerOptions(const Workload& w) {
  rt::StreamServerOptions opts;
  opts.num_shards = w.shards;
  opts.flows_per_shard = w.flows_per_shard;
  opts.feature = w.feature;
  opts.multithreaded = w.multithreaded;
  opts.pin_policy = w.pin;
  opts.shed = false;
  opts.telemetry.attach = true;
  opts.telemetry.sample_every = 0;
  return opts;
}

std::size_t ThreadCount(const Workload& w) {
  const rt::StreamServerOptions opts = ServerOptions(w);
  if (!opts.multithreaded) return 1;
  return 1 + opts.num_shards + (opts.watchdog_interval_us > 0 ? 1 : 0);
}

Models BuildModels(const Workload& w) {
  using clock = std::chrono::steady_clock;
  Models m;
  const auto t0 = clock::now();
  const auto prep = eval::Prepare(
      tr::PeerRushSpec(kTrainFlowsPerClass, kTrainDatasetSeed),
      /*with_raw_bytes=*/false);
  m.num_classes = prep.num_classes;
  std::unique_ptr<models::TrainedModel> trained[2];
  for (int r = 0; r < 2; ++r) {
    const bool refine = r == 0;
    if (w.feature == rt::FeatureKind::kStat) {
      models::MlpBConfig cfg;
      cfg.epochs = kTrainEpochs;
      cfg.compile.refine_outputs = refine;
      const auto& set = prep.stat.train;
      trained[r] = models::MlpB::Train(set.x, set.labels, set.size(), set.dim,
                                       prep.num_classes, cfg);
    } else {
      models::CnnMConfig cfg;
      cfg.epochs = kTrainEpochs;
      cfg.compile.refine_outputs = refine;
      const auto& set = prep.seq.train;
      trained[r] = models::CnnM::Train(set.x, set.labels, set.size(), set.dim,
                                       prep.num_classes, cfg);
    }
  }
  const auto t1 = clock::now();
  rt::LoweringOptions lopts;
  lopts.stateful_bits_per_flow = rt::OnlineFlowStateSpec(w.feature).BitsPerFlow();
  compiler::VersionedModel versioned[2];
  for (int r = 0; r < 2; ++r) {
    versioned[r] = compiler::CompileVersioned(trained[r]->Compiled(), lopts);
    m.v[r] = versioned[r].lowered;
  }
  const control::UpdatePlan plans[2] = {
      control::PlanUpdate(versioned[0], versioned[1]),
      control::PlanUpdate(versioned[1], versioned[0])};
  m.delta = true;
  for (int r = 0; r < 2; ++r) {
    m.plan_bytes[r] = plans[r].total_bytes_to_push;
    m.delta = m.delta && !plans[r].structure_changed && plans[r].reseal == 0 &&
              plans[r].entry_delta > 0;
  }
  if (m.delta) {
    for (int r = 0; r < 2; ++r) m.patches[r] = control::CollectPatches(plans[r]);
  }
  const auto t2 = clock::now();
  m.train_s = Seconds(t0, t1);
  m.lower_s = Seconds(t1, t2);
  return m;
}

std::unique_ptr<Input> BuildInput(const Workload& w, std::uint64_t seed,
                                  double seconds, const std::string& out_dir) {
  auto in = std::make_unique<Input>();
  switch (w.traffic) {
    case TrafficKind::kPeerRushTrace: {
      in->dataset =
          tr::Generate(tr::PeerRushSpec(kSaturateFlowsPerClass, Mix(seed, 1)));
      tr::MergeOptions merge;
      merge.seed = Mix(seed, 2);
      in->trace = tr::MergeTrace(in->dataset.flows, merge);
      break;
    }
    case TrafficKind::kChurn: {
      tr::ChurnSpec spec;
      spec.live_flows = kChurnLiveFlows;
      spec.elephant_frac = 0.01;
      spec.packets = kChurnPackets;
      spec.seed = Mix(seed, 3);
      in->churn = tr::MaterializeChurn(spec);
      in->trace = std::move(in->churn.trace);
      break;
    }
    case TrafficKind::kPeerRushCapture: {
      const double packets = kPacedRatePps * seconds;
      const auto classes = tr::PeerRushSpec(1).classes.size();
      const auto flows_per_class = static_cast<std::size_t>(std::ceil(
          packets / (kMeanPacketsPerFlow * static_cast<double>(classes))));
      in->dataset =
          tr::Generate(tr::PeerRushSpec(flows_per_class, Mix(seed, 1)));
      std::uint64_t longest_us = 0;
      for (const auto& f : in->dataset.flows) {
        if (!f.packets.empty()) {
          longest_us = std::max(longest_us, f.packets.back().ts_us);
        }
      }
      in->capture_path = out_dir + "/" + w.name + "-" +
                         std::to_string(seed) + ".pcap";
      io::PcapExportOptions eopts;
      eopts.merged = true;
      eopts.merge.seed = Mix(seed, 2);
      eopts.merge.horizon_us = kPacedHorizonFlows * std::max<std::uint64_t>(1, longest_us);
      io::WriteDatasetPcap(in->capture_path, in->dataset, eopts);
      in->labeler = io::ImportOptionsFor(in->dataset).labeler;
      // Decode once up front: the decoded packets are the reference
      // replay's input and their timestamps make the send schedule. The
      // live run decodes the file again while it sends.
      io::PcapPacketSource source(in->capture_path, in->labeler);
      std::vector<tr::TracePacket> decoded;
      tr::TracePacket p;
      while (source.Next(p)) {
        in->decoded.push_back(*p.packet);
        decoded.push_back(p);
      }
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        decoded[i].packet = &in->decoded[i];
      }
      in->trace = std::move(decoded);
      std::vector<std::uint64_t> ts(in->trace.size());
      for (std::size_t i = 0; i < ts.size(); ++i) ts[i] = in->trace[i].ts_us;
      in->send_s = RescaleToRate(ts, kPacedRatePps);
      in->window_begin_s = kPacedEdgeShare * in->send_s.back();
      in->window_end_s = (1.0 - kPacedEdgeShare) * in->send_s.back();
      break;
    }
  }
  if (w.paced()) {
    std::size_t i = 0;
    for (int k = 1;; ++k) {
      const double at = kUpdatePeriodS * k;
      while (i < in->send_s.size() && in->send_s[i] < at) ++i;
      if (i >= in->send_s.size()) break;
      in->update_at.push_back(i);
    }
  } else {
    for (std::size_t at = w.update_every_packets; at < in->trace.size();
         at += w.update_every_packets) {
      in->update_at.push_back(at);
    }
  }
  return in;
}

std::uint64_t WriteTraceCapture(const std::string& path,
                                const std::vector<tr::TracePacket>& trace,
                                std::size_t max_packets) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  io::PcapWriter writer(os);
  const std::size_t n = std::min(max_packets, trace.size());
  for (std::size_t i = 0; i < n; ++i) {
    const tr::TracePacket& p = trace[i];
    dataplane::FiveTuple tuple;
    tuple.version = 4;
    tuple.proto = dataplane::kProtoTcp;
    tuple.src = {10, static_cast<std::uint8_t>(p.flow >> 16),
                 static_cast<std::uint8_t>(p.flow >> 8),
                 static_cast<std::uint8_t>(p.flow)};
    tuple.dst = {10, 255, 0, 1};
    tuple.src_port = static_cast<std::uint16_t>(1024 + p.flow % 50'000);
    tuple.dst_port = 443;
    const std::uint16_t wire_len =
        std::max<std::uint16_t>(p.packet->len, io::MinWireLen(tuple));
    const auto frame = io::BuildFrame(tuple, p.packet->bytes, wire_len);
    writer.Write(p.ts_us, frame, 0);
  }
  if (!os) throw std::runtime_error("short write to " + path);
  return writer.records();
}

}  // namespace pegasus::perfbench
