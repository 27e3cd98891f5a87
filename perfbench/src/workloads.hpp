// The benchmark's workloads, the models they serve and the traffic they
// replay. Everything here is fixed by the workload name and the seed: the
// models come from a fixed-seed training split whatever the seed, and the
// seed drives only the serving traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/pipeline.hpp"
#include "io/assemble.hpp"
#include "runtime/affinity.hpp"
#include "runtime/lowering.hpp"
#include "runtime/stream_server.hpp"
#include "traffic/synthetic.hpp"

namespace pegasus::perfbench {

enum class TrafficKind {
  /// PeerRush-profile flows merged into one in-memory trace.
  kPeerRushTrace,
  /// A materialized ChurnGenerator run.
  kChurn,
  /// PeerRush-profile flows written as a pcap capture and read back
  /// through io::PcapPacketSource while serving.
  kPeerRushCapture,
};

struct Workload {
  std::string name;
  runtime::FeatureKind feature = runtime::FeatureKind::kStat;
  bool multithreaded = false;
  std::size_t shards = 1;
  std::size_t flows_per_shard = 1 << 12;
  runtime::CpuPinPolicy pin = runtime::CpuPinPolicy::kNone;
  TrafficKind traffic = TrafficKind::kPeerRushTrace;
  /// Closed loop: packets go as fast as the server takes them and an
  /// update is published every `update_every_packets` packets.
  std::size_t update_every_packets = 0;
  /// Closed loop: the generator reads the decision counters once per this
  /// many packets (a read costs microseconds, so not per packet).
  std::size_t poll_every_packets = 64;

  /// Open loop (the capture workload): packets are sent on the capture's
  /// rescaled timestamps and an update every kUpdatePeriodS of schedule.
  bool paced() const { return traffic == TrafficKind::kPeerRushCapture; }
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Server options the workload serves with (telemetry attached with
/// sampling off, so only the live counters run).
runtime::StreamServerOptions ServerOptions(const Workload& w);

/// Threads the workload runs, counting the generator (the calling thread),
/// the shard workers and the watchdog.
std::size_t ThreadCount(const Workload& w);

/// The two model versions a workload alternates between: v[0] serves as
/// version 1 and every odd version, v[1] every even one. CNN-M's two
/// compiles differ only in output refinement, an entry-only delta served
/// through SwapModelDelta; MLP-B's refinement toggle reseals tables, so
/// its versions are swapped whole through SwapModel.
struct Models {
  std::size_t num_classes = 0;
  std::shared_ptr<const runtime::LoweredModel> v[2];
  bool delta = false;
  /// patches[0] moves v1 -> v2, patches[1] moves v2 -> v1 (delta only).
  std::vector<dataplane::TablePatch> patches[2];
  /// Control-plane bytes of each direction's update plan.
  std::size_t plan_bytes[2] = {0, 0};
  double train_s = 0.0;
  double lower_s = 0.0;

  std::size_t IndexOfVersion(std::uint64_t version) const {
    return static_cast<std::size_t>((version - 1) % 2);
  }
};

/// Prepares the fixed training split, trains both versions, compiles,
/// lowers and plans the updates between them.
Models BuildModels(const Workload& w);

/// Serving traffic for one seed. `trace` borrows packets owned by the
/// other members, so an Input must not be copied after it is built.
struct Input {
  traffic::Dataset dataset;
  traffic::ChurnTrace churn;
  std::vector<traffic::Packet> decoded;
  std::vector<traffic::TracePacket> trace;
  /// Open loop: each packet's send offset, seconds.
  std::vector<double> send_s;
  /// Packet positions before which an update is published.
  std::vector<std::size_t> update_at;
  /// Capture of the traffic (capture workloads), and its labeler.
  std::string capture_path;
  io::FlowLabeler labeler;
  /// Open loop: latencies and update visibility are measured for packets
  /// and updates scheduled inside [window_begin_s, window_end_s), leaving
  /// out the ramps at both ends of the capture, where the rate falls
  /// towards zero and partial batches wait for the end of the run.
  double window_begin_s = 0.0;
  double window_end_s = 0.0;

  Input() = default;
  Input(const Input&) = delete;
  Input& operator=(const Input&) = delete;
};

/// Builds the traffic of `w` for `seed`, sized for `seconds` of open-loop
/// sending. Capture workloads write their pcap under `out_dir`.
std::unique_ptr<Input> BuildInput(const Workload& w, std::uint64_t seed,
                                  double seconds, const std::string& out_dir);

/// Writes the first `max_packets` packets of `trace` as a pcap capture, one
/// synthetic 5-tuple per flow (used to time decoding on traffic that has no
/// capture of its own). Returns the number of records written.
std::uint64_t WriteTraceCapture(const std::string& path,
                                const std::vector<traffic::TracePacket>& trace,
                                std::size_t max_packets);

/// Open-loop send rate and update cadence.
inline constexpr double kPacedRatePps = 100'000.0;
inline constexpr double kUpdatePeriodS = 0.5;
/// Open loop: flows start spread over this many times the longest flow's
/// duration, so the send rate is flat between short ramps at both ends,
/// and this share of the schedule at each end is left out of the latency
/// figures.
inline constexpr std::uint64_t kPacedHorizonFlows = 10;
inline constexpr double kPacedEdgeShare = 0.1;

}  // namespace pegasus::perfbench
