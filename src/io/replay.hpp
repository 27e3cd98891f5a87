// Timed trace replay: feeding the StreamServer from captures.
//
// Two PacketSource implementations complete the pcap -> parse -> assemble
// -> serve pipeline's serving edge:
//
//  * PcapPacketSource streams a capture straight into TracePackets — pcap
//    record -> wire parse -> flow identity (first-seen flow numbering, the
//    same convention MergeTrace uses) — without materializing a Dataset, so
//    arbitrarily large captures replay in O(flows) memory.
//  * TraceReplayer wraps any PacketSource and paces delivery by the trace's
//    own timestamps: as-fast-as-possible, trace-paced (wall clock tracks
//    the capture clock), or speedup xN. Next() blocks until a packet is
//    due, so StreamServer::Serve(replayer) IS the timed replay loop;
//    NextNotDue() tells the server's ingest a wait is coming, so it pushes
//    its staged packets first. The replayer records per-replay stats (wall
//    time, rate, how far delivery fell behind schedule).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/assemble.hpp"
#include "io/pcap.hpp"
#include "io/wire.hpp"
#include "runtime/packet_source.hpp"

namespace pegasus::io {

/// Streams a pcap capture as TracePackets. Flow indexes are assigned in
/// first-seen order and labels via the FlowLabeler, so decisions produced
/// from a replayed capture line up with the Dataset an import of the same
/// file would produce. The source owns one packet buffer, reused per Next.
class PcapPacketSource final : public runtime::PacketSource {
 public:
  /// The stream must outlive the source. Throws on a bad header or a
  /// non-Ethernet linktype.
  explicit PcapPacketSource(std::istream& is, FlowLabeler labeler = {});
  /// Opens and owns the file stream.
  explicit PcapPacketSource(const std::string& path,
                            FlowLabeler labeler = {});

  bool Next(traffic::TracePacket& out) override;

  const WireParseStats& parse_stats() const { return parser_.stats(); }
  std::uint64_t flows_seen() const { return flows_.size(); }

 private:
  struct FlowEntry {
    std::uint32_t flow = 0;
    std::uint32_t next_index = 0;
    std::int32_t label = 0;
    std::uint64_t first_ts_us = 0;
  };

  std::unique_ptr<std::ifstream> owned_;
  PcapReader reader_;
  WireParser parser_;
  FlowLabeler labeler_;
  std::unordered_map<std::uint64_t, FlowEntry> flows_;
  PcapRecord rec_;  // reused per Next: record capacity survives packets
  traffic::Packet storage_;
};

/// Multi-ingest pcap replay (RSS-from-file): each partition owns an
/// independent decode pass over the SAME capture — reader, parser and flow
/// map per partition — and emits only the packets its partition function
/// claims. N ingest threads therefore pull concurrently with zero shared
/// state, at the cost of N parse passes (the standard software-RSS
/// trade when the capture has no per-flow index). Because every inner
/// source sees the whole file, first-seen flow numbering is identical
/// across partitions — decisions line up with an unpartitioned replay.
class PartitionedPcapSource final : public runtime::PartitionedPacketSource {
 public:
  /// `fn` maps a flow digest to its partition (build it from
  /// StreamServer::IngestPartitionOf); must be pure and thread-safe.
  PartitionedPcapSource(const std::string& path, std::size_t partitions,
                        runtime::DigestPartitionFn fn,
                        const FlowLabeler& labeler = {});

  std::size_t partitions() const override { return inner_.size(); }
  bool Next(std::size_t p, traffic::TracePacket& out) override;

 private:
  std::vector<std::unique_ptr<PcapPacketSource>> inner_;
  runtime::DigestPartitionFn fn_;
};

enum class ReplayClock {
  /// No pacing: deliver as fast as the consumer pulls.
  kAfap,
  /// Wall clock tracks the capture clock 1:1.
  kTracePaced,
  /// Capture clock divided by `speedup` (x8 replays an 8-second trace in
  /// about one second).
  kSpeedup,
};

const char* ReplayClockName(ReplayClock clock);

struct ReplayOptions {
  ReplayClock clock = ReplayClock::kAfap;
  /// Only read under kSpeedup; must be > 0.
  double speedup = 1.0;
};

struct ReplayStats {
  std::uint64_t packets = 0;
  std::uint64_t first_ts_us = 0;
  std::uint64_t last_ts_us = 0;
  /// Wall time from the first packet's delivery to the newest.
  double wall_ms = 0.0;
  /// Worst observed delivery lag behind the paced schedule, microseconds
  /// (0 under kAfap).
  std::uint64_t max_lag_us = 0;

  std::uint64_t TraceSpanUs() const { return last_ts_us - first_ts_us; }
  double PacketsPerSec() const {
    return wall_ms > 0.0 ? static_cast<double>(packets) / (wall_ms / 1000.0)
                         : 0.0;
  }
};

/// Pacing decorator over any PacketSource (which must outlive it).
class TraceReplayer final : public runtime::PacketSource {
 public:
  TraceReplayer(runtime::PacketSource& inner, ReplayOptions opts = {});

  /// Pulls the next packet from the inner source and blocks (sleep, then
  /// spin near the deadline) until the packet is due under the clock mode.
  bool Next(traffic::TracePacket& out) override;

  /// Answers from the schedule: pulls the next packet ahead (held for the
  /// following Next) and reports whether its due time is still in the
  /// future. Always false under kAfap and before the first delivery, which
  /// starts the schedule.
  bool NextNotDue() override;

  const ReplayStats& stats() const { return stats_; }

 private:
  /// Wall-clock delivery deadline of a packet stamped `ts_us`.
  std::chrono::steady_clock::time_point DueAt(std::uint64_t ts_us) const;

  runtime::PacketSource& inner_;
  ReplayOptions opts_;
  ReplayStats stats_;
  bool started_ = false;
  std::chrono::steady_clock::time_point wall_start_;
  /// The packet NextNotDue pulled ahead, valid while `have_ahead_`.
  traffic::TracePacket ahead_;
  bool have_ahead_ = false;
};

}  // namespace pegasus::io
