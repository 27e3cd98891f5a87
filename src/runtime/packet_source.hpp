// Pull-based packet ingestion for the StreamServer.
//
// A PacketSource produces the per-packet stream the server consumes —
// in-memory merged traces (traffic::MergeTrace), pcap captures decoded on
// the fly (io/replay.hpp's PcapPacketSource), or any of those wrapped in a
// pacing TraceReplayer. StreamServer::Serve(PacketSource&) pulls until the
// source runs dry, so the runtime never needs to know where packets come
// from — the io layer plugs in from above.
//
// A PartitionedPacketSource is the multi-ingest (RSS-style) counterpart:
// the stream is split by flow digest into disjoint partitions, one per
// ingest thread, so N threads pull concurrently with no shared dispatch
// point — the receive-side-scaling idiom NICs implement in hardware. Each
// partition must cover exactly the shards its ingest thread owns (build the
// partition function from StreamServer::IngestPartitionOf), because each
// shard ring is single-producer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "traffic/stream.hpp"

namespace pegasus::runtime {

class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Produces the next packet. Returns false at end of stream. `out.packet`
  /// only needs to stay valid until the next call — sources may reuse one
  /// internal buffer; the server copies the payload where it must outlive
  /// the call (its multi-threaded rings).
  virtual bool Next(traffic::TracePacket& out) = 0;

  /// Non-blocking: true when the stream has a next packet that is not due
  /// yet, so Next() would wait for it (a paced replay between packets, a
  /// live source that paused). A consumer that stages packets pushes what
  /// it holds before it blocks in Next(), so staged packets never wait on
  /// a pause in the stream. Sources that deliver as fast as they are
  /// pulled keep the default, false. The query may pull ahead from an
  /// inner source, so like Next() it ends the validity of the previously
  /// returned packet's buffer.
  virtual bool NextNotDue() { return false; }
};

/// The in-memory case: iterates a borrowed trace (must outlive the source).
class SpanPacketSource final : public PacketSource {
 public:
  explicit SpanPacketSource(std::span<const traffic::TracePacket> trace)
      : trace_(trace) {}

  bool Next(traffic::TracePacket& out) override {
    if (at_ >= trace_.size()) return false;
    out = trace_[at_++];
    return true;
  }

 private:
  std::span<const traffic::TracePacket> trace_;
  std::size_t at_ = 0;
};

/// Adapts any object with `bool Next(traffic::TracePacket&)` (e.g.
/// traffic::ChurnGenerator) to the PacketSource interface without the
/// generator having to know about the runtime layer. The generator's
/// buffer-reuse behaviour already matches the PacketSource contract.
template <typename Generator>
class GeneratorPacketSource final : public PacketSource {
 public:
  explicit GeneratorPacketSource(Generator& gen) : gen_(gen) {}

  bool Next(traffic::TracePacket& out) override { return gen_.Next(out); }

 private:
  Generator& gen_;
};

// ---------------------------------------------------------------------------
// Multi-ingest partitioning.
// ---------------------------------------------------------------------------

/// Maps a flow digest to the ingest partition that owns it. Must be pure
/// (same digest -> same partition) and callable concurrently from every
/// ingest thread.
using DigestPartitionFn = std::function<std::size_t(std::uint64_t digest)>;

/// A packet stream pre-split into disjoint per-ingest partitions. Distinct
/// partitions are consumed concurrently by distinct threads; implementations
/// must keep per-partition cursors independent (no shared mutable state
/// across partition indexes). Within a partition, packets arrive in stream
/// order — a flow lives in exactly one partition, so per-flow order is the
/// trace order.
class PartitionedPacketSource {
 public:
  virtual ~PartitionedPacketSource() = default;

  virtual std::size_t partitions() const = 0;

  /// Produces the next packet of partition `p`. Same buffer-reuse contract
  /// as PacketSource::Next. Only the ingest thread owning `p` may call it.
  virtual bool Next(std::size_t p, traffic::TracePacket& out) = 0;

  /// PacketSource::NextNotDue for partition `p`; same contract, same
  /// caller restriction as Next(p, ...).
  virtual bool NextNotDue(std::size_t /*p*/) { return false; }
};

/// Splits a borrowed in-memory trace by flow digest: one pre-pass routes
/// every packet index to its partition, then each ingest thread walks its
/// own index list — zero coordination at pull time. The trace must outlive
/// the source.
class DigestPartitionedSource final : public PartitionedPacketSource {
 public:
  DigestPartitionedSource(std::span<const traffic::TracePacket> trace,
                          std::size_t partitions, DigestPartitionFn fn)
      : trace_(trace) {
    if (partitions == 0) {
      throw std::invalid_argument("DigestPartitionedSource: zero partitions");
    }
    if (!fn) {
      throw std::invalid_argument(
          "DigestPartitionedSource: null partition function");
    }
    order_.resize(partitions);
    cursors_.resize(partitions);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::size_t p = fn(trace[i].key.digest);
      if (p >= partitions) {
        throw std::out_of_range(
            "DigestPartitionedSource: partition function out of range");
      }
      order_[p].push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::size_t partitions() const override { return order_.size(); }

  bool Next(std::size_t p, traffic::TracePacket& out) override {
    Cursor& cur = cursors_[p];
    const auto& order = order_[p];
    if (cur.at >= order.size()) return false;
    out = trace_[order[cur.at++]];
    return true;
  }

 private:
  /// One cursor per partition, each on its own cache line: partition p is
  /// advanced only by ingest thread p, and padding keeps neighbours from
  /// false-sharing the line.
  struct alignas(64) Cursor {
    std::size_t at = 0;
  };

  std::span<const traffic::TracePacket> trace_;
  std::vector<std::vector<std::uint32_t>> order_;
  std::vector<Cursor> cursors_;
};

}  // namespace pegasus::runtime
