#include "io/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace pegasus::io {

PcapPacketSource::PcapPacketSource(std::istream& is, FlowLabeler labeler)
    : reader_(is), labeler_(std::move(labeler)) {
  RequireEthernet(reader_, "PcapPacketSource");
}

namespace {

std::unique_ptr<std::ifstream> OpenPcap(const std::string& path) {
  auto is = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*is) {
    throw std::runtime_error("PcapPacketSource: cannot open " + path);
  }
  return is;
}

}  // namespace

PcapPacketSource::PcapPacketSource(const std::string& path,
                                   FlowLabeler labeler)
    : owned_(OpenPcap(path)), reader_(*owned_), labeler_(std::move(labeler)) {
  RequireEthernet(reader_, "PcapPacketSource");
}

bool PcapPacketSource::Next(traffic::TracePacket& out) {
  // rec_'s buffer is a member so its capacity survives across packets —
  // the afap replay path pays no per-packet allocation.
  ParsedPacket packet;
  while (reader_.Next(rec_)) {
    if (!parser_.Parse(rec_.data, rec_.TsMicros(reader_.nanos()), packet)) {
      continue;  // counted drop; keep reading
    }
    auto [it, inserted] = flows_.emplace(packet.key.digest, FlowEntry{});
    FlowEntry& entry = it->second;
    if (inserted) {
      entry.flow = static_cast<std::uint32_t>(flows_.size() - 1);
      entry.label = labeler_.LabelFor(packet.tuple);
      entry.first_ts_us = packet.ts_us;
    }
    // Flow-relative packet clock, clamped like FlowAssembler for reordered
    // captures. The server's feature path keys on out.ts_us (the absolute
    // trace clock), so the clamp only affects the borrowed Packet view.
    storage_.ts_us = packet.ts_us >= entry.first_ts_us
                         ? packet.ts_us - entry.first_ts_us
                         : 0;
    storage_.len = packet.wire_len;
    storage_.bytes = packet.payload;
    out.ts_us = packet.ts_us;
    out.flow = entry.flow;
    out.index = entry.next_index++;
    out.key = packet.key;
    out.label = entry.label;
    out.packet = &storage_;
    return true;
  }
  return false;
}

PartitionedPcapSource::PartitionedPcapSource(const std::string& path,
                                             std::size_t partitions,
                                             runtime::DigestPartitionFn fn,
                                             const FlowLabeler& labeler)
    : fn_(std::move(fn)) {
  if (partitions == 0) {
    throw std::invalid_argument("PartitionedPcapSource: zero partitions");
  }
  if (!fn_) {
    throw std::invalid_argument(
        "PartitionedPcapSource: null partition function");
  }
  inner_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    inner_.push_back(std::make_unique<PcapPacketSource>(path, labeler));
  }
}

bool PartitionedPcapSource::Next(std::size_t p, traffic::TracePacket& out) {
  // Each partition decodes every record and keeps 1/N of them; the skipped
  // packets still feed partition p's flow map, so flow ids match the
  // unpartitioned source.
  while (inner_[p]->Next(out)) {
    if (fn_(out.key.digest) == p) return true;
  }
  return false;
}

const char* ReplayClockName(ReplayClock clock) {
  switch (clock) {
    case ReplayClock::kAfap:
      return "afap";
    case ReplayClock::kTracePaced:
      return "paced";
    case ReplayClock::kSpeedup:
      return "speedup";
  }
  return "?";
}

TraceReplayer::TraceReplayer(runtime::PacketSource& inner, ReplayOptions opts)
    : inner_(inner), opts_(opts) {
  if (opts_.clock == ReplayClock::kSpeedup && !(opts_.speedup > 0.0)) {
    throw std::invalid_argument("TraceReplayer: speedup must be > 0");
  }
  if (opts_.clock == ReplayClock::kTracePaced) {
    opts_.speedup = 1.0;
  }
}

std::chrono::steady_clock::time_point TraceReplayer::DueAt(
    std::uint64_t ts_us) const {
  const auto elapsed_us =
      ts_us <= stats_.first_ts_us
          ? 0.0
          : static_cast<double>(ts_us - stats_.first_ts_us) / opts_.speedup;
  return wall_start_ +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::micro>(elapsed_us));
}

bool TraceReplayer::NextNotDue() {
  if (opts_.clock == ReplayClock::kAfap || !started_) return false;
  if (!have_ahead_) {
    if (!inner_.Next(ahead_)) return false;
    have_ahead_ = true;
  }
  return std::chrono::steady_clock::now() < DueAt(ahead_.ts_us);
}

bool TraceReplayer::Next(traffic::TracePacket& out) {
  if (have_ahead_) {
    out = ahead_;
    have_ahead_ = false;
  } else if (!inner_.Next(out)) {
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!started_) {
    started_ = true;
    wall_start_ = now;
    stats_.first_ts_us = out.ts_us;
    stats_.last_ts_us = out.ts_us;
  }
  // Reordered captures can step the trace clock backwards; clamp like the
  // rest of the pipeline (such packets are simply due immediately) instead
  // of wrapping the unsigned difference into a ~2^64 us deadline.
  stats_.last_ts_us = std::max(stats_.last_ts_us, out.ts_us);
  ++stats_.packets;

  if (opts_.clock != ReplayClock::kAfap) {
    const auto due = DueAt(out.ts_us);
    auto t = now;
    if (t < due) {
      // Sleep to within half a millisecond of the deadline, then spin — the
      // OS timer's granularity would otherwise smear every IPD.
      if (due - t > std::chrono::milliseconds(1)) {
        std::this_thread::sleep_for(due - t -
                                    std::chrono::microseconds(500));
      }
      while ((t = std::chrono::steady_clock::now()) < due) {
      }
    }
    // Lag is measured at actual delivery, so both a late arrival into this
    // call and an oversleeping timer count against the schedule.
    if (t > due) {
      const auto lag = std::chrono::duration_cast<std::chrono::microseconds>(
                           t - due)
                           .count();
      stats_.max_lag_us =
          std::max(stats_.max_lag_us, static_cast<std::uint64_t>(lag));
    }
  }
  stats_.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start_)
                       .count();
  return true;
}

}  // namespace pegasus::io
