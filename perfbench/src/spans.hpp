// In-memory span recorder for the traced replay. The benchmark opens a
// span around each call it makes into a serving layer; spans nest (a
// packet's flow-table lookup is a child of the packet), and a span's self
// time is its duration minus the time its children cover. Self time is
// aggregated per span name for every span, while only the first
// `max_stored` spans are kept for the Chrome trace-event file that
// Perfetto (ui.perfetto.dev) or chrome://tracing open.
//
// Disabled recorders take no clock readings at all, so the same replay
// code doubles as the untraced reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pegasus::perfbench {

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// `names[i]` is the display name of span id i.
  SpanRecorder(bool enabled, std::vector<std::string> names,
               std::size_t max_stored);

  bool enabled() const { return enabled_; }

  /// Opens a span named `name` (an index into names) as a child of the
  /// innermost open span. `id` is the packet or batch the span works on;
  /// `track` is its row in the trace viewer (the shard, by convention).
  void Begin(std::uint32_t name, std::uint64_t id, std::uint32_t track) {
    if (enabled_) Open(name, id, track, Now());
  }
  /// Closes the innermost span.
  void End() {
    if (enabled_) Close(Now());
  }
  /// Closes the innermost span and opens a sibling with one clock reading,
  /// so back-to-back calls leave no gap between their spans.
  void Next(std::uint32_t name, std::uint64_t id, std::uint32_t track) {
    if (!enabled_) return;
    const std::int64_t t = Now();
    Close(t);
    Open(name, id, track, t);
  }

  const Totals& totals(std::uint32_t name) const { return totals_[name]; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t stored() const { return spans_.size(); }

  /// Writes the stored spans as Chrome trace-event JSON ("X" events, one
  /// thread row per track, parent span index and id under "args").
  void WriteChromeTrace(std::ostream& os) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t track = 0;
    std::int64_t parent = -1;  // index into spans_, -1 for a root
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open_ {
    std::uint32_t name = 0;
    std::uint32_t track = 0;
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t stored = -1;  // index into spans_ when kept
  };

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - base_)
        .count();
  }
  void Open(std::uint32_t name, std::uint64_t id, std::uint32_t track,
            std::int64_t t);
  void Close(std::int64_t t);

  bool enabled_;
  std::vector<std::string> names_;
  std::size_t max_stored_;
  std::chrono::steady_clock::time_point base_;
  std::vector<Open_> stack_;
  std::vector<Span> spans_;
  std::vector<Totals> totals_;
};

}  // namespace pegasus::perfbench
