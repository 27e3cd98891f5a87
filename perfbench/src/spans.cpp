#include "spans.hpp"

#include <ios>
#include <stdexcept>

namespace pegasus::perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::vector<std::string> names,
                           std::size_t max_stored)
    : enabled_(enabled),
      names_(std::move(names)),
      max_stored_(max_stored),
      base_(std::chrono::steady_clock::now()),
      totals_(names_.size()) {
  stack_.reserve(16);
  if (enabled_) spans_.reserve(max_stored_);
}

void SpanRecorder::Open(std::uint32_t name, std::uint64_t id,
                        std::uint32_t track, std::int64_t t) {
  if (name >= names_.size()) {
    throw std::out_of_range("SpanRecorder: unknown span name");
  }
  Open_ o;
  o.name = name;
  o.track = track;
  o.id = id;
  o.start_ns = t;
  if (spans_.size() < max_stored_) {
    Span s;
    s.name = name;
    s.track = track;
    s.id = id;
    s.start_ns = t;
    s.end_ns = -1;
    s.parent = stack_.empty() ? -1 : stack_.back().stored;
    o.stored = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back(o);
}

void SpanRecorder::Close(std::int64_t t) {
  if (stack_.empty()) throw std::logic_error("SpanRecorder: End without Begin");
  const Open_ o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  Totals& tot = totals_[o.name];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.stored >= 0) spans_[static_cast<std::size_t>(o.stored)].end_ns = t;
}

void SpanRecorder::WriteChromeTrace(std::ostream& os) const {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(3);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;  // never closed
    if (!first) os << ",\n";
    first = false;
    // Chrome trace timestamps are microseconds; keep ns precision.
    os << "{\"name\":\"" << names_[s.name] << "\",\"ph\":\"X\",\"pid\":1,"
       << "\"tid\":" << s.track << ",\"ts\":"
       << static_cast<double>(s.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << "}}";
  }
  os << "\n]}\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace pegasus::perfbench
