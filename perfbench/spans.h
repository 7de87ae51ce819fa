// Benchmark-side spans: host-time intervals recorded around the calls the
// benchmark makes into each layer.  Spans live in memory and are written
// once, when the traced run ends, so recording costs two clock reads and a
// vector append per span.
//
// Every span has an id, the id of the span it was opened under (0 = none),
// a name, and start/end offsets in seconds from the log's creation.  The
// run id ties all spans of one benchmark process together.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  /// Opens a span under `parent` (0 = top level) and returns its id.
  std::uint32_t begin(std::string name, std::uint32_t parent) {
    spans_.push_back({static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      std::move(name), since_origin(), -1.0});
    return spans_.back().id;
  }

  /// Closes span `id` and returns its duration in seconds.
  double end(std::uint32_t id) {
    Span& s = spans_.at(id - 1);
    s.end_s = since_origin();
    return s.end_s - s.start_s;
  }

  /// Total closed duration of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_s >= 0.0) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  /// Writes {"run_id": ..., "spans": [{id, parent, name, start_s, end_s}]}.
  void write_json(std::ostream& os) const {
    const auto old_precision = os.precision(12);
    os << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
         << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
         << "}";
    }
    os << "\n]}\n";
    os.precision(old_precision);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  // < 0 while open
  };

  double since_origin() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
