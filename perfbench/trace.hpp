// In-memory span recorder for the benchmark's traced pass.
//
// Spans are opened and closed by the benchmark's own code around calls into
// one library layer; the library itself is not instrumented. A span records
// its name ("<layer>.<what>"), the registry task it ran (or -1), its start
// and end, its parent span and the op it belongs to. Spans stay in memory and
// are written out once, as Chrome trace-event JSON (chrome://tracing and
// Perfetto open it), when the benchmark exits.
//
// All spans are opened on the benchmark's main thread, so nesting is a plain
// stack and a parent's children never overlap one another: a span's self
// time is its duration minus the sum of its children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // string literal, "<layer>.<what>"
  int task = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index of the parent span, -1 for a root
  std::int64_t op = -1;   // op id shared by every span of one op; -1 outside ops
  std::int64_t child_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  std::int64_t self_ns() const { return duration_ns() - child_ns; }
  std::string_view layer() const {
    const std::string_view n(name);
    return n.substr(0, n.find('.'));
  }
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::int64_t op) { op_ = op; }

  int open(const char* name, int task) {
    if (!enabled_) return -1;
    SpanRecord s;
    s.name = name;
    s.task = task;
    s.parent = current_;
    s.op = op_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.duration_ns();
  }

  /// Durations in ms of every span called `name` (and, if task >= 0, of that
  /// task), in the order they were opened.
  std::vector<double> durations_ms(std::string_view name, int task = -1) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name && (task < 0 || s.task == task)) out.push_back(s.duration_ns() / 1e6);
    }
    return out;
  }

  /// Per op id: summed duration in ms of the spans called `name` in that op.
  std::vector<double> per_op_ms(std::string_view name) const {
    std::map<std::int64_t, double> by_op;
    for (const SpanRecord& s : spans_) {
      if (s.op >= 0 && name == s.name) by_op[s.op] += s.duration_ns() / 1e6;
    }
    std::vector<double> out;
    for (const auto& [op, ms] : by_op) out.push_back(ms);
    return out;
  }

  /// Self time per layer, in ms, summed over the spans that belong to ops.
  std::map<std::string, double> op_self_ms_by_layer() const {
    std::map<std::string, double> out;
    for (const SpanRecord& s : spans_) {
      if (s.op >= 0) out[std::string(s.layer())] += s.self_ns() / 1e6;
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "complete" event; the op id,
  /// task, span id and parent span id go in each event's args.
  bool write_chrome_json(const std::string& path, const char* (*task_name)(int)) const {
    std::ofstream os(path);
    if (!os) return false;
    os << std::fixed << std::setprecision(3);  // microseconds, to the nanosecond
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer()
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << (s.start_ns - t0) / 1e3
         << ", \"dur\": " << s.duration_ns() / 1e3 << ", \"args\": {\"id\": " << i
         << ", \"parent\": " << s.parent << ", \"op\": " << s.op << ", \"task\": \""
         << (s.task >= 0 ? task_name(s.task) : "") << "\", \"self_us\": " << s.self_ns() / 1e3
         << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
  std::int64_t op_ = -1;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, const char* name, int task = -1) : t_(t), id_(t.open(name, task)) {}
  ~Span() { t_.close(id_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
