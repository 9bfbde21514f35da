// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into a library layer, made from the benchmark's
// own code.  Each span has a name, a start and an end (steady-clock
// nanoseconds since the recorder was created), the index of the span that
// was open when it began (its parent, -1 for a root), and a run id shared
// by every span under one root.  Spans stay in a vector until the end of
// the process, when write_chrome_trace() emits them as Chrome trace-event
// JSON (complete "X" events), which Perfetto and about:tracing open.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
    [[nodiscard]] double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  /// Closes its span on destruction; inert when tracing was off.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Recording starts off; set_enabled(true) turns it on.
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span named `name` under the innermost open span.
  [[nodiscard]] Scope span(std::string name) {
    if (!enabled_) return {nullptr, -1};
    const int parent = open_.empty() ? -1 : open_.back();
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.run = parent < 0 ? next_run_++ : spans_[static_cast<std::size_t>(parent)].run;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return {this, open_.back()};
  }

  /// Durations in seconds of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns >= s.start_ns) out.push_back(s.seconds());
    }
    return out;
  }

  /// Write every span as Chrome trace-event JSON on one track (`tid`)
  /// named `track`.  Returns false if the file could not be written.
  bool write_chrome_trace(const std::string& path, int tid,
                          const std::string& track) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << track << "\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << ",\n{\"name\":\"" << s.name
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  bool enabled_ = false;
  int next_run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< indices of the spans currently open
};

}  // namespace perfbench
