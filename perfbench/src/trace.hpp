// In-memory spans recorded by the benchmark around its calls into each layer.
//
// A span has a name ("<layer>.<operation>", e.g. "vcuda.load"), a start and
// end on the steady clock, the span that caused it, and the request and key
// it belongs to. Spans nest per thread: a Scope opened while another is open
// on the same thread becomes its child and inherits its request and key.
// Nothing is recorded while the tracer is disabled, so an untraced run pays
// one branch per Scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  double start_us = 0;  // microseconds since the tracer's epoch
  double end_us = 0;
  std::int64_t request = -1;  // -1 = not part of a request
  std::string key;
  int track = 0;  // Chrome-trace thread id: 0 = client thread

  double duration_ms() const { return (end_us - start_us) / 1000.0; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  double NowUs() const;

  // RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t request = -1, std::string key = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when disabled
    SpanRecord rec_;
  };

  // Records a span whose interval was observed rather than bracketed (work
  // on another thread, seen start and end from the client). No parent.
  void AddObserved(std::string name, double start_us, double end_us, std::string key, int track);

  std::vector<SpanRecord> spans() const;

  // Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Record(SpanRecord rec);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_, next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

// Per span: its duration minus the part of its interval covered by its
// direct children (overlapping children are merged, never counted twice).
std::map<std::uint64_t, double> SelfTimesMs(const std::vector<SpanRecord>& spans);

// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

// `s` as a quoted JSON string (control characters become spaces).
std::string JsonString(const std::string& s);

}  // namespace perfbench
