// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the public functions of each layer (serve::Server::submit, the timing
// backend around ExecutorPool::run_batch, condorflow::Flow::run, ...), so
// the program under test is never instrumented. Spans stay in memory and
// are written once at exit as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace condor::bench {

class Trace {
 public:
  /// Index of a recorded span, used as the parent of later spans.
  using SpanId = std::int64_t;
  static constexpr SpanId kNoParent = -1;

  /// Records one closed span; times are now_s() readings. `id` groups the
  /// spans of one request (or batch, image, deploy round). A parent is
  /// recorded before its children and covers their intervals. Thread-safe.
  SpanId add(std::string name, double begin_s, double end_s, std::uint64_t id,
             SpanId parent = kNoParent);

  /// Writes every span as a complete ("X") trace event. A span without a
  /// parent and its descendants share one track (tid); overlapping roots
  /// get different tracks. Each event's args carry the request id, the
  /// parent span index and the self time: the duration minus the part of
  /// it the span's children cover.
  [[nodiscard]] Status write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double begin_s = 0.0;
    double end_s = 0.0;
    std::uint64_t id = 0;
    SpanId parent = kNoParent;
  };

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace condor::bench
