#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/byte_io.hpp"
#include "json/json.hpp"

namespace condor::bench {
namespace {

/// Whole microseconds. Rounding is monotonic, so a child that lies inside
/// its parent still does after it, and the viewer nests them exactly.
std::int64_t micros(double seconds) { return std::llround(seconds * 1e6); }

}  // namespace

Trace::SpanId Trace::add(std::string name, double begin_s, double end_s,
                         std::uint64_t id, SpanId parent) {
  Span span{std::move(name), begin_s, end_s, id, parent};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<SpanId>(spans_.size() - 1);
}

Status Trace::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = spans_.size();
  // Children's intervals per parent, for the self times; each span's root,
  // which a parent's lower index lets one forward pass find.
  std::vector<std::vector<std::pair<double, double>>> children(count);
  std::vector<std::size_t> root(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    if (span.parent == kNoParent) {
      root[i] = i;
    } else {
      const auto parent = static_cast<std::size_t>(span.parent);
      children[parent].emplace_back(span.begin_s, span.end_s);
      root[i] = root[parent];
    }
  }
  // Lanes: each root and its descendants share one track, and roots that
  // overlap in time (concurrent requests) go to different tracks.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < count; ++i) {
    if (root[i] == i) {
      roots.push_back(i);
    }
  }
  std::stable_sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].begin_s < spans_[b].begin_s;
  });
  std::vector<std::int64_t> lane_end;
  std::vector<std::size_t> lane(count);
  for (const std::size_t r : roots) {
    const std::int64_t begin = micros(spans_[r].begin_s);
    const auto free = std::find_if(lane_end.begin(), lane_end.end(),
                                   [&](std::int64_t end) { return end <= begin; });
    lane[r] = static_cast<std::size_t>(free - lane_end.begin());
    if (free == lane_end.end()) {
      lane_end.push_back(0);
    }
    lane_end[lane[r]] = micros(spans_[r].end_s);
  }

  json::Array events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    // Self time: the duration minus the union of the children's intervals,
    // each clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.begin_s;
    for (const auto& [begin, end] : kids) {
      const double lo = std::max(begin, reach);
      const double hi = std::min(end, span.end_s);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    json::Object args;
    args.set("id", static_cast<std::int64_t>(span.id));
    args.set("span", static_cast<std::int64_t>(i));
    args.set("parent", static_cast<std::int64_t>(span.parent));
    args.set("self_us", (span.end_s - span.begin_s - covered) * 1e6);
    json::Object event;
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("ts", micros(span.begin_s));
    event.set("dur", micros(span.end_s) - micros(span.begin_s));
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(lane[root[i]] + 1));
    event.set("args", std::move(args));
    events.emplace_back(std::move(event));
  }
  json::Object root_object;
  root_object.set("traceEvents", std::move(events));
  root_object.set("displayTimeUnit", "ms");
  return write_text_file(path, json::dump(root_object, /*pretty=*/false));
}

}  // namespace condor::bench
