#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<uint64_t, uint64_t>;

// Length of the union of `intervals` clipped to [lo, hi).
uint64_t CoveredLength(std::vector<Interval> intervals, uint64_t lo,
                       uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const uint64_t s = std::max(start, cursor);
    const uint64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t session) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, session});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void Tracer::Extend(int64_t index, uint64_t end_ns) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

int64_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                       int64_t parent, uint64_t session) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, session});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, uint64_t> Tracer::SelfTimeByName() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) continue;  // never closed
    const uint64_t covered =
        CoveredLength(std::move(children[i]), span.start_ns, span.end_ns);
    self[span.name] += span.end_ns - span.start_ns - covered;
  }
  return self;
}

double Tracer::Coverage(const char* root,
                        const std::vector<std::string>& layers) const {
  // Layer spans are recorded one after another on the main thread, so they
  // never overlap: sorted by start, their ends are sorted too.
  std::vector<Interval> layer_spans;
  for (const Span& span : spans_) {
    if (std::find(layers.begin(), layers.end(), span.name) != layers.end()) {
      layer_spans.emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::sort(layer_spans.begin(), layer_spans.end());
  uint64_t total = 0;
  uint64_t covered = 0;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) != root || span.end_ns <= span.start_ns) {
      continue;
    }
    total += span.end_ns - span.start_ns;
    auto it = std::partition_point(
        layer_spans.begin(), layer_spans.end(),
        [&](const Interval& layer) { return layer.second <= span.start_ns; });
    std::vector<Interval> overlapping;
    for (; it != layer_spans.end() && it->first < span.end_ns; ++it) {
      overlapping.push_back(*it);
    }
    covered += CoveredLength(std::move(overlapping), span.start_ns, span.end_ns);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\": %s,\n\"self_time_ns\": {",
               metadata_json.c_str());
  bool first = true;
  for (const auto& [name, ns] : SelfTimeByName()) {
    std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                 static_cast<unsigned long long>(ns));
    first = false;
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"session\": %llu}}%s\n",
                 span.name, static_cast<unsigned long long>(span.session),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.session),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
