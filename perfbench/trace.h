// In-memory span recorder for the session benchmark. Spans are recorded by
// the benchmark around the calls it makes into each layer (client, front end,
// warm pool, set-up) and written out once, at exit, as Chrome trace-event
// JSON. Recording is off unless enabled, so untraced runs pay one branch per
// call site.
#ifndef ENGARDE_PERFBENCH_TRACE_H_
#define ENGARDE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open
  int64_t parent = -1;  // index into the span table, -1 = root
  uint64_t session = 0;  // 0 = not tied to one session
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  // Opens a span and returns its index (-1 when tracing is off).
  int64_t Begin(const char* name, int64_t parent, uint64_t session);
  void End(int64_t index);
  // Moves the end of a closed span (coalescing back-to-back idle polls).
  void Extend(int64_t index, uint64_t end_ns);
  // Records an already measured interval.
  int64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                 int64_t parent, uint64_t session);

  // Total self time per span name: each span's duration minus the part of
  // it that its child spans cover.
  std::map<std::string, uint64_t> SelfTimeByName() const;

  // Share of the intervals of spans named `root` that is covered by spans
  // with any of `layers` names (summed over all root spans).
  double Coverage(const char* root, const std::vector<std::string>& layers) const;

  // Writes {"metadata": <metadata_json>, "self_time_ns": {...},
  // "traceEvents": [...]} to `path`.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent = -1,
             uint64_t session = 0)
      : tracer_(tracer), index_(tracer.Begin(name, parent, session)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // ENGARDE_PERFBENCH_TRACE_H_
