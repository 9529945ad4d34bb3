// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// In-memory span recorder for the benchmark harness. A span is one call
// the harness makes into a public library function (or one harness-level
// operation around such calls): a name "layer.stage", the operation it
// belongs to, the recording thread, its enclosing span on that thread,
// and steady_clock start/end. Spans stay in memory and are written once,
// as Chrome trace-event JSON (chrome://tracing, Perfetto, and
// trace_summary.py all read it), when the run ends.
//
// Disarmed (the default) a Span costs one relaxed atomic load: the
// end-to-end numbers are always measured disarmed, and a separate armed
// phase gives the per-layer numbers.

#ifndef GRAPHSCAPE_BENCH_TRACE_H_
#define GRAPHSCAPE_BENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace graphscape {
namespace bench {
namespace trace {

struct Event {
  const char* name;    ///< "layer.stage", a string literal
  const char* detail;  ///< optional static label (a verb), else nullptr
  uint64_t op;         ///< operation id; 0 = set-up
  uint32_t tid;        ///< dense recording-thread id
  int64_t parent;      ///< index of the enclosing span, -1 for none
  int64_t begin_ns;
  int64_t end_ns;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace internal {

struct Recorder {
  std::atomic<bool> armed{false};
  std::atomic<uint32_t> next_tid{0};
  std::mutex mu;
  std::vector<Event> events;  // guarded by mu
};

inline Recorder& Global() {
  static Recorder recorder;
  return recorder;
}

struct ThreadState {
  uint32_t tid = Global().next_tid.fetch_add(1);
  uint64_t op = 0;
  int64_t open = -1;  // innermost open span on this thread
};

inline ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace internal

inline void Arm(bool on) {
  internal::Global().armed.store(on, std::memory_order_relaxed);
}

inline bool Armed() {
  return internal::Global().armed.load(std::memory_order_relaxed);
}

/// Tags every span this thread opens from now on with operation `op`.
inline void SetOp(uint64_t op) { internal::Local().op = op; }

/// RAII span. Records nothing when the recorder is disarmed at open.
class Span {
 public:
  explicit Span(const char* name, const char* detail = nullptr) {
    if (!Armed()) return;
    internal::Recorder& rec = internal::Global();
    internal::ThreadState& local = internal::Local();
    std::lock_guard<std::mutex> lock(rec.mu);
    index_ = static_cast<int64_t>(rec.events.size());
    rec.events.push_back(
        Event{name, detail, local.op, local.tid, local.open, NowNs(), 0});
    local.open = index_;
  }

  ~Span() {
    if (index_ < 0) return;
    const int64_t end = NowNs();
    internal::Recorder& rec = internal::Global();
    std::lock_guard<std::mutex> lock(rec.mu);
    Event& event = rec.events[static_cast<size_t>(index_)];
    event.end_ns = end;
    internal::Local().open = event.parent;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

/// A copy of every span recorded so far (call after recording threads
/// have joined).
inline std::vector<Event> Events() {
  internal::Recorder& rec = internal::Global();
  std::lock_guard<std::mutex> lock(rec.mu);
  return rec.events;
}

/// Writes `events` as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps). The layer (name up to the first '.') is the
/// category; op, parent and detail ride in args. `workload` goes into
/// otherData so trace_summary.py can label its tables.
inline bool WriteChromeTrace(const std::vector<Event>& events,
                             const std::string& workload,
                             const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t epoch = events.empty() ? 0 : events.front().begin_ns;
  std::fprintf(out, "{\"otherData\": {\"workload\": \"%s\"},\n",
               workload.c_str());
  std::fprintf(out, " \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n");
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const std::string name = e.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"op\": %llu, \"parent\": %lld",
                 e.name, layer.c_str(), e.tid, (e.begin_ns - epoch) / 1e3,
                 (e.end_ns - e.begin_ns) / 1e3, i,
                 static_cast<unsigned long long>(e.op),
                 static_cast<long long>(e.parent));
    if (e.detail != nullptr) {
      std::fprintf(out, ", \"detail\": \"%s\"", e.detail);
    }
    std::fprintf(out, "}}%s\n", i + 1 < events.size() ? "," : "");
  }
  std::fprintf(out, " ]\n}\n");
  return std::fclose(out) == 0;
}

}  // namespace trace
}  // namespace bench
}  // namespace graphscape

#endif  // GRAPHSCAPE_BENCH_TRACE_H_
