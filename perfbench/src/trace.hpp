// In-memory span tracing for the traced benchmark run.
//
// A span is one call into a layer: its name, start and end on the
// steady clock, the span that caused it, the request it serves and the
// thread that ran it. Spans are recorded into per-thread buffers (no lock on
// the recording path), kept in memory for the whole run and merged and
// written out only after the timed work. Spans are opened by the benchmark's
// own code (around each KEM call) and by the timing decorators it wraps
// around the multipliers (timed.hpp); nothing inside the library is
// instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;       ///< unique within one Tracer, never 0
  std::uint64_t parent = 0;   ///< 0: no parent
  std::uint64_t request = 0;  ///< spans serving one request share this id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t name = 0;     ///< Tracer::intern() id
  std::uint32_t thread = 0;   ///< dense per-Tracer thread index

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children, which may run on other threads and may
/// overlap each other (their union is subtracted, clipped to the parent).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stable id of a span name. Intern names before the timed work.
  std::uint32_t intern(std::string_view name);
  /// Every interned name, indexed by id.
  std::vector<std::string> names() const;

  /// Parent and request for spans opened on a thread with no open span of
  /// its own (the pool workers of a batch call). Set by the caller when it
  /// opens the span around the batch call.
  void set_ambient(std::uint64_t parent, std::uint64_t request);

  /// Spans recorded so far. Call only while no span is open.
  std::size_t size() const;

  /// Every recorded span, merged over threads and sorted by start. Call only
  /// while no span is open.
  std::vector<Span> spans() const;

  /// Write `spans` as CSV: a `# name_id=name` line per span name, then
  /// id,parent,request,thread,name_id,start_ns,end_ns with times relative to
  /// the first start.
  bool write_csv(const std::vector<Span>& spans, const std::string& path) const;

 private:
  friend class SpanScope;
  struct ThreadBuffer;
  ThreadBuffer& buffer();

  const std::uint64_t serial_;
  mutable std::mutex mu_;  ///< guards names_, ids_ and buffers_
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> ambient_parent_{0};
  std::atomic<std::uint64_t> ambient_request_{0};
};

/// RAII span. A null tracer records nothing, so untraced code paths can
/// share the call sites. `request == 0` inherits the enclosing span's
/// request (or the ambient one).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::uint32_t name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench
