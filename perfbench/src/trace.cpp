#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

struct Tracer::ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t next_seq = 1;
  std::vector<Span> done;
  std::vector<const Span*> open;  ///< innermost last
};

namespace {

std::atomic<std::uint64_t> g_next_serial{1};

// One cached buffer per thread, tagged with the serial of the Tracer that
// owns it, so a buffer of a destroyed Tracer is never reused.
struct ThreadCache {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, reach);
      const std::int64_t hi = std::min(end, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = p.duration_ns() - covered;
  }
  return self;
}

Tracer::Tracer() : serial_(g_next_serial.fetch_add(1)) {}

Tracer::~Tracer() = default;

std::uint32_t Tracer::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      ids_.emplace(std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

std::vector<std::string> Tracer::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

void Tracer::set_ambient(std::uint64_t parent, std::uint64_t request) {
  ambient_parent_.store(parent, std::memory_order_relaxed);
  ambient_request_.store(request, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_cache.serial == serial_) return *static_cast<ThreadBuffer*>(t_cache.buffer);
  const std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->thread = static_cast<std::uint32_t>(buffers_.size());
  buf->done.reserve(1 << 16);
  t_cache = {serial_, buf.get()};
  buffers_.push_back(std::move(buf));
  return *buffers_.back();
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->done.begin(), b->done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->done.size();
  return n;
}

bool Tracer::write_csv(const std::vector<Span>& spans, const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) out << "# " << i << '=' << names_[i] << '\n';
  }
  out << "id,parent,request,thread,name_id,start_ns,end_ns\n";
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.thread << ',' << s.name
        << ',' << s.start_ns - t0 << ',' << s.end_ns - t0 << '\n';
  }
  return static_cast<bool>(out);
}

SpanScope::SpanScope(Tracer* tracer, std::uint32_t name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Tracer::ThreadBuffer& buf = tracer_->buffer();
  span_.id = (std::uint64_t{buf.thread} + 1) << 40 | buf.next_seq++;
  span_.name = name;
  span_.thread = buf.thread;
  if (buf.open.empty()) {
    span_.parent = tracer_->ambient_parent_.load(std::memory_order_relaxed);
    span_.request = tracer_->ambient_request_.load(std::memory_order_relaxed);
  } else {
    span_.parent = buf.open.back()->id;
    span_.request = buf.open.back()->request;
  }
  if (request != 0) span_.request = request;
  buf.open.push_back(&span_);
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  Tracer::ThreadBuffer& buf = tracer_->buffer();
  buf.open.pop_back();
  buf.done.push_back(span_);
}

}  // namespace perfbench
