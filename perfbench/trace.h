// In-memory span recorder for the traced pass. Spans are recorded from the
// benchmark's own files around each call into a stedb layer; nothing in
// the library is instrumented. Each thread appends to its own buffer (no
// lock on the record path); buffers are written out once at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  /// One thread's spans; `open` is the innermost span still running.
  struct Buffer {
    std::vector<SpanRecord> spans;
    int32_t open = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// The calling thread's buffer for this tracer (created on first use).
  Buffer* ThisThread() {
    thread_local uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      owner = id_;
    }
    return buffer;
  }

  /// Durations and self times (ns) of every span, grouped by name. Call
  /// only once the recording threads have been joined.
  struct Totals {
    std::vector<double> duration_ns;
    std::vector<double> self_ns;
  };
  std::map<std::string, Totals> Summarize() const {
    std::map<std::string, Totals> out;
    for (const auto& b : buffers_) {
      const std::vector<int64_t> self = SelfTimesNs(b->spans);
      for (size_t i = 0; i < b->spans.size(); ++i) {
        const SpanRecord& s = b->spans[i];
        Totals& t = out[s.name];
        t.duration_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
        t.self_ns.push_back(static_cast<double>(self[i]));
      }
    }
    return out;
  }

  /// Writes every span as one tab-separated line:
  /// thread, index, parent, trace id, name, start ns, end ns.
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "thread\tindex\tparent\ttrace\tname\tstart_ns\tend_ns\n");
    for (size_t t = 0; t < buffers_.size(); ++t) {
      const auto& spans = buffers_[t]->spans;
      for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n", t, i,
                     s.parent, static_cast<unsigned long long>(s.trace_id),
                     s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const bool enabled_;
  /// Unique per tracer, so a thread never reuses the buffer of an earlier
  /// tracer that lived at the same address.
  const uint64_t id_ = NextId();
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) under the calling
/// thread's innermost open span. A no-op when the tracer is disabled.
class TraceScope {
 public:
  TraceScope(Tracer& tracer, const char* name, uint64_t trace_id = 0) {
    if (!tracer.enabled()) return;
    buffer_ = tracer.ThisThread();
    index_ = static_cast<int32_t>(buffer_->spans.size());
    SpanRecord rec;
    rec.name = name;
    rec.parent = buffer_->open;
    rec.trace_id = trace_id;
    rec.start_ns = Tracer::NowNs();
    buffer_->spans.push_back(rec);
    buffer_->open = index_;
  }
  ~TraceScope() {
    if (buffer_ == nullptr) return;
    SpanRecord& rec = buffer_->spans[static_cast<size_t>(index_)];
    rec.end_ns = Tracer::NowNs();
    buffer_->open = rec.parent;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
