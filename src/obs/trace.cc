#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

namespace autoce::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

/// The span clock: `clock`, or the steady clock zeroed now.
Clock SpanClock(Clock clock) {
  if (clock) return clock;
  return [origin = SteadySeconds()] { return SteadySeconds() - origin; };
}

/// Seconds to whole microseconds, rounded: a simulated clock stepping
/// k·1e-6 s can land just below k µs, which truncation would misread.
uint64_t Micros(double seconds) {
  return seconds > 0.0 ? static_cast<uint64_t>(std::llround(seconds * 1e6)) : 0;
}

/// One open span on the owning thread's stack.
struct Frame {
  const char* name;
  uint64_t start_us;
  uint64_t child_us = 0;  // summed durations of closed direct children
};

struct ThreadSlot {
  uint64_t epoch = 0;  // which Enable generation assigned this tid
  int tid = -1;
  std::vector<Frame> stack;
};

ThreadSlot& Slot() {
  thread_local ThreadSlot slot;
  return slot;
}

}  // namespace

struct Tracer::State {
  mutable std::mutex mu;
  Clock clock;  // empty until the first Enable*
  std::FILE* file = nullptr;
  bool buffering = false;
  std::string buffer;
  std::map<std::string, SpanAggregate> aggregates;
  // tids are reassigned from 0 on every Enable so the first thread to
  // open a span (by convention the calling/main thread) is always tid
  // 0, independent of pool threads spawned earlier in the process.
  uint64_t epoch = 0;
  int next_tid = 0;
};

Tracer& Tracer::Instance() {
  static Tracer* instance = new Tracer();  // leaked, like MetricsRegistry
  return *instance;
}

namespace {
void FlushTraceAtExit() { Tracer::Instance().Disable(); }
}  // namespace

Tracer::Tracer() : state_(new State()) {
  const char* env = std::getenv("AUTOCE_TRACE");
  if (env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    EnableFile(env);
    std::atexit(FlushTraceAtExit);
  }
}

void Tracer::EnableFile(const std::string& path, Clock clock) {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->file != nullptr) {
    std::fclose(state_->file);
    state_->file = nullptr;
  }
  state_->file = std::fopen(path.c_str(), "w");
  if (state_->file == nullptr) {
    std::fprintf(stderr, "AUTOCE_TRACE: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("[\n", state_->file);
  state_->buffering = false;
  state_->clock = SpanClock(std::move(clock));
  ++state_->epoch;
  state_->next_tid = 0;
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::EnableBuffer(Clock clock) {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->file != nullptr) {
    std::fclose(state_->file);
    state_->file = nullptr;
  }
  state_->buffering = true;
  state_->buffer.clear();
  state_->clock = SpanClock(std::move(clock));
  ++state_->epoch;
  state_->next_tid = 0;
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

std::string Tracer::TakeBuffer() {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::string out;
  out.swap(state_->buffer);
  return out;
}

void Tracer::Disable() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->file != nullptr) {
    // Final instant event carries no trailing comma, closing the array
    // so chrome://tracing / Perfetto load the file as-is.
    std::fputs(
        "{\"name\":\"trace_end\",\"ph\":\"i\",\"ts\":0,\"pid\":0,"
        "\"tid\":0,\"s\":\"g\"}\n]\n",
        state_->file);
    std::fclose(state_->file);
    state_->file = nullptr;
  }
  state_->buffering = false;
}

std::map<std::string, SpanAggregate> Tracer::Aggregates() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->aggregates;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->aggregates.clear();
  state_->buffer.clear();
}

void Tracer::BeginSpan(const char* name) {
  ThreadSlot& slot = Slot();
  uint64_t start;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->clock == nullptr) return;
    if (slot.epoch != state_->epoch) {
      slot.epoch = state_->epoch;
      slot.tid = state_->next_tid++;
    }
    start = Micros(state_->clock());
  }
  slot.stack.push_back(Frame{name, start});
}

void Tracer::EndSpan() {
  ThreadSlot& slot = Slot();
  if (slot.stack.empty()) return;
  Frame frame = slot.stack.back();
  slot.stack.pop_back();

  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->clock == nullptr) return;
  uint64_t end = Micros(state_->clock());
  uint64_t dur = end >= frame.start_us ? end - frame.start_us : 0;
  uint64_t self = dur >= frame.child_us ? dur - frame.child_us : 0;
  if (!slot.stack.empty()) slot.stack.back().child_us += dur;

  SpanAggregate& agg = state_->aggregates[frame.name];
  agg.count += 1;
  agg.total_us += dur;
  agg.self_us += self;

  if (internal::g_trace_enabled.load(std::memory_order_relaxed)) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
                  "\"pid\":0,\"tid\":%d},\n",
                  frame.name,
                  static_cast<unsigned long long>(frame.start_us),
                  static_cast<unsigned long long>(dur), slot.tid);
    if (state_->file != nullptr) {
      std::fputs(line, state_->file);
    } else if (state_->buffering) {
      state_->buffer += line;
    }
  }
}

namespace {
// Honors AUTOCE_TRACE before main(), like the metrics env bootstrap.
const bool g_env_loaded = (Tracer::Instance(), true);
}  // namespace

}  // namespace autoce::obs
