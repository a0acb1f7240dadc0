// Virtual-time flight-recorder tracer: per-thread ring buffers of spans
// and instants, dumped as Chrome trace-event JSON (chrome://tracing /
// Perfetto load it directly).
//
// Dual-clock convention. Every event carries one of two clock domains,
// rendered as two Chrome "processes" so they never interleave on a track:
//
//   * pid 0 — WALL. Real elapsed time (steady-clock seconds since
//     Enable), used for live threads: ingest loops, worker execution,
//     epoch parallel sections, campaign cells. Wall events are RAII
//     ScopedSpan B/E pairs and instants, and are monotone per thread by
//     construction.
//
//   * pid 1 — VIRTUAL. Simulated seconds, used for the optimizer
//     invocations (`opt.invocation`) on the simulated timeline. Both
//     endpoints of a virtual interval are known when it closes, so
//     virtual events are complete ("X", with dur) events — never open
//     B/E pairs. Virtual seconds are written as trace
//     microseconds (scaled 1e6), so Perfetto's "us" axis reads directly
//     as simulated seconds.
//
// Ring-buffer semantics: each thread owns a fixed-capacity ring; when it
// wraps, the oldest events are overwritten (flight recorder — the tail of
// the run is what a triage bundle wants) and the drop count is reported in
// the dump's otherData. The dump sanitizes per thread so the output always
// validates: orphan "E" events whose "B" was evicted and still-open
// trailing "B" events are skipped, and a virtual timeline that restarts
// (e.g. a twin run re-simulating from t=0) is split onto a fresh synthetic
// tid per monotone segment.
//
// Thread-safety: Emit is lock-free on the owning thread's ring (one
// relaxed total-counter load, a slot write, one release store). Dumps take
// the registry lock and read rings with acquire loads; a dump racing live
// writers may observe a bounded number of torn slots in the wrapped
// region, which the sanitizer drops — exact dumps are obtained the usual
// way: quiesce or join writers first (benches and the CLIs dump after
// their run loops).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clover::obs {

enum class TraceClock : std::uint8_t { kWall = 0, kVirtual = 1 };

struct TraceEvent {
  const char* name = nullptr;  // must point at static-storage text
  char phase = 'I';            // 'B' begin, 'E' end, 'I' instant, 'X' complete
  TraceClock clock = TraceClock::kWall;
  double ts_s = 0.0;
  double dur_s = 0.0;  // 'X' only
};

class Tracer {
 public:
  static Tracer& Get();

  static constexpr std::size_t kDefaultCapacity = 1 << 14;  // events/thread

  // Enables recording with the given per-thread ring capacity. The wall
  // epoch is latched on the first Enable and survives Disable/Enable
  // cycles, keeping wall timestamps monotone per thread for the dump.
  // Idempotent while already enabled (capacity is not changed under live
  // writers).
  void Enable(std::size_t ring_capacity = kDefaultCapacity);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Seconds since Enable on the steady clock.
  double WallNow() const;

  // Appends one event to the calling thread's ring (no-op when disabled).
  void Emit(const char* name, char phase, TraceClock clock, double ts_s,
            double dur_s = 0.0);

  // Convenience emitters (each checks enabled() itself).
  void InstantWall(const char* name) {
    if (enabled()) Emit(name, 'I', TraceClock::kWall, WallNow());
  }
  // Closed virtual interval [start_s, end_s] as a complete event.
  void CompleteVirtual(const char* name, double start_s, double end_s) {
    if (enabled()) {
      Emit(name, 'X', TraceClock::kVirtual, start_s, end_s - start_s);
    }
  }

  struct DumpStats {
    std::size_t written = 0;  // events emitted to the file
    std::size_t dropped = 0;  // overwritten by ring wraparound
    std::size_t skipped = 0;  // sanitized out (orphan E / unclosed B / torn)
  };

  // Writes all rings as one Chrome trace-event JSON document. Safe to call
  // whether enabled or not; see the file comment for the race contract.
  // On I/O failure logs a warning and returns stats with written == 0.
  DumpStats WriteChromeTrace(const std::string& path);

  // Drops all rings and re-arms thread registration. NOT safe with live
  // writers or open ScopedSpans; tests only.
  void ResetForTest();

 private:
  struct ThreadBuffer {
    ThreadBuffer(std::size_t capacity, int tid_in)
        : ring(capacity), tid(tid_in) {}
    std::vector<TraceEvent> ring;
    // Events ever emitted by this thread; slot = total % capacity. The
    // release store in Emit pairs with the dump's acquire load so every
    // slot below the loaded total is fully written (modulo wraparound
    // overwrites, which the sanitizer handles).
    std::atomic<std::uint64_t> total{0};
    int tid;
  };

  Tracer() = default;
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};  // invalidates cached TLS buffers
  mutable std::mutex mu_;  // guards buffers_ and registration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = kDefaultCapacity;
  int next_tid_ = 0;
  std::int64_t epoch_steady_ns_ = 0;  // steady_clock at Enable
};

// RAII wall-clock span: "B" at construction, "E" at destruction. The
// enabled check is latched at construction; if the tracer is disabled
// mid-span the "E" is suppressed by Emit's own guard and the unmatched
// "B" is dropped by the dump sanitizer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
};

}  // namespace clover::obs

#ifndef CLOVER_OBS_BUILD
#define CLOVER_OBS_BUILD 1
#endif

#if CLOVER_OBS_BUILD

#define CLOVER_OBS_CONCAT_INNER(a, b) a##b
#define CLOVER_OBS_CONCAT(a, b) CLOVER_OBS_CONCAT_INNER(a, b)

// Wall-clock span covering the rest of the enclosing scope.
#define CLOVER_TRACE_SCOPE(name_literal)              \
  ::clover::obs::ScopedSpan CLOVER_OBS_CONCAT(        \
      clover_obs_span_, __LINE__)(name_literal)

// Closed virtual-time interval [t0, t1] (simulated seconds).
#define CLOVER_TRACE_VSPAN(name_literal, t0, t1)                      \
  ::clover::obs::Tracer::Get().CompleteVirtual(                       \
      name_literal, static_cast<double>(t0), static_cast<double>(t1))

#else  // !CLOVER_OBS_BUILD

#define CLOVER_TRACE_SCOPE(name_literal) \
  do {                                   \
  } while (0)
#define CLOVER_TRACE_VSPAN(name_literal, t0, t1) \
  do {                                           \
    (void)sizeof(t0);                            \
    (void)sizeof(t1);                            \
  } while (0)

#endif  // CLOVER_OBS_BUILD
