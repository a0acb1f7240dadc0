// Minimal binary-heap event queue for the discrete-event simulator.
//
// The queue only ever holds completion events (one per busy instance) plus
// occasional instance-online wake events, so it stays tiny (< 100 entries);
// a flat binary heap at this size beats every pointer structure.
//
// Layout: structure-of-arrays. The heap is three parallel flat lanes —
// times_ (the sort key), ids_, aux_ — instead of a vector<Event>. Sift
// comparisons touch only the contiguous times_ lane (one cache line covers
// eight keys), and the id/aux lanes are swapped alongside so pop order is a
// pure function of the push/pop sequence, exactly as in the AoS layout.
// The public interface still speaks `Event` records.
//
// Hot-path notes: Push/Pop are fully inline (the simulator calls them once
// per completion, tens of millions of times per wall-second) and Reserve()
// pre-sizes the backing lanes once per simulator construction, so
// steady-state operation never allocates.
//
// Thread-safety: none; each ClusterSim owns its queue and a simulator is
// single-threaded by design (parallelism happens one level up, across
// simulator replicas — see docs/ARCHITECTURE.md).
//
// Determinism: ties on `time` are broken by heap layout, which is a pure
// function of the push/pop sequence — identical event streams produce
// identical pop orders on every platform.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace clover::sim {

struct Event {
  double time = 0.0;
  std::int32_t instance_id = -1;  // kWakeEventId for online-wake events
  double aux = 0.0;               // completion: request enqueue time
};

inline constexpr std::int32_t kWakeEventId = -1;

class EventQueue {
 public:
  void Push(const Event& event) {
    times_.push_back(event.time);
    ids_.push_back(event.instance_id);
    aux_.push_back(event.aux);
    SiftUp(times_.size() - 1);
  }

  // Time of the earliest event; the only field the main loop's three-way
  // merge needs, read without assembling an Event.
  double TopTime() const { return times_.front(); }

  Event Pop() {
    CLOVER_DCHECK(!times_.empty());
    const Event top{times_.front(), ids_.front(), aux_.front()};
    const std::size_t last = times_.size() - 1;
    times_.front() = times_[last];
    ids_.front() = ids_[last];
    aux_.front() = aux_[last];
    times_.pop_back();
    ids_.pop_back();
    aux_.pop_back();
    if (!times_.empty()) SiftDown(0);
    return top;
  }

  bool Empty() const { return times_.empty(); }

  // Pre-sizes the backing lanes so steady-state Push never reallocates.
  void Reserve(std::size_t capacity) {
    times_.reserve(capacity);
    ids_.reserve(capacity);
    aux_.reserve(capacity);
  }

 private:
  void SwapEntries(std::size_t a, std::size_t b) {
    std::swap(times_[a], times_[b]);
    std::swap(ids_[a], ids_[b]);
    std::swap(aux_[a], aux_[b]);
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (times_[parent] <= times_[i]) break;
      SwapEntries(parent, i);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = times_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < n && times_[left] < times_[smallest]) smallest = left;
      if (right < n && times_[right] < times_[smallest]) smallest = right;
      if (smallest == i) return;
      SwapEntries(i, smallest);
      i = smallest;
    }
  }

  std::vector<double> times_;        // heap key lane (the only compared lane)
  std::vector<std::int32_t> ids_;    // instance id / kWakeEventId
  std::vector<double> aux_;          // completion: request enqueue time
};

}  // namespace clover::sim
