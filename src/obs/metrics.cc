#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/log.h"

namespace clover::obs {
namespace {

std::atomic<int> g_enabled{-1};  // -1 = uninitialized (consult env)

bool EnvTruthy(const char* value) {
  if (value == nullptr) return false;
  const std::string_view s(value);
  return s == "1" || s == "on" || s == "ON" || s == "true";
}

}  // namespace

bool Enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvTruthy(std::getenv("CLOVER_OBS")) ? 1 : 0;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetEnabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

LogHistogramQuantile Histogram::Fold() const {
  LogHistogramQuantile folded;
  for (std::size_t bin = 0; bin < LogHistogramQuantile::kNumBins; ++bin) {
    const std::uint64_t total = bins_[bin].load(std::memory_order_relaxed);
    if (total > 0) {
      folded.Add(LogHistogramQuantile::BinRepresentative(bin), total);
    }
  }
  return folded;
}

void Histogram::Reset() {
  for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Registry& Registry::Get() {
  // Leaked singleton: metric handles cached in function-local statics at
  // call sites must outlive every thread, including detached ones running
  // through static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

Snapshot Registry::Fold(double ts_s) const {
  Snapshot snap;
  snap.ts_s = ts_s;
  std::lock_guard<std::mutex> lock(mu_);
  snap.rows.reserve(counters_.size() + histograms_.size());
  // std::map iteration is name-sorted, so rows come out deterministically
  // ordered regardless of registration order (which varies with thread
  // schedule when two sites register concurrently).
  for (const auto& [name, counter] : counters_) {
    SnapshotRow row;
    row.name = name;
    row.kind = MetricKind::kCounter;
    row.count = counter->Fold();
    snap.rows.push_back(std::move(row));
  }
  for (const auto& [name, histogram] : histograms_) {
    SnapshotRow row;
    row.name = name;
    row.kind = MetricKind::kHistogram;
    row.count = histogram->FoldCount();
    const LogHistogramQuantile folded = histogram->Fold();
    row.p50 = folded.Quantile(0.50);
    row.p95 = folded.Quantile(0.95);
    row.p99 = folded.Quantile(0.99);
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const SnapshotRow& a, const SnapshotRow& b) {
              if (a.name != b.name) return a.name < b.name;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return snap;
}

void Registry::Sample(double ts_s) {
  Snapshot snap = Fold(ts_s);
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshots_.size() >= kMaxSnapshots) {
    snapshots_.erase(snapshots_.begin());
    ++snapshots_dropped_;
  }
  snapshots_.push_back(std::move(snap));
}

std::vector<Snapshot> Registry::Snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

std::uint64_t Registry::SnapshotsDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_dropped_;
}

namespace {

void WriteRows(JsonWriter* w, const std::vector<SnapshotRow>& rows) {
  w->BeginArray();
  for (const SnapshotRow& row : rows) {
    w->BeginObject();
    w->Key("name");
    w->String(row.name);
    w->Key("kind");
    w->String(MetricKindName(row.kind));
    w->Key("count");
    w->UInt(row.count);
    if (row.kind == MetricKind::kHistogram) {
      w->Key("p50");
      w->Number(row.p50);
      w->Key("p95");
      w->Number(row.p95);
      w->Key("p99");
      w->Number(row.p99);
    }
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

bool Registry::WriteMetricsJson(const std::string& path) const {
  std::vector<Snapshot> snapshots = Snapshots();
  const std::uint64_t dropped = SnapshotsDropped();
  const Snapshot final_fold = Fold(snapshots.empty() ? 0.0 : snapshots.back().ts_s);

  std::ofstream out(path);
  if (!out) {
    CLOVER_WARN("obs: cannot open metrics output " << path);
    return false;
  }
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("schema");
  w.String("clover-metrics-v1");
  w.Key("snapshots_dropped");
  w.UInt(dropped);
  w.Key("snapshots");
  w.BeginArray();
  for (const Snapshot& snap : snapshots) {
    w.BeginObject();
    w.Key("ts_s");
    w.Number(snap.ts_s);
    w.Key("rows");
    WriteRows(&w, snap.rows);
    w.EndObject();
  }
  w.EndArray();
  w.Key("final");
  w.BeginObject();
  w.Key("ts_s");
  w.Number(final_fold.ts_s);
  w.Key("rows");
  WriteRows(&w, final_fold.rows);
  w.EndObject();
  w.EndObject();
  out.flush();
  if (!out) {
    CLOVER_WARN("obs: write failed for metrics output " << path);
    return false;
  }
  return true;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->Reset();
  for (auto& entry : histograms_) entry.second->Reset();
  snapshots_.clear();
  snapshots_dropped_ = 0;
}

}  // namespace clover::obs
