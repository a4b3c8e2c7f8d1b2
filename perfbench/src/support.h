#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace perfbench {

int64_t NowNanos();

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

// ---------------------------------------------------------------- spans --

/// Spans the benchmark records around its own calls into the engine: name,
/// start, end and the span that caused it. Kept in memory, exported once at
/// the end as a Chrome/Perfetto trace. All spans are recorded from the
/// benchmark's one client thread; nested spans come from ScopedSpan, and
/// overlapping spans of concurrent queries (scheduler workloads) from Add
/// with no parent.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start = 0;
    int64_t end = 0;
    int64_t query = 0;  // groups the spans of one query execution
  };

  int Begin(const std::string& name, int64_t query);
  void End(int id);
  void Add(const std::string& name, int64_t start, int64_t end, int64_t query);

  /// Self time per span name in nanoseconds: each span's duration minus the
  /// part its children cover. Children of one span never overlap (one
  /// client thread), so coverage is the sum of child durations.
  std::map<std::string, int64_t> SelfNanos() const;
  size_t size() const { return spans_.size(); }
  tqp::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t query = 0)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// ------------------------------------------------------------- counters --

/// The engine's public counters at one instant: BufferPool stats, the
/// global ThreadPool, and metrics-registry counters. Traced runs take one
/// before and after each call and attribute the difference to the layer.
struct EngineCounters {
  int64_t allocs = 0;         // BufferPoolStats::total_allocations
  int64_t pooled_allocs = 0;  // BufferPoolStats::allocations
  int64_t pool_hits = 0;
  int64_t live_bytes = 0;
  int64_t tasks = 0;
  int64_t steals = 0;
  int64_t steps = 0;
  int64_t morsels = 0;
  int64_t expr_simd = 0;
  int64_t expr_interp = 0;
  int64_t breaker_invocations = 0;
  int64_t breaker_partitions = 0;
  int64_t breaker_fallbacks = 0;
  int64_t spill_events = 0;
  int64_t spilled_bytes = 0;
  int64_t fault_events = 0;

  static EngineCounters Take();
  EngineCounters operator-(const EngineCounters& o) const;
  EngineCounters& operator+=(const EngineCounters& o);
};

// --------------------------------------------------------------- oracle --

/// Oracle results on disk, keyed by a hash of the data set and statement, so
/// the Volcano engine runs once per data set and statement. A result is kept
/// as its column types and `WriteCsvString` text, and read back with
/// `ReadCsvString`; compare it with `TablesEqualUnordered`.
class OracleCache {
 public:
  explicit OracleCache(std::string dir) : dir_(std::move(dir)) {}
  bool Has(const std::string& data_id, const std::string& sql) const;
  tqp::Result<tqp::Table> Load(const std::string& data_id,
                               const std::string& sql) const;
  tqp::Status Store(const std::string& data_id, const std::string& sql,
                    const tqp::Table& result) const;

 private:
  std::string Path(const std::string& data_id, const std::string& sql) const;
  std::string dir_;
};

// -------------------------------------------------------------- metrics --

/// Named metrics in insertion order, printed as the result line's
/// `metrics` object.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
