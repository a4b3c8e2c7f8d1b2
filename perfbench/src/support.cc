#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "relational/csv.h"
#include "runtime/thread_pool.h"
#include "tensor/buffer_pool.h"

namespace perfbench {

using tqp::Result;
using tqp::Status;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- spans --

int SpanRecorder::Begin(const std::string& name, int64_t query) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = NowNanos();
  span.query = query;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end = NowNanos();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanRecorder::Add(const std::string& name, int64_t start, int64_t end,
                       int64_t query) {
  spans_.push_back({name, -1, start, end, query});
}

std::map<std::string, int64_t> SpanRecorder::SelfNanos() const {
  std::vector<int64_t> child_nanos(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_nanos[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_nanos[i];
  }
  return self;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,",
                  i == 0 ? "" : ",",
                  // Concurrent (parentless, non-nested) spans get their own
                  // track per query so the viewer does not nest them.
                  static_cast<long long>(s.parent < 0 ? s.query % 64 : 0),
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    out << buf << "\"name\":\"" << JsonEscape(s.name) << "\",\"args\":{\"query\":"
        << s.query << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// ------------------------------------------------------------- counters --

namespace {
int64_t CounterValue(const char* name) {
  const tqp::obs::Counter* c = tqp::obs::MetricsRegistry::Global()->FindCounter(name);
  return c == nullptr ? 0 : c->value();
}
}  // namespace

EngineCounters EngineCounters::Take() {
  EngineCounters c;
  const tqp::BufferPoolStats pool = tqp::BufferPool::Global()->stats();
  c.allocs = pool.total_allocations();
  c.pooled_allocs = pool.allocations;
  c.pool_hits = pool.pool_hits;
  c.live_bytes = pool.live_bytes;
  c.tasks = tqp::runtime::ThreadPool::Global()->tasks_executed();
  c.steals = tqp::runtime::ThreadPool::Global()->steals();
  c.steps = CounterValue("tqp_steps_executed_total");
  c.morsels = CounterValue("tqp_morsel_evals_total");
  c.expr_simd = CounterValue("tqp_expr_backend_simd_total");
  c.expr_interp = CounterValue("tqp_expr_backend_interp_total");
  c.breaker_invocations = CounterValue("tqp_breaker_invocations_total");
  c.breaker_partitions = CounterValue("tqp_breaker_partitions_total");
  c.breaker_fallbacks = CounterValue("tqp_breaker_fallbacks_total");
  c.spill_events = CounterValue("tqp_spill_events_total");
  c.spilled_bytes = CounterValue("tqp_spilled_bytes_total");
  c.fault_events = CounterValue("tqp_fault_events_total");
  return c;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                           \
  X(allocs) X(pooled_allocs) X(pool_hits) X(live_bytes) X(tasks) X(steals)    \
  X(steps) X(morsels) X(expr_simd) X(expr_interp) X(breaker_invocations)      \
  X(breaker_partitions) X(breaker_fallbacks) X(spill_events) X(spilled_bytes) \
  X(fault_events)

EngineCounters EngineCounters::operator-(const EngineCounters& o) const {
  EngineCounters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

// --------------------------------------------------------------- oracle --

namespace {
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

std::string OracleCache::Path(const std::string& data_id, const std::string& sql) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(data_id + "\n" + sql)));
  return dir_ + "/" + buf + ".txt";
}

bool OracleCache::Has(const std::string& data_id, const std::string& sql) const {
  return std::filesystem::exists(Path(data_id, sql));
}

Result<tqp::Table> OracleCache::Load(const std::string& data_id,
                                     const std::string& sql) const {
  std::ifstream in(Path(data_id, sql), std::ios::binary);
  if (!in) return Status::IOError("no oracle result for: " + sql);
  // Line 1 names the data set and statement, guarding against hash
  // collisions; line 2 holds the column types; the rest is the CSV.
  std::string key, types;
  std::getline(in, key);
  std::getline(in, types);
  if (key != JsonEscape(data_id + "\n" + sql)) {
    return Status::IOError("stale oracle file " + Path(data_id, sql));
  }
  tqp::Schema schema;
  std::istringstream type_list(types);
  for (int type; type_list >> type;) {
    schema.AddField({"c" + std::to_string(schema.num_fields()),
                     static_cast<tqp::LogicalType>(type)});
  }
  std::ostringstream csv;
  csv << in.rdbuf();
  return tqp::ReadCsvString(csv.str(), schema);
}

Status OracleCache::Store(const std::string& data_id, const std::string& sql,
                          const tqp::Table& result) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = Path(data_id, sql);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << JsonEscape(data_id + "\n" + sql) << "\n";
    for (const tqp::Field& f : result.schema().fields()) {
      out << static_cast<int>(f.type) << ' ';
    }
    out << "\n" << tqp::WriteCsvString(result);
    if (!out) return Status::IOError("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("cannot rename " + tmp + ": " + ec.message());
  return Status::OK();
}

// -------------------------------------------------------------- metrics --

void MetricSink::Add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string MetricSink::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", entries_[i].value);
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(entries_[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" + JsonEscape(entries_[i].unit) +
           "\"}";
  }
  return out + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
