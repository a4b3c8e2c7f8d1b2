// The repository's benchmark: one binary, three workloads, every result
// checked against the Volcano row engine.
//
//   tqp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --cache-dir <dir> [--prepare]
//
// --prepare generates the workload's inputs and stores the oracle results of
// every statement the seed will run (the Volcano engine, which shares only
// the SQL frontend with the tensor compiler). A measuring run then loads
// them, so neither the oracle's time nor its memory lands in a measurement.
//
// The engine is driven only through public entry points with default
// options: QueryCompiler::CompileSql with CompileOptions{}, and
// QueryScheduler with SchedulerOptions{}. Workloads choose only inputs: the
// data, the seed, the SQL, the concurrency and (tpch_budget) the per-query
// memory budget. With --trace 0 the last stdout line holds the end-to-end
// metrics; with --trace 1 a separate run records spans around each call
// into the engine and prints the per-layer metrics instead.

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "datasets/reviews.h"
#include "kernels/reduce.h"
#include "kernels/selection.h"
#include "kernels/simd_exec.h"
#include "kernels/sort.h"
#include "ml/text.h"
#include "ml/tree.h"
#include "operators/hash_join.h"
#include "params.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"
#include "support.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using tqp::Result;
using tqp::Status;
using tqp::Table;
using tqp::Tensor;

// Each of these silently changes what is measured; the benchmark refuses to
// run when any is set.
constexpr const char* kLockedEnv[] = {
    "TQP_THREADS",        "TQP_MORSEL_ROWS",        "TQP_BUFFER_POOL_MB",
    "TQP_MEMORY_BUDGET_MB", "TQP_EXPR_BACKEND",     "TQP_ADAPTIVE_MORSEL",
    "TQP_PARTITIONED_BREAKERS", "TQP_PARTITION_BITS", "TQP_QUERY_TIMEOUT_MS",
    "TQP_FAULT_SPEC"};

// Set-up repeats at least kMinSetupReps times and until kSetupBudgetNanos are
// spent (at most kMaxSetupReps), so short set-ups get enough samples for a
// steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr int64_t kSetupBudgetNanos = 2'000'000'000;
// A scheduled query that shows no progress for this long is declared stalled.
// The slowest statement of any workload takes under 2 s with 4 in flight.
constexpr int64_t kStallNanos = 10'000'000'000;
constexpr int kOutstanding = 4;  // closed-loop clients of the scheduler workloads

enum class Kind { kSerial, kScheduled };

struct WorkloadSpec {
  const char* name = "";
  Kind kind = Kind::kSerial;
  double scale_factor = 0;
  // kSerial: cold passes (fresh compilations of every statement) and the
  // minimum number of warm passes over all statements.
  int cold_reps = 3;
  int min_warm_passes = 3;
  // kScheduled: templates, statements per template and the per-query memory
  // budget (0 = the default).
  std::vector<int> templates;
  int per_template = 0;
  int64_t budget_bytes = 0;
  bool predict = false;
};

WorkloadSpec Spec(const char* name, Kind kind, double scale_factor) {
  WorkloadSpec w;
  w.name = name;
  w.kind = kind;
  w.scale_factor = scale_factor;
  return w;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* const kSpecs = [] {
    auto* v = new std::vector<WorkloadSpec>;
    WorkloadSpec power = Spec("tpch_power", Kind::kSerial, 0.1);
    power.templates = tqp::tpch::SupportedQueries();
    v->push_back(power);
    WorkloadSpec budget = Spec("tpch_budget", Kind::kScheduled, 0.1);
    budget.templates = {3, 9, 18, 21};
    // Ten fixed parameter variants per template: 40 statements overflow the
    // plan cache's 32 entries, so misses (cold samples) recur throughout the
    // run; the seed orders the stream but does not change the statements.
    budget.per_template = 10;
    budget.budget_bytes = int64_t{16} << 20;
    v->push_back(budget);
    WorkloadSpec predict = Spec("predict_mixed", Kind::kSerial, 0.01);
    predict.min_warm_passes = 5;
    predict.predict = true;
    v->push_back(predict);
    return v;
  }();
  return *kSpecs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool prepare = false;
  std::string cache_dir = ".bench_build/perfbench-cache";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (i + 1 >= argc) return Status::Invalid("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--cache-dir") {
      a.cache_dir = value;
    } else {
      return Status::Invalid("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0)) return Status::Invalid("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------- inputs --

struct ModelInput {
  std::string model;
  std::vector<Tensor> args;  // PREDICT argument columns, as the query reads them
};

/// Everything one set-up produces. The catalog and models are the only
/// things the engine sees.
struct Dataset {
  std::unique_ptr<tqp::Catalog> catalog = std::make_unique<tqp::Catalog>();
  std::unique_ptr<tqp::ml::ModelRegistry> models =
      std::make_unique<tqp::ml::ModelRegistry>();
  double dbgen_s = 0;
  double model_fit_s = 0;
  double total_s = 0;
  std::vector<ModelInput> model_inputs;
};

const char* kSentimentSql =
    "SELECT brand, SUM(CASE WHEN rating >= 3 THEN 1 ELSE 0 END) AS actual_positive, "
    "SUM(PREDICT('sentiment_classifier', text)) AS predicted_positive "
    "FROM amazon_reviews GROUP BY brand ORDER BY brand";
const char* kSentimentFilterSql =
    "SELECT rating, COUNT(*) AS n, "
    "AVG(PREDICT('sentiment_classifier', text)) AS predicted_share "
    "FROM amazon_reviews WHERE brand IN ('Acme', 'Globex', 'Initech') "
    "GROUP BY rating ORDER BY rating";
const char* kForestSql =
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_extendedprice) AS revenue "
    "FROM lineitem WHERE PREDICT('tax_forest', l_quantity, l_extendedprice, "
    "l_discount) > 0.04 GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus";

Result<Tensor> TableColumn(const tqp::Catalog& catalog, const std::string& table,
                           const std::string& column) {
  TQP_ASSIGN_OR_RETURN(Table t, catalog.GetTable(table));
  TQP_ASSIGN_OR_RETURN(tqp::Column c, t.ColumnByName(column));
  return c.tensor();
}

/// Oracle cache key: what generates the workload's data.
std::string DataId(const WorkloadSpec& spec, uint64_t seed) {
  char id[128];
  std::snprintf(id, sizeof(id), "tpch sf=%g dbgen_seed=%llu", spec.scale_factor,
                static_cast<unsigned long long>(tqp::tpch::DbgenOptions{}.seed));
  std::string out = id;
  if (spec.predict) out += " reviews=100000 seed=" + std::to_string(seed);
  return out;
}

constexpr uint64_t kModelSeed = 31;

Result<Dataset> SetUp(const WorkloadSpec& spec, uint64_t seed, SpanRecorder* spans) {
  Dataset d;
  const int64_t t0 = NowNanos();
  tqp::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = spec.scale_factor;
  {
    ScopedSpan span(spans, "dbgen");
    TQP_RETURN_NOT_OK(tqp::tpch::GenerateAll(dbgen, d.catalog.get()));
  }
  d.dbgen_s = static_cast<double>(NowNanos() - t0) * 1e-9;
  if (spec.predict) {
    const int64_t t1 = NowNanos();
    tqp::datasets::ReviewsOptions reviews;
    reviews.num_reviews = 100000;
    reviews.seed = seed;
    {
      ScopedSpan span(spans, "dbgen");
      TQP_ASSIGN_OR_RETURN(Table t, tqp::datasets::ReviewsTable(reviews));
      d.catalog->RegisterTable("amazon_reviews", std::move(t));
    }
    const int64_t t2 = NowNanos();
    ScopedSpan span(spans, "model_fit");
    std::vector<std::string> texts;
    std::vector<double> labels;
    // The models are fitted on fixed samples, so every seed scores its
    // reviews with the same model; only the scored data varies.
    tqp::datasets::GenerateReviewTexts(2000, kModelSeed, &texts, &labels);
    TQP_ASSIGN_OR_RETURN(auto sentiment, tqp::ml::SentimentClassifier::Fit(
                                             "sentiment_classifier", texts, labels));
    d.models->Register(sentiment);
    // A forest regressing l_tax from three numeric lineitem columns, fitted
    // on a seeded sample of the generated rows.
    TQP_ASSIGN_OR_RETURN(Tensor qty, TableColumn(*d.catalog, "lineitem", "l_quantity"));
    TQP_ASSIGN_OR_RETURN(Tensor price,
                         TableColumn(*d.catalog, "lineitem", "l_extendedprice"));
    TQP_ASSIGN_OR_RETURN(Tensor disc, TableColumn(*d.catalog, "lineitem", "l_discount"));
    TQP_ASSIGN_OR_RETURN(Tensor tax, TableColumn(*d.catalog, "lineitem", "l_tax"));
    const int64_t n = 5000;
    TQP_ASSIGN_OR_RETURN(Tensor x, Tensor::Empty(tqp::DType::kFloat64, n, 3));
    TQP_ASSIGN_OR_RETURN(Tensor y, Tensor::Empty(tqp::DType::kFloat64, n, 1));
    std::mt19937_64 rng(kModelSeed);
    std::uniform_int_distribution<int64_t> row(0, qty.rows() - 1);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t r = row(rng);
      x.mutable_data<double>()[i * 3 + 0] = qty.at<double>(r);
      x.mutable_data<double>()[i * 3 + 1] = price.at<double>(r);
      x.mutable_data<double>()[i * 3 + 2] = disc.at<double>(r);
      y.mutable_data<double>()[i] = tax.at<double>(r);
    }
    tqp::ml::RandomForestModel::FitOptions forest;
    forest.num_trees = 8;
    forest.seed = kModelSeed;
    TQP_ASSIGN_OR_RETURN(auto model,
                         tqp::ml::RandomForestModel::Fit("tax_forest", x, y, forest));
    d.models->Register(model);
    d.model_fit_s = static_cast<double>(NowNanos() - t2) * 1e-9;
    d.dbgen_s += static_cast<double>(t2 - t1) * 1e-9;
    TQP_ASSIGN_OR_RETURN(Tensor text,
                         TableColumn(*d.catalog, "amazon_reviews", "text"));
    d.model_inputs = {{"sentiment_classifier", {text}},
                      {"tax_forest", {qty, price, disc}}};
  }
  d.total_s = static_cast<double>(NowNanos() - t0) * 1e-9;
  return d;
}

Result<std::vector<Statement>> WorkloadStatements(const WorkloadSpec& spec,
                                                  uint64_t seed) {
  if (spec.predict) {
    return std::vector<Statement>{
        {0, kSentimentSql}, {0, kSentimentFilterSql}, {0, kForestSql}};
  }
  if (spec.kind == Kind::kScheduled) {
    return ParameterVariants(spec.templates, spec.per_template);
  }
  // Power test: every query once, in a seeded order.
  std::vector<Statement> out;
  for (int q : spec.templates) {
    TQP_ASSIGN_OR_RETURN(std::string sql, tqp::tpch::QueryText(q));
    out.push_back({q, sql});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::string StatementLabel(const Statement& s) {
  if (s.query > 0) return "Q" + std::to_string(s.query);
  if (s.sql == kSentimentSql) return "sentiment";
  return s.sql == kSentimentFilterSql ? "sentiment_filter" : "forest_filter";
}

// ------------------------------------------------------------------ run --

/// State shared by every workload: correctness gate, counts and metrics.
struct Run {
  const WorkloadSpec* spec = nullptr;
  Args args;
  SpanRecorder* spans = nullptr;  // null in the untraced run
  Dataset data;
  std::vector<Statement> statements;
  std::vector<Table> expected;  // oracle result per statement
  MetricSink metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  // Set when scheduled queries stopped making progress: the engine's pool
  // is wedged, so nothing more can run in this process.
  bool stalled = false;
  std::vector<double> setup_s, dbgen_s, model_fit_s;

  void Check(size_t stmt, const Result<Table>& result) {
    if (!result.ok()) return;
    const Status st = tqp::TablesEqualUnordered(expected[stmt], *result);
    if (!st.ok()) {
      if (++mismatches <= 5) {
        std::fprintf(stderr, "MISMATCH vs Volcano oracle (%s): %s\n",
                     StatementLabel(statements[stmt]).c_str(), st.ToString().c_str());
      }
    }
  }
  void CountOutcome(const Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) {
      if (++failed <= 5) {
        std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), st.ToString().c_str());
      }
    }
  }
};

double Ms(int64_t nanos) { return static_cast<double>(nanos) * 1e-6; }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Per-layer metrics every workload reports; a layer a workload does not
// exercise reads 0.
struct LayerMetrics {
  std::vector<double> plan_us, compile_us, collect_us;
  int64_t program_nodes = 0;
  std::map<std::string, std::vector<double>> run_ms;  // warm, by statement label
  std::vector<double> first_run_extra_ms;
  EngineCounters counters;  // summed over the measured executions
  int64_t measured_queries = 0;
  double peak_live_mb = 0;
  double faulted_mb = 0;  // per query, from the QueryScope probe
  std::vector<double> queue_ms, sched_compile_ms, sched_exec_ms;
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  int64_t distinct = 0, submitted = 0;
  double predict_ns_row = 0, ml_share = 0, ml_query_ms = 0;
  double overhead_pct = 0;
};

// ------------------------------------------------------- kernel probes --

/// Times the public kernels the compiler lowers joins, sorts and group-bys
/// to, on lineitem/orders columns of the workload's own size, against a
/// memcpy of the same buffer.
Status ProbeKernels(Run* run, MetricSink* out) {
  const tqp::Catalog& cat = *run->data.catalog;
  TQP_ASSIGN_OR_RETURN(Tensor lkey, TableColumn(cat, "lineitem", "l_orderkey"));
  TQP_ASSIGN_OR_RETURN(Tensor lpart, TableColumn(cat, "lineitem", "l_partkey"));
  TQP_ASSIGN_OR_RETURN(Tensor price, TableColumn(cat, "lineitem", "l_extendedprice"));
  TQP_ASSIGN_OR_RETURN(Tensor okey, TableColumn(cat, "orders", "o_orderkey"));
  const int64_t n = lkey.rows();
  TQP_ASSIGN_OR_RETURN(Tensor perm, tqp::kernels::ArgsortRows(lpart));
  // Segment ids of the (sorted) order keys: one segment per order.
  TQP_ASSIGN_OR_RETURN(Tensor seg, Tensor::Empty(tqp::DType::kInt64, n, 1));
  int64_t segments = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0 && lkey.at<int64_t>(i) != lkey.at<int64_t>(i - 1)) ++segments;
    seg.mutable_data<int64_t>()[i] = segments;
  }
  ++segments;
  std::vector<uint8_t> dst(static_cast<size_t>(n) * sizeof(double));
  auto time_ns_row = [&](const char* name, const std::function<Status()>& fn) {
    std::vector<double> samples;
    Status st;
    for (int rep = 0; rep < 5 && st.ok(); ++rep) {
      ScopedSpan span(run->spans, "kernel");
      const int64_t t0 = NowNanos();
      st = fn();
      samples.push_back(static_cast<double>(NowNanos() - t0) / static_cast<double>(n));
    }
    if (!st.ok()) std::fprintf(stderr, "kernel %s: %s\n", name, st.ToString().c_str());
    return Median(samples);
  };
  volatile uint8_t sink = 0;  // keeps the copy observable
  const double memcpy_ns = time_ns_row("memcpy", [&] {
    std::memcpy(dst.data(), price.data<double>(), dst.size());
    sink = sink ^ dst[dst.size() / 2];
    return Status::OK();
  });
  const std::vector<std::pair<const char*, std::function<Status()>>> kernels = {
      {"argsort", [&] { return tqp::kernels::ArgsortRows(lpart).status(); }},
      {"gather", [&] { return tqp::kernels::Gather(price, perm).status(); }},
      {"segmented_reduce",
       [&] {
         return tqp::kernels::SegmentedReduce(tqp::ReduceOpKind::kSum, price, seg,
                                              segments)
             .status();
       }},
      {"sort_merge_join",
       [&] { return tqp::op::SortMergeJoinIndices(lkey, okey).status(); }},
      {"hash_join", [&] { return tqp::op::HashJoinIndices(lkey, okey).status(); }},
  };
  out->Add("kernels.rows", static_cast<double>(n), "count");
  out->Add("kernels.memcpy_ns_row", memcpy_ns, "ns");
  for (const auto& [name, fn] : kernels) {
    const double ns = time_ns_row(name, fn);
    out->Add(std::string("kernels.") + name + "_ns_row", ns, "ns");
    out->Add(std::string("kernels.") + name + "_x_memcpy", ns / memcpy_ns, "ratio");
  }
  return Status::OK();
}

/// Model::PredictBatch on the workload's own PREDICT inputs.
void ProbeModels(Run* run, LayerMetrics* lm) {
  double nanos = 0, rows = 0;
  for (const ModelInput& in : run->data.model_inputs) {
    auto model = run->data.models->Get(in.model);
    if (!model.ok()) continue;
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(run->spans, "predict_batch");
      const int64_t t0 = NowNanos();
      auto out = (*model)->PredictBatch(in.args);
      samples.push_back(static_cast<double>(NowNanos() - t0));
      if (!out.ok()) std::fprintf(stderr, "PredictBatch: %s\n", out.status().ToString().c_str());
    }
    nanos += Median(samples);
    rows += static_cast<double>(in.args.front().rows());
  }
  if (rows == 0) return;
  lm->predict_ns_row = nanos / rows;
  double query_ms = 0;
  for (const auto& [label, v] : lm->run_ms) query_ms += Median(v);
  lm->ml_query_ms = query_ms;
  if (query_ms > 0) lm->ml_share = Ms(static_cast<int64_t>(nanos)) / query_ms;
}

// ------------------------------------------------------ serial workloads --

/// The two halves of QueryCompiler::CompileSql, PlanQuery and Compile, each
/// in its own span and timed into `lm`; traced runs call this instead.
Result<tqp::CompiledQuery> TracedCompile(Run* run, LayerMetrics* lm,
                                         const std::string& sql,
                                         const tqp::CompileOptions& options,
                                         int64_t query_id) {
  Result<tqp::PlanPtr> plan = Status::Invalid("unset");
  {
    ScopedSpan span(run->spans, "plan", query_id);
    const int64_t a = NowNanos();
    plan = tqp::PlanQuery(sql, *run->data.catalog, {}, run->data.models.get());
    lm->plan_us.push_back(static_cast<double>(NowNanos() - a) * 1e-3);
  }
  TQP_RETURN_NOT_OK(plan.status());
  ScopedSpan span(run->spans, "compile", query_id);
  const int64_t a = NowNanos();
  Result<tqp::CompiledQuery> cq =
      tqp::QueryCompiler(run->data.models.get()).Compile(*plan, options);
  lm->compile_us.push_back(static_cast<double>(NowNanos() - a) * 1e-3);
  return cq;
}

/// One client in a closed loop: `cold_reps` cold passes compile and execute
/// every statement, alternating with warm passes that execute the latest
/// compilations; warm passes continue until the run's time is spent (at
/// least `min_warm_passes`).
Status RunSerial(Run* run, LayerMetrics* lm) {
  const tqp::Catalog& cat = *run->data.catalog;
  const tqp::QueryCompiler compiler(run->data.models.get());
  const size_t n = run->statements.size();
  std::vector<std::vector<double>> cold_ms(n), warm_ms(n), warm_untraced_ms(n),
      traced_query_ms(n), cold_run_ms(n);
  std::vector<double> all_ms;
  std::vector<std::unique_ptr<tqp::CompiledQuery>> compiled(n);
  SpanRecorder* spans = run->spans;
  int64_t query_id = 0;
  const int64_t start = NowNanos();

  // A cold pass compiles every statement afresh and runs it once; a warm
  // pass runs the latest compilations again.
  auto cold_pass = [&](int rep) {
    for (size_t i = 0; i < n; ++i) {
      const Statement& s = run->statements[i];
      Result<tqp::CompiledQuery> cq = Status::Invalid("unset");
      Result<Table> result = Status::Invalid("unset");
      const int64_t t0 = NowNanos();
      if (spans == nullptr) {
        cq = compiler.CompileSql(s.sql, cat);
        if (cq.ok()) result = cq->Run(cat);
      } else {
        ScopedSpan q(spans, "query", ++query_id);
        cq = TracedCompile(run, lm, s.sql, tqp::CompileOptions{}, query_id);
        if (cq.ok()) {
          Result<std::vector<Tensor>> inputs = Status::Invalid("unset");
          {
            ScopedSpan span(spans, "collect_inputs", query_id);
            inputs = cq->CollectInputs(cat);
          }
          if (inputs.ok()) {
            ScopedSpan span(spans, "run", query_id);
            const int64_t a = NowNanos();
            result = cq->RunWithInputs(*inputs);
            cold_run_ms[i].push_back(Ms(NowNanos() - a));
          } else {
            result = inputs.status();
          }
        }
      }
      const double ms = Ms(NowNanos() - t0);
      run->CountOutcome(cq.ok() ? result.status() : cq.status(), StatementLabel(s));
      if (!cq.ok() || !result.ok()) continue;
      cold_ms[i].push_back(ms);
      all_ms.push_back(ms);
      run->Check(i, result);
      if (rep == 0 && spans != nullptr) lm->program_nodes += cq->program().num_nodes();
      compiled[i] = std::make_unique<tqp::CompiledQuery>(std::move(cq).ValueOrDie());
    }
  };
  auto warm_pass = [&] {
    for (size_t i = 0; i < n; ++i) {
      if (compiled[i] == nullptr) continue;
      const tqp::CompiledQuery& cq = *compiled[i];
      const int64_t t0 = NowNanos();
      Result<Table> result = cq.Run(cat);
      const double ms = Ms(NowNanos() - t0);
      run->CountOutcome(result.status(), StatementLabel(run->statements[i]));
      if (!result.ok()) continue;
      run->Check(i, result);
      if (spans == nullptr) {
        warm_ms[i].push_back(ms);
        all_ms.push_back(ms);
        continue;
      }
      // Traced: the same execution again, split into its calls, with the
      // engine's counters read around it. The untraced execution above is
      // the reference for the tracing overhead.
      warm_untraced_ms[i].push_back(ms);
      tqp::BufferPool::Global()->ResetPeak();
      const EngineCounters before = EngineCounters::Take();
      const int64_t q0 = NowNanos();
      {
        ScopedSpan q(spans, "query", ++query_id);
        Result<std::vector<Tensor>> inputs = Status::Invalid("unset");
        {
          ScopedSpan span(spans, "collect_inputs", query_id);
          const int64_t a = NowNanos();
          inputs = cq.CollectInputs(cat);
          lm->collect_us.push_back(static_cast<double>(NowNanos() - a) * 1e-3);
        }
        if (inputs.ok()) {
          ScopedSpan span(spans, "run", query_id);
          const int64_t a = NowNanos();
          result = cq.RunWithInputs(*inputs);
          lm->run_ms[StatementLabel(run->statements[i])].push_back(Ms(NowNanos() - a));
        } else {
          result = inputs.status();
        }
      }
      traced_query_ms[i].push_back(Ms(NowNanos() - q0));
      const EngineCounters after = EngineCounters::Take();
      lm->counters += after - before;
      ++lm->measured_queries;
      lm->peak_live_mb = std::max(
          lm->peak_live_mb,
          static_cast<double>(tqp::BufferPool::Global()->stats().peak_live_bytes -
                              before.live_bytes) /
              1048576.0);
      run->CountOutcome(result.status(), StatementLabel(run->statements[i]));
      run->Check(i, result);
    }
  };

  // Cold and warm passes alternate while cold samples are due, so both see
  // the same conditions; then warm passes run until the time is spent.
  const int64_t budget = static_cast<int64_t>(run->args.seconds * 1e9);
  int64_t last_warm_pass = 0;
  for (int cold = 0, warm = 0;;) {
    const int64_t now = NowNanos();
    if (cold < run->spec->cold_reps && cold <= warm) {
      cold_pass(cold++);
      continue;
    }
    if (warm >= run->spec->min_warm_passes && now - start + last_warm_pass > budget) break;
    warm_pass();
    ++warm;
    last_warm_pass = NowNanos() - now;
  }
  const double elapsed_s = static_cast<double>(NowNanos() - start) * 1e-9;

  if (spans != nullptr) {
    std::vector<double> traced, untraced;
    for (size_t i = 0; i < n; ++i) {
      if (traced_query_ms[i].empty()) continue;
      traced.push_back(Median(traced_query_ms[i]));
      untraced.push_back(Median(warm_untraced_ms[i]));
      if (!cold_run_ms[i].empty()) {
        lm->first_run_extra_ms.push_back(
            Median(cold_run_ms[i]) -
            Median(lm->run_ms[StatementLabel(run->statements[i])]));
      }
    }
    lm->overhead_pct = 100.0 * (GeoMean(traced) / GeoMean(untraced) - 1.0);
    return Status::OK();
  }

  std::vector<double> warm_medians, cold_medians;
  double pass_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    if (warm_ms[i].empty() || cold_ms[i].empty()) continue;
    warm_medians.push_back(Median(warm_ms[i]));
    cold_medians.push_back(Median(cold_ms[i]));
    pass_ms += warm_medians.back();
  }
  MetricSink& m = run->metrics;
  m.Add("warm_geomean_ms", GeoMean(warm_medians), "ms");
  m.Add("cold_geomean_ms", GeoMean(cold_medians), "ms");
  m.Add("pass_s", pass_ms * 1e-3, "s");
  m.Add("throughput_qps", static_cast<double>(all_ms.size()) / elapsed_s, "1/s");
  m.Add("latency_p50_ms", Quantile(all_ms, 0.5), "ms");
  m.Add("latency_p95_ms", Quantile(all_ms, 0.95), "ms");
  return Status::OK();
}

// --------------------------------------------------- scheduled workloads --

struct Completion {
  size_t stmt = 0;
  double latency_ms = 0;
  bool traced = false;
  tqp::runtime::QueryOutcome outcome;
};

/// Closed loop over a QueryScheduler: one generator thread keeps
/// `outstanding` queries in flight and submits the next as soon as one
/// resolves. `next` yields statement indices (false when exhausted);
/// `traced()` tells whether the next submission is traced. Runs until
/// `deadline` (0 = until `next` is exhausted), then drains.
void ClosedLoop(Run* run, tqp::runtime::QueryScheduler* sched, int outstanding,
                const std::function<bool(size_t*)>& next, int64_t deadline,
                const std::function<bool()>& traced,
                std::vector<Completion>* done) {
  struct InFlight {
    size_t stmt;
    int64_t submit_ns;
    bool traced;
    std::future<tqp::runtime::QueryOutcome> future;
  };
  std::vector<InFlight> in_flight;
  bool exhausted = false;
  int64_t last_progress = NowNanos();
  auto complete = [&](InFlight& f) {
    Completion c;
    c.outcome = f.future.get();
    const int64_t end = NowNanos();
    c.stmt = f.stmt;
    c.latency_ms = Ms(end - f.submit_ns);
    c.traced = f.traced;
    if (f.traced && run->spans != nullptr) {
      run->spans->Add("submit", f.submit_ns, end, static_cast<int64_t>(done->size() + 1));
    }
    run->CountOutcome(c.outcome.status, StatementLabel(run->statements[f.stmt]));
    done->push_back(std::move(c));
  };
  while (true) {
    while (!exhausted && static_cast<int>(in_flight.size()) < outstanding &&
           (deadline == 0 || NowNanos() < deadline)) {
      size_t stmt = 0;
      if (!next(&stmt)) {
        exhausted = true;
        break;
      }
      const int64_t t0 = NowNanos();
      auto future = sched->Submit(run->statements[stmt].sql);
      if (!future.ok()) {  // rejected at admission
        run->CountOutcome(future.status(), StatementLabel(run->statements[stmt]));
        continue;
      }
      in_flight.push_back({stmt, t0, traced(), std::move(future).ValueOrDie()});
    }
    if (in_flight.empty()) break;
    bool any = false;
    if (NowNanos() - last_progress > kStallNanos) {
      // No query finished for kStallNanos: count what is in flight as
      // failed and stop. The futures are abandoned, not waited for.
      run->stalled = true;
      for (const InFlight& f : in_flight) {
        const std::string& sql = run->statements[f.stmt].sql;
        run->CountOutcome(Status::Invalid("no progress for 10 s (stalled): " +
                                          sql.substr(0, sql.find("FROM"))),
                          StatementLabel(run->statements[f.stmt]));
      }
      return;
    }
    for (size_t i = 0; i < in_flight.size();) {
      if (in_flight[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(in_flight[i]);
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
        any = true;
        last_progress = NowNanos();
      } else {
        ++i;
      }
    }
    if (!any) in_flight.front().future.wait_for(std::chrono::microseconds(200));
  }
}

Status RunScheduled(Run* run, LayerMetrics* lm) {
  tqp::runtime::SchedulerOptions options;
  options.compile.memory_budget_bytes = run->spec->budget_bytes;
  auto owned = std::make_unique<tqp::runtime::QueryScheduler>(run->data.catalog.get(),
                                                              options);
  tqp::runtime::QueryScheduler& sched = *owned;
  // A stalled scheduler never drains, so its destructor would block forever;
  // after a stall it is left to process exit.
  struct ReleaseIfStalled {
    Run* run;
    std::unique_ptr<tqp::runtime::QueryScheduler>* owned;
    ~ReleaseIfStalled() {
      if (run->stalled) static_cast<void>(owned->release());
    }
  } release_if_stalled{run, &owned};
  const size_t n = run->statements.size();
  std::vector<Completion> done;

  // Warm-up: every statement once, so the plan cache and pool reach steady
  // state. Its plan-cache misses are cold samples; nothing else is used.
  size_t cursor = 0;
  ClosedLoop(
      run, &sched, kOutstanding,
      [&](size_t* s) {
        if (cursor >= n) return false;
        *s = cursor++;
        return true;
      },
      0, [] { return false; }, &done);

  std::mt19937_64 rng(run->args.seed * 0x9E3779B97F4A7C15ull + 1);
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  const int64_t window_start = NowNanos();
  const int64_t window = static_cast<int64_t>(run->args.seconds * 1e9);
  const EngineCounters before = EngineCounters::Take();
  // Traced runs trace every other submission; the difference in median
  // latency between the interleaved halves is the tracing overhead.
  int64_t submissions = 0;
  auto traced = [&] { return run->spans != nullptr && ++submissions % 2 == 0; };
  const size_t first_measured = done.size();
  if (!run->stalled) {
    ClosedLoop(
        run, &sched, kOutstanding,
        [&](size_t* s) {
          *s = pick(rng);
          return true;
        },
        window_start + window, traced, &done);
  }
  const int64_t window_end = NowNanos();
  const EngineCounters after = EngineCounters::Take();

  for (const Completion& c : done) {
    if (c.outcome.status.ok()) run->Check(c.stmt, c.outcome.table);
  }

  // Latency by template and plan-cache outcome.
  std::vector<double> window_ms;
  std::map<int, std::vector<double>> traced_ms, untraced_ms;  // by template
  std::map<int, std::vector<double>> hit_ms, miss_ms;
  int64_t completed = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    const Completion& c = done[i];
    if (!c.outcome.status.ok()) continue;
    const int q = run->statements[c.stmt].query;
    const tqp::runtime::QueryStats& st = c.outcome.stats;
    if (!st.cache_hit) {
      miss_ms[q].push_back(c.latency_ms);
      lm->sched_compile_ms.push_back(Ms(st.compile_nanos));
    }
    if (i < first_measured) continue;
    ++completed;
    window_ms.push_back(c.latency_ms);
    (c.traced ? traced_ms : untraced_ms)[q].push_back(c.latency_ms);
    if (st.cache_hit) {
      hit_ms[q].push_back(c.latency_ms);
      lm->run_ms["Q" + std::to_string(q)].push_back(Ms(st.exec_nanos));
    }
    lm->queue_ms.push_back(Ms(st.queue_nanos));
    lm->sched_exec_ms.push_back(Ms(st.exec_nanos));
    lm->peak_live_mb =
        std::max(lm->peak_live_mb, static_cast<double>(st.peak_memory_bytes) / 1048576.0);
  }

  if (run->spans != nullptr && !run->stalled) {
    lm->counters = after - before;
    lm->measured_queries = completed;
    // Plan-cache figures cover every submission, warm-up included.
    lm->cache_hits = sched.plan_cache().hits();
    lm->cache_misses = sched.plan_cache().misses();
    // Every miss inserts one plan; what no longer fits was evicted.
    lm->cache_evictions = std::max<int64_t>(
        0, sched.plan_cache().misses() - static_cast<int64_t>(sched.plan_cache().size()));
    lm->distinct = static_cast<int64_t>(n);
    lm->submitted = static_cast<int64_t>(done.size());
    std::vector<double> traced, untraced;
    for (const auto& [q, v] : traced_ms) {
      if (untraced_ms.count(q) == 0) continue;
      traced.push_back(Median(v));
      untraced.push_back(Median(untraced_ms[q]));
    }
    if (!traced.empty()) {
      lm->overhead_pct = 100.0 * (GeoMean(traced) / GeoMean(untraced) - 1.0);
    }
    // Layer probes outside the loop: the frontend and compiler on every
    // statement of the stream, with the scheduler's compile options.
    tqp::CompileOptions compile = tqp::runtime::SchedulerOptions{}.compile;
    compile.memory_budget_bytes = run->spec->budget_bytes;
    std::vector<double> faulted_mb;
    for (size_t i = 0; i < n; ++i) {
      const Statement& s = run->statements[i];
      const int64_t query_id = -static_cast<int64_t>(i) - 1;
      ScopedSpan q(run->spans, "query", query_id);
      Result<tqp::CompiledQuery> cq = TracedCompile(run, lm, s.sql, compile, query_id);
      if (!cq.ok()) return cq.status();
      lm->program_nodes += cq->program().num_nodes();
      {
        ScopedSpan span(run->spans, "collect_inputs", query_id);
        const int64_t a = NowNanos();
        TQP_RETURN_NOT_OK(cq->CollectInputs(*run->data.catalog).status());
        lm->collect_us.push_back(static_cast<double>(NowNanos() - a) * 1e-3);
      }
      // The first statement of each template then runs twice, alone, each
      // run under its own QueryScope as the scheduler does: first run minus
      // second is the first-run cost, and the scope's ledger gives the bytes
      // read back from disk, which no public counter reports.
      if (i > 0 && run->statements[i - 1].query == s.query) continue;
      double run_ms[2] = {0, 0};
      for (int rep = 0; rep < 2; ++rep) {
        ScopedSpan span(run->spans, "scope_probe", query_id);
        tqp::BufferPool::QueryScope scope(run->spec->budget_bytes);
        tqp::BufferPool::QueryScope::Attach attach(&scope);
        const int64_t a = NowNanos();
        Result<Table> result = cq->Run(*run->data.catalog);
        run_ms[rep] = Ms(NowNanos() - a);
        run->CountOutcome(result.status(), StatementLabel(s));
        run->Check(i, result);
        if (rep == 1) {
          faulted_mb.push_back(static_cast<double>(scope.stats().faulted_bytes) /
                               1048576.0);
        }
      }
      lm->first_run_extra_ms.push_back(run_ms[0] - run_ms[1]);
    }
    lm->faulted_mb = Mean(faulted_mb);
    return Status::OK();
  }

  if (run->spans != nullptr) return Status::OK();
  const double window_s = static_cast<double>(window_end - window_start) * 1e-9;
  std::vector<double> warm_medians, cold_medians;
  double pass_ms = 0;
  for (const auto& [q, v] : hit_ms) {
    warm_medians.push_back(Median(v));
    pass_ms += warm_medians.back();
  }
  for (const auto& [q, v] : miss_ms) cold_medians.push_back(Median(v));
  MetricSink& m = run->metrics;
  m.Add("warm_geomean_ms", GeoMean(warm_medians), "ms");
  m.Add("cold_geomean_ms", GeoMean(cold_medians), "ms");
  m.Add("pass_s", pass_ms * 1e-3, "s");
  m.Add("throughput_qps", static_cast<double>(completed) / window_s, "1/s");
  m.Add("latency_p50_ms", Quantile(window_ms, 0.5), "ms");
  m.Add("latency_p95_ms", Quantile(window_ms, 0.95), "ms");
  return Status::OK();
}

// --------------------------------------------------------------- report --

void ReportLayers(Run* run, const LayerMetrics& lm, MetricSink* m) {
  const double q = static_cast<double>(std::max<int64_t>(1, lm.measured_queries));
  const EngineCounters& c = lm.counters;
  m->Add("setup.dbgen_s", Median(run->dbgen_s), "s");
  m->Add("setup.model_fit_s", Median(run->model_fit_s), "s");
  m->Add("plan.plan_us", Mean(lm.plan_us), "us");
  m->Add("compile.compile_us", Mean(lm.compile_us), "us");
  m->Add("compile.program_nodes", static_cast<double>(lm.program_nodes), "count");
  const double fused = static_cast<double>(c.expr_simd + c.expr_interp);
  m->Add("expr.simd_share", fused > 0 ? static_cast<double>(c.expr_simd) / fused : 0,
         "ratio");
  m->Add("expr.fused_runs_per_query", fused / q, "count");
  m->Add("exec.collect_inputs_us", Mean(lm.collect_us), "us");
  for (int t : tqp::tpch::SupportedQueries()) {
    const auto it = lm.run_ms.find("Q" + std::to_string(t));
    m->Add("exec.run_ms.Q" + std::to_string(t),
           it == lm.run_ms.end() ? 0 : Median(it->second), "ms");
  }
  for (const char* label : {"sentiment", "sentiment_filter", "forest_filter"}) {
    const auto it = lm.run_ms.find(label);
    m->Add(std::string("exec.run_ms.") + label,
           it == lm.run_ms.end() ? 0 : Median(it->second), "ms");
  }
  m->Add("exec.first_run_extra_ms", Mean(lm.first_run_extra_ms), "ms");
  m->Add("tensor.allocs_per_query", static_cast<double>(c.allocs) / q, "count");
  m->Add("tensor.recycle_hit_ratio",
         c.pooled_allocs > 0 ? static_cast<double>(c.pool_hits) /
                                   static_cast<double>(c.pooled_allocs)
                             : 0,
         "ratio");
  m->Add("tensor.pooled_allocs_per_query", static_cast<double>(c.pooled_allocs) / q,
         "count");
  m->Add("tensor.peak_live_mb", lm.peak_live_mb, "MB");
  m->Add("tensor.spilled_mb", static_cast<double>(c.spilled_bytes) / 1048576.0 / q, "MB");
  m->Add("tensor.faulted_mb", lm.faulted_mb, "MB");
  m->Add("tensor.spill_events", static_cast<double>(c.spill_events) / q, "count");
  m->Add("tensor.fault_events", static_cast<double>(c.fault_events) / q, "count");
  m->Add("breaker.invocations", static_cast<double>(c.breaker_invocations) / q, "count");
  m->Add("breaker.partitions", static_cast<double>(c.breaker_partitions) / q, "count");
  m->Add("breaker.fallbacks", static_cast<double>(c.breaker_fallbacks) / q, "count");
  m->Add("sched.queue_ms", Median(lm.queue_ms), "ms");
  m->Add("sched.compile_ms", Median(lm.sched_compile_ms), "ms");
  m->Add("sched.exec_ms", Median(lm.sched_exec_ms), "ms");
  const double lookups = static_cast<double>(lm.cache_hits + lm.cache_misses);
  m->Add("plan_cache.hit_ratio",
         lookups > 0 ? static_cast<double>(lm.cache_hits) / lookups : 0, "ratio");
  m->Add("plan_cache.lookups", lookups, "count");
  m->Add("plan_cache.hits", static_cast<double>(lm.cache_hits), "count");
  m->Add("plan_cache.misses", static_cast<double>(lm.cache_misses), "count");
  m->Add("plan_cache.evictions", static_cast<double>(lm.cache_evictions), "count");
  m->Add("stream.distinct_statements", static_cast<double>(lm.distinct), "count");
  m->Add("stream.submitted", static_cast<double>(lm.submitted), "count");
  m->Add("pool.tasks_per_query", static_cast<double>(c.tasks) / q, "count");
  m->Add("pool.steals_per_query", static_cast<double>(c.steals) / q, "count");
  m->Add("steps.per_query", static_cast<double>(c.steps) / q, "count");
  m->Add("morsels.per_query", static_cast<double>(c.morsels) / q, "count");
  m->Add("ml.predict_batch_ns_row", lm.predict_ns_row, "ns");
  m->Add("ml.share_of_query", lm.ml_share, "ratio");
  m->Add("ml.query_ms", lm.ml_query_ms, "ms");
  m->Add("trace.overhead_pct", lm.overhead_pct, "%");
  if (run->spans != nullptr) {
    m->Add("trace.spans", static_cast<double>(run->spans->size()), "count");
    const auto self = run->spans->SelfNanos();
    for (const char* name : {"query", "plan", "compile", "collect_inputs", "run",
                             "submit", "scope_probe", "kernel", "predict_batch",
                             "dbgen", "model_fit"}) {
      const auto it = self.find(name);
      m->Add(std::string("self.") + name + "_ms",
             it == self.end() ? 0 : Ms(it->second), "ms");
    }
  }
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string HostRecord(const Args& args, const WorkloadSpec& spec) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string spill_dir = tmp != nullptr ? tmp : "/tmp";
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"host\": {\"nproc\": %u, \"pool_threads\": %d, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"spill_dir\": \"%s\", "
      "\"spill_fs\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"scale_factor\": %g, \"seconds\": %g, \"trace\": %d}}",
      std::thread::hardware_concurrency(),
      tqp::runtime::ThreadPool::Global()->num_threads(),
      tqp::kernels::simd::SimdLevelName(tqp::kernels::simd::ActiveLevel()),
      PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(spill_dir).c_str(), FilesystemOf(spill_dir).c_str(),
      spec.name, static_cast<unsigned long long>(args.seed), spec.scale_factor,
      args.seconds, args.trace ? 1 : 0);
  return buf;
}

// ----------------------------------------------------------------- main --

int Main(int argc, char** argv) {
  for (const char* var : kLockedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set and would change what is measured\n",
                   var);
      return 2;
    }
  }
  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "%s\n", args_or.status().ToString().c_str());
    return 2;
  }
  Run run;
  run.args = *args_or;
  for (const WorkloadSpec& w : Workloads()) {
    if (run.args.workload == w.name) run.spec = &w;
  }
  if (run.spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", run.args.workload.c_str());
    return 2;
  }
  SpanRecorder recorder;
  if (run.args.trace && !run.args.prepare) run.spans = &recorder;
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  };

  auto statements = WorkloadStatements(*run.spec, run.args.seed);
  if (!statements.ok()) return fail(statements.status());
  run.statements = std::move(statements).ValueOrDie();
  const std::string data_id = DataId(*run.spec, run.args.seed);
  const OracleCache oracle(run.args.cache_dir + "/oracle");
  if (run.args.prepare &&
      std::all_of(run.statements.begin(), run.statements.end(),
                  [&](const Statement& s) { return oracle.Has(data_id, s.sql); })) {
    return 0;
  }

  // Set-up, several times; the median is setup_s and the last data set is
  // the one measured. Earlier ones are freed before the next is made.
  const int64_t setup_start = NowNanos();
  for (int rep = 0; rep < (run.args.prepare ? 1 : kMaxSetupReps); ++rep) {
    if (!run.args.prepare && rep >= kMinSetupReps &&
        NowNanos() - setup_start > kSetupBudgetNanos) {
      break;
    }
    run.data = Dataset();
    auto data = SetUp(*run.spec, run.args.seed, run.spans);
    if (!data.ok()) return fail(data.status());
    run.data = std::move(data).ValueOrDie();
    run.setup_s.push_back(run.data.total_s);
    run.dbgen_s.push_back(run.data.dbgen_s);
    run.model_fit_s.push_back(run.data.model_fit_s);
  }
  if (run.args.prepare) {
    const tqp::VolcanoEngine volcano(run.data.catalog.get(), run.data.models.get());
    for (const Statement& s : run.statements) {
      if (oracle.Has(data_id, s.sql)) continue;
      auto result = volcano.ExecuteSql(s.sql);
      if (!result.ok()) return fail(result.status());
      Status st = oracle.Store(data_id, s.sql, *result);
      if (!st.ok()) return fail(st);
    }
    return 0;
  }
  for (const Statement& s : run.statements) {
    auto expected = oracle.Load(data_id, s.sql);
    if (!expected.ok()) return fail(expected.status());
    run.expected.push_back(std::move(expected).ValueOrDie());
  }

  std::printf("%s\n", HostRecord(run.args, *run.spec).c_str());
  LayerMetrics lm;
  const Status st = run.spec->kind == Kind::kSerial ? RunSerial(&run, &lm)
                                                    : RunScheduled(&run, &lm);
  if (!st.ok()) return fail(st);

  MetricSink* m = &run.metrics;
  if (run.spans == nullptr) {
    m->Add("setup_s", Median(run.setup_s), "s");
    m->Add("peak_rss_mb", PeakRssMb(), "MB");
    m->Add("success_ratio",
           run.attempted > 0
               ? static_cast<double>(run.attempted - run.failed) /
                     static_cast<double>(run.attempted)
               : 0,
           "ratio");
  } else {
    Status probe = ProbeKernels(&run, m);
    if (!probe.ok()) return fail(probe);
    ProbeModels(&run, &lm);
    ReportLayers(&run, lm, m);
    const std::string path = run.args.cache_dir + "/trace_" + run.spec->name + "_" +
                             std::to_string(run.args.seed) + ".json";
    Status written = recorder.WriteChromeTrace(path);
    if (!written.ok()) return fail(written);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  if (run.mismatches > 0) {
    std::fprintf(stderr, "%lld result(s) differ from the Volcano oracle\n",
                 static_cast<long long>(run.mismatches));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              run.mismatches == 0 ? "true" : "false",
              static_cast<long long>(run.attempted), static_cast<long long>(run.failed),
              m->Json().c_str());
  std::fflush(stdout);
  if (run.stalled) {
    std::fprintf(stderr, "scheduled queries stalled; exiting without draining\n");
    std::fflush(stderr);
    std::_Exit(0);  // the wedged pool threads would block normal exit
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
