// Integration tests: every supported TPC-H query runs through the full stack
// (SQL -> bind -> optimize -> tensor program -> executor) on every backend,
// and the result must match the row-oriented Volcano oracle and the columnar
// engine exactly (up to row order).

#include <gtest/gtest.h>

#include <set>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace tqp {
namespace {

class TpchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;  // ~60k lineitems: fast but non-trivial
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* TpchFixture::catalog_ = nullptr;

class TpchQueryTest : public TpchFixture,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryTest, AllBackendsMatchOracle) {
  const int q = GetParam();
  auto sql_or = tpch::QueryText(q);
  ASSERT_TRUE(sql_or.ok()) << sql_or.status().ToString();
  const std::string sql = sql_or.ValueOrDie();

  VolcanoEngine volcano(catalog_);
  auto oracle_or = volcano.ExecuteSql(sql);
  ASSERT_TRUE(oracle_or.ok()) << "volcano failed: " << oracle_or.status().ToString();
  Table oracle = std::move(oracle_or).ValueOrDie();
  // The TPC-H answer must be non-trivial at this scale for the test to mean
  // anything. Queries with very tight compound selectivity (part-size x
  // type x container x region picks ~1 part at this SF) may legitimately
  // come up empty; the differential check still exercises their plans.
  static const std::set<int> kMayBeEmpty = {2, 8, 17, 19, 20, 21};
  if (kMayBeEmpty.find(q) == kMayBeEmpty.end()) {
    EXPECT_GT(oracle.num_rows(), 0) << "Q" << q << " selected nothing";
  }

  QueryCompiler compiler;
  for (ExecutorTarget target : {ExecutorTarget::kEager, ExecutorTarget::kStatic,
                                ExecutorTarget::kInterp,
                                ExecutorTarget::kParallel,
                                ExecutorTarget::kPipelined}) {
    for (DeviceKind device : {DeviceKind::kCpu, DeviceKind::kCudaSim}) {
      if (target == ExecutorTarget::kInterp && device == DeviceKind::kCudaSim) {
        continue;  // the browser backend has no GPU in the paper either
      }
      if ((target == ExecutorTarget::kParallel ||
           target == ExecutorTarget::kPipelined) &&
          device == DeviceKind::kCudaSim) {
        continue;  // the morsel runtime targets host cores, not the simulator
      }
      CompileOptions options;
      options.target = target;
      options.device = device;
      auto compiled_or = compiler.CompileSql(sql, *catalog_, options);
      ASSERT_TRUE(compiled_or.ok())
          << "Q" << q << " compile failed: " << compiled_or.status().ToString();
      auto result_or = compiled_or.ValueOrDie().Run(*catalog_);
      ASSERT_TRUE(result_or.ok())
          << "Q" << q << " " << ExecutorTargetName(target) << " failed: "
          << result_or.status().ToString();
      const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
      EXPECT_TRUE(same.ok()) << "Q" << q << " on " << ExecutorTargetName(target)
                             << "/" << DeviceKindName(device) << ": "
                             << same.ToString();
    }
  }

  // Columnar baseline, both join/agg algorithm families.
  for (JoinAlgo join : {JoinAlgo::kHash, JoinAlgo::kSortMerge}) {
    for (AggAlgo agg : {AggAlgo::kHash, AggAlgo::kSort}) {
      PhysicalOptions phys;
      phys.join_algo = join;
      phys.agg_algo = agg;
      ColumnarEngine columnar(catalog_);
      auto result_or = columnar.ExecuteSql(sql, phys);
      ASSERT_TRUE(result_or.ok()) << "Q" << q << " columnar failed: "
                                  << result_or.status().ToString();
      const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
      EXPECT_TRUE(same.ok()) << "Q" << q << " columnar: " << same.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SupportedQueries, TpchQueryTest,
                         ::testing::ValuesIn(tpch::SupportedQueries()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST_F(TpchFixture, AllTwentyTwoQueriesHaveText) {
  // The paper claims TQP "is generic enough to support the TPC-H benchmark";
  // this reproduction carries all 22 queries.
  for (int q = 1; q <= 22; ++q) {
    auto text = tpch::QueryText(q);
    EXPECT_TRUE(text.ok()) << "Q" << q << ": " << text.status().ToString();
  }
  EXPECT_EQ(tpch::SupportedQueries().size(), 22u);
}

TEST_F(TpchFixture, GeneratorRespectsRowCounts) {
  Table lineitem = catalog_->GetTable("lineitem").ValueOrDie();
  Table orders = catalog_->GetTable("orders").ValueOrDie();
  Table nation = catalog_->GetTable("nation").ValueOrDie();
  EXPECT_EQ(nation.num_rows(), 25);
  EXPECT_EQ(orders.num_rows(), tpch::BaseRowCount("orders", 0.01));
  // 1-7 lineitems per order.
  EXPECT_GE(lineitem.num_rows(), orders.num_rows());
  EXPECT_LE(lineitem.num_rows(), orders.num_rows() * 7);
}

}  // namespace
}  // namespace tqp
