// Unit + property tests for the kernel library (the PyTorch-analog layer):
// every kernel family over all dtypes, broadcasting shapes, edge cases
// (empty tensors, single rows, padded strings), and randomized invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "kernels/kernels.h"
#include "runtime/parallel_kernels.h"
#include "runtime/thread_pool.h"

namespace tqp {
namespace {

using namespace tqp::kernels;  // NOLINT: test file

// ---- Elementwise -----------------------------------------------------------

class BinaryOpDtypeTest : public ::testing::TestWithParam<DType> {};

TEST_P(BinaryOpDtypeTest, AddSubMulOnDtype) {
  const DType dt = GetParam();
  Tensor a = Tensor::Full(dt, 4, 1, 6).ValueOrDie();
  Tensor b = Tensor::Full(dt, 4, 1, 2).ValueOrDie();
  Tensor sum = BinaryOp(BinaryOpKind::kAdd, a, b).ValueOrDie();
  Tensor diff = BinaryOp(BinaryOpKind::kSub, a, b).ValueOrDie();
  Tensor prod = BinaryOp(BinaryOpKind::kMul, a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum.ScalarAsDouble(0), 8);
  EXPECT_DOUBLE_EQ(diff.ScalarAsDouble(1), 4);
  EXPECT_DOUBLE_EQ(prod.ScalarAsDouble(2), 12);
}

INSTANTIATE_TEST_SUITE_P(AllNumeric, BinaryOpDtypeTest,
                         ::testing::Values(DType::kInt32, DType::kInt64,
                                           DType::kFloat32, DType::kFloat64),
                         [](const auto& info) {
                           return DTypeName(info.param);
                         });

TEST(BinaryOpTest, IntegerDivisionTruncatesAndGuardsZero) {
  Tensor a = Tensor::FromVector<int64_t>({7, 7, 7});
  Tensor b = Tensor::FromVector<int64_t>({2, -2, 0});
  Tensor q = BinaryOp(BinaryOpKind::kDiv, a, b).ValueOrDie();
  EXPECT_EQ(q.at<int64_t>(0), 3);
  EXPECT_EQ(q.at<int64_t>(1), -3);
  EXPECT_EQ(q.at<int64_t>(2), 0);  // engine substitutes 0 for div-by-zero
}

TEST(BinaryOpTest, ScalarBroadcast) {
  Tensor a = Tensor::FromVector<double>({1, 2, 3});
  Tensor s = BinaryOpScalar(BinaryOpKind::kMul, a, Scalar(10.0)).ValueOrDie();
  EXPECT_DOUBLE_EQ(s.at<double>(2), 30.0);
}

TEST(BinaryOpTest, RowVectorBroadcast) {
  // (n x m) + (1 x m): the bias-add pattern.
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromVector2D<double>({10, 20}, 1, 2);
  Tensor out = BinaryOp(BinaryOpKind::kAdd, a, bias).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 11);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 1), 24);
}

TEST(BinaryOpTest, ColumnBroadcast) {
  // (n x m) * (n x 1).
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor col = Tensor::FromVector<double>({10, 100});
  Tensor out = BinaryOp(BinaryOpKind::kMul, a, col).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 1), 20);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 0), 300);
}

TEST(BinaryOpTest, IncompatibleShapesRejected) {
  Tensor a = Tensor::Full(DType::kFloat64, 3, 1, 0).ValueOrDie();
  Tensor b = Tensor::Full(DType::kFloat64, 4, 1, 0).ValueOrDie();
  EXPECT_FALSE(BinaryOp(BinaryOpKind::kAdd, a, b).ok());
}

TEST(BinaryOpTest, BoolArithmeticPromotesToInt) {
  Tensor a = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  Tensor b = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  Tensor out = BinaryOp(BinaryOpKind::kAdd, a, b).ValueOrDie();
  EXPECT_EQ(out.dtype(), DType::kInt32);
  EXPECT_EQ(out.at<int32_t>(0), 2);
}

TEST(CompareTest, AllOperatorsOnMixedDtypes) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2, 3});
  Tensor b = Tensor::FromVector<double>({2.0, 2.0, 2.0});
  auto check = [&](CompareOpKind op, bool r0, bool r1, bool r2) {
    Tensor m = Compare(op, a, b).ValueOrDie();
    EXPECT_EQ(m.dtype(), DType::kBool);
    EXPECT_EQ(m.at<bool>(0), r0);
    EXPECT_EQ(m.at<bool>(1), r1);
    EXPECT_EQ(m.at<bool>(2), r2);
  };
  check(CompareOpKind::kEq, false, true, false);
  check(CompareOpKind::kNe, true, false, true);
  check(CompareOpKind::kLt, true, false, false);
  check(CompareOpKind::kLe, true, true, false);
  check(CompareOpKind::kGt, false, false, true);
  check(CompareOpKind::kGe, false, true, true);
}

TEST(LogicalTest, TruthTables) {
  Tensor t = Tensor::Full(DType::kBool, 1, 1, 1).ValueOrDie();
  Tensor f = Tensor::Full(DType::kBool, 1, 1, 0).ValueOrDie();
  EXPECT_TRUE(Logical(LogicalOpKind::kAnd, t, t).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kAnd, t, f).ValueOrDie().at<bool>(0));
  EXPECT_TRUE(Logical(LogicalOpKind::kOr, f, t).ValueOrDie().at<bool>(0));
  EXPECT_TRUE(Logical(LogicalOpKind::kXor, t, f).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kXor, t, t).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kAnd, t,
                       Tensor::Full(DType::kInt32, 1, 1, 1).ValueOrDie())
                   .ok());
}

TEST(UnaryTest, MathFunctions) {
  Tensor x = Tensor::FromVector<double>({-2.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kNeg, x).ValueOrDie().at<double>(0), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kAbs, x).ValueOrDie().at<double>(0), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kSqrt, x).ValueOrDie().at<double>(2), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kRelu, x).ValueOrDie().at<double>(0), 0.0);
  EXPECT_NEAR(Unary(UnaryOpKind::kSigmoid, x).ValueOrDie().at<double>(1), 0.5,
              1e-12);
  EXPECT_NEAR(Unary(UnaryOpKind::kTanh, x).ValueOrDie().at<double>(1), 0.0, 1e-12);
  Tensor b = Tensor::Full(DType::kBool, 2, 1, 0).ValueOrDie();
  EXPECT_TRUE(Unary(UnaryOpKind::kNot, b).ValueOrDie().at<bool>(1));
}

TEST(CastTest, AllPairsPreserveValue) {
  const DType dtypes[] = {DType::kBool,    DType::kUInt8,  DType::kInt32,
                          DType::kInt64,   DType::kFloat32, DType::kFloat64};
  for (DType from : dtypes) {
    Tensor src = Tensor::Full(from, 3, 1, 1).ValueOrDie();
    for (DType to : dtypes) {
      Tensor dst = Cast(src, to).ValueOrDie();
      EXPECT_EQ(dst.dtype(), to);
      EXPECT_DOUBLE_EQ(dst.ScalarAsDouble(0), 1.0)
          << DTypeName(from) << "->" << DTypeName(to);
    }
  }
}

TEST(WhereTest, SelectsPerElement) {
  Tensor cond = Tensor::Empty(DType::kBool, 3, 1).ValueOrDie();
  cond.mutable_data<bool>()[0] = true;
  cond.mutable_data<bool>()[1] = false;
  cond.mutable_data<bool>()[2] = true;
  Tensor a = Tensor::FromVector<double>({1, 2, 3});
  Tensor b = Tensor::FromVector<double>({10, 20, 30});
  Tensor out = Where(cond, a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0), 1);
  EXPECT_DOUBLE_EQ(out.at<double>(1), 20);
  EXPECT_DOUBLE_EQ(out.at<double>(2), 3);
}

TEST(WhereTest, ScalarBranches) {
  Tensor cond = Tensor::Full(DType::kBool, 4, 1, 1).ValueOrDie();
  Tensor one = Tensor::Full(DType::kInt64, 1, 1, 1).ValueOrDie();
  Tensor zero = Tensor::Full(DType::kInt64, 1, 1, 0).ValueOrDie();
  Tensor out = Where(cond, one, zero).ValueOrDie();
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.at<int64_t>(3), 1);
}

// ---- Reductions / scans -----------------------------------------------------

TEST(ReduceTest, SumMinMaxCount) {
  Tensor x = Tensor::FromVector<double>({3, -1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kSum, x).ValueOrDie().at<double>(0), 12);
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kMin, x).ValueOrDie().at<double>(0), -1);
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kMax, x).ValueOrDie().at<double>(0), 5);
  EXPECT_EQ(ReduceAll(ReduceOpKind::kCount, x).ValueOrDie().at<int64_t>(0), 5);
}

TEST(ReduceTest, EmptyInput) {
  Tensor x = Tensor::Empty(DType::kFloat64, 0, 1).ValueOrDie();
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kSum, x).ValueOrDie().at<double>(0), 0);
  EXPECT_EQ(ReduceAll(ReduceOpKind::kCount, x).ValueOrDie().at<int64_t>(0), 0);
  EXPECT_FALSE(ReduceAll(ReduceOpKind::kMin, x).ok());
}

TEST(CumSumTest, InclusiveScan) {
  Tensor x = Tensor::FromVector<int64_t>({1, 2, 3, 4});
  Tensor s = CumSum(x).ValueOrDie();
  EXPECT_EQ(s.at<int64_t>(0), 1);
  EXPECT_EQ(s.at<int64_t>(3), 10);
  // Bool input accumulates as int64 (segment-id derivation).
  Tensor b = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  EXPECT_EQ(CumSum(b).ValueOrDie().at<int64_t>(2), 3);
}

TEST(SegmentedReduceTest, SumCountMinMax) {
  Tensor values = Tensor::FromVector<double>({1, 2, 3, 4, 5});
  Tensor ids = Tensor::FromVector<int64_t>({0, 0, 1, 1, 1});
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kSum, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(1),
                   12);
  EXPECT_EQ(SegmentedReduce(ReduceOpKind::kCount, values, ids, 2)
                .ValueOrDie()
                .at<int64_t>(0),
            2);
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kMin, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(1),
                   3);
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kMax, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(0),
                   2);
  // Out-of-range ids error.
  Tensor bad = Tensor::FromVector<int64_t>({0, 0, 1, 1, 5});
  EXPECT_FALSE(SegmentedReduce(ReduceOpKind::kSum, values, bad, 2).ok());
}

TEST(ReduceTest, RowwiseAndColumnwise) {
  Tensor x = Tensor::FromVector2D<double>({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor rows = ReduceRows(ReduceOpKind::kSum, x).ValueOrDie();
  EXPECT_DOUBLE_EQ(rows.at<double>(0), 6);
  EXPECT_DOUBLE_EQ(rows.at<double>(1), 15);
  Tensor cols = ColumnSums(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(cols.at<double>(0, 2), 9);
  Tensor amax = ArgmaxRows(x).ValueOrDie();
  EXPECT_EQ(amax.at<int64_t>(1), 2);
}

// ---- Selection ---------------------------------------------------------------

TEST(SelectionTest, NonzeroCompressGather) {
  Tensor mask = Tensor::Empty(DType::kBool, 5, 1).ValueOrDie();
  for (int i = 0; i < 5; ++i) mask.mutable_data<bool>()[i] = (i % 2 == 0);
  Tensor idx = Nonzero(mask).ValueOrDie();
  EXPECT_EQ(idx.rows(), 3);
  EXPECT_EQ(idx.at<int64_t>(2), 4);
  Tensor data = Tensor::FromVector<double>({10, 11, 12, 13, 14});
  Tensor kept = Compress(data, mask).ValueOrDie();
  EXPECT_EQ(kept.rows(), 3);
  EXPECT_DOUBLE_EQ(kept.at<double>(1), 12);
  Tensor rev = Tensor::FromVector<int64_t>({4, 3, 2, 1, 0});
  Tensor gathered = Gather(data, rev).ValueOrDie();
  EXPECT_DOUBLE_EQ(gathered.at<double>(0), 14);
  // Out-of-range index errors.
  Tensor bad = Tensor::FromVector<int64_t>({5});
  EXPECT_FALSE(Gather(data, bad).ok());
}

TEST(SelectionTest, GatherWorksOnMultiColumnRows) {
  Tensor data = Tensor::FromVector2D<int32_t>({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor idx = Tensor::FromVector<int64_t>({2, 0});
  Tensor out = Gather(data, idx).ValueOrDie();
  EXPECT_EQ(out.at<int32_t>(0, 0), 5);
  EXPECT_EQ(out.at<int32_t>(0, 1), 6);
  EXPECT_EQ(out.at<int32_t>(1, 0), 1);
}

TEST(SelectionTest, GatherColsPicksPerRow) {
  Tensor x = Tensor::FromVector2D<double>({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor idx = Tensor::FromVector<int64_t>({2, 0});
  Tensor out = GatherCols(x, idx).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0), 3);
  EXPECT_DOUBLE_EQ(out.at<double>(1), 4);
  EXPECT_FALSE(GatherCols(x, Tensor::FromVector<int64_t>({3, 0})).ok());
}

TEST(SelectionTest, ConcatRowsAndCols) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2});
  Tensor b = Tensor::FromVector<int64_t>({3});
  Tensor rows = ConcatRows({a, b}).ValueOrDie();
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.at<int64_t>(2), 3);
  Tensor c = Tensor::FromVector<int64_t>({10, 20});
  Tensor cols = ConcatCols({a, c}).ValueOrDie();
  EXPECT_EQ(cols.cols(), 2);
  EXPECT_EQ(cols.at<int64_t>(1, 1), 20);
  EXPECT_FALSE(ConcatCols({a, b}).ok());  // row mismatch
}

TEST(SelectionTest, RepeatInterleaveExpandsRows) {
  Tensor a = Tensor::FromVector<int64_t>({7, 8, 9});
  Tensor counts = Tensor::FromVector<int64_t>({2, 0, 3});
  Tensor out = RepeatInterleave(a, counts).ValueOrDie();
  ASSERT_EQ(out.rows(), 5);
  EXPECT_EQ(out.at<int64_t>(0), 7);
  EXPECT_EQ(out.at<int64_t>(1), 7);
  EXPECT_EQ(out.at<int64_t>(2), 9);
  EXPECT_EQ(out.at<int64_t>(4), 9);
  Tensor negative = Tensor::FromVector<int64_t>({-1, 0, 0});
  EXPECT_FALSE(RepeatInterleave(a, negative).ok());
}

TEST(SelectionTest, ScatterPlacesRows) {
  Tensor a = Tensor::FromVector<int64_t>({10, 20});
  Tensor idx = Tensor::FromVector<int64_t>({3, 0});
  Tensor out = Scatter(a, idx, 4).ValueOrDie();
  EXPECT_EQ(out.at<int64_t>(0), 20);
  EXPECT_EQ(out.at<int64_t>(3), 10);
  EXPECT_EQ(out.at<int64_t>(1), 0);
}

// ---- Sorting / searching ------------------------------------------------------

TEST(SortTest, ArgsortStableAscDesc) {
  Tensor x = Tensor::FromVector<int64_t>({3, 1, 3, 2});
  Tensor asc = ArgsortRows(x).ValueOrDie();
  EXPECT_EQ(asc.at<int64_t>(0), 1);
  EXPECT_EQ(asc.at<int64_t>(1), 3);
  EXPECT_EQ(asc.at<int64_t>(2), 0);  // stability: first 3 before second 3
  EXPECT_EQ(asc.at<int64_t>(3), 2);
  Tensor desc = ArgsortRows(x, /*ascending=*/false).ValueOrDie();
  EXPECT_EQ(desc.at<int64_t>(0), 0);
  EXPECT_EQ(desc.at<int64_t>(1), 2);
}

TEST(SortTest, SearchSortedBothSides) {
  Tensor sorted = Tensor::FromVector<int64_t>({1, 3, 3, 5});
  Tensor values = Tensor::FromVector<int64_t>({0, 3, 6});
  Tensor lo = SearchSorted(sorted, values, false).ValueOrDie();
  Tensor hi = SearchSorted(sorted, values, true).ValueOrDie();
  EXPECT_EQ(lo.at<int64_t>(0), 0);
  EXPECT_EQ(hi.at<int64_t>(0), 0);
  EXPECT_EQ(lo.at<int64_t>(1), 1);
  EXPECT_EQ(hi.at<int64_t>(1), 3);  // two 3s
  EXPECT_EQ(lo.at<int64_t>(2), 4);
}

TEST(SortTest, SegmentBoundariesAndUnique) {
  Tensor keys = Tensor::FromVector<int64_t>({5, 5, 7, 7, 7, 9});
  Tensor bounds = SegmentBoundaries(keys).ValueOrDie();
  EXPECT_TRUE(bounds.at<bool>(0));
  EXPECT_FALSE(bounds.at<bool>(1));
  EXPECT_TRUE(bounds.at<bool>(2));
  EXPECT_TRUE(bounds.at<bool>(5));
  Tensor unique = UniqueSorted(keys).ValueOrDie();
  EXPECT_EQ(unique.rows(), 3);
  EXPECT_EQ(unique.at<int64_t>(1), 7);
  // Empty input.
  Tensor empty = Tensor::Empty(DType::kInt64, 0, 1).ValueOrDie();
  EXPECT_EQ(SegmentBoundaries(empty).ValueOrDie().rows(), 0);
}

TEST(SortTest, ArgsortPropertyRandom) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = rng.Uniform(1, 200);
    Tensor x = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
    for (int64_t i = 0; i < n; ++i) {
      x.mutable_data<double>()[i] = rng.UniformDouble(-5, 5);
    }
    Tensor perm = ArgsortRows(x).ValueOrDie();
    Tensor sorted = Gather(x, perm).ValueOrDie();
    for (int64_t i = 1; i < n; ++i) {
      ASSERT_LE(sorted.at<double>(i - 1), sorted.at<double>(i));
    }
    // Permutation property: indices are a bijection.
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t p = perm.at<int64_t>(i);
      ASSERT_FALSE(seen[static_cast<size_t>(p)]);
      seen[static_cast<size_t>(p)] = true;
    }
  }
}

// ---- Sort-layer property tests: radix argsort and interpolated searchsorted --
//
// ArgsortRows must return exactly std::stable_sort's permutation (a stable
// sort's permutation is unique) and SearchSorted exactly std::lower_bound /
// std::upper_bound, on every dtype and key shape the radix / interpolation
// paths special-case, plus the fallback inputs (NaN keys).

template <typename T>
std::vector<int64_t> ReferenceArgsort(const Tensor& a, bool ascending) {
  const T* p = a.data<T>();
  const int64_t cols = a.cols();
  std::vector<int64_t> perm(static_cast<size_t>(a.rows()));
  std::iota(perm.begin(), perm.end(), int64_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t i, int64_t j) {
    for (int64_t c = 0; c < cols; ++c) {
      const T x = p[i * cols + c];
      const T y = p[j * cols + c];
      if (x < y) return ascending;
      if (y < x) return !ascending;
    }
    return false;
  });
  return perm;
}

std::vector<int64_t> ToVector(const Tensor& t) {
  return std::vector<int64_t>(t.data<int64_t>(), t.data<int64_t>() + t.rows());
}

// Tensor::FromVector without the contiguous-storage requirement (vector<bool>).
template <typename T>
Tensor ColumnOf(const std::vector<T>& values) {
  Tensor t = Tensor::Empty(DTypeOf<T>::value, static_cast<int64_t>(values.size()), 1)
                 .ValueOrDie();
  for (size_t i = 0; i < values.size(); ++i) t.mutable_data<T>()[i] = values[i];
  return t;
}

// Key shapes the kernels special-case.
enum class KeyShape { kSmallDomain, kMidRange, kFullRange, kExtremes, kAllEqual, kSorted };
constexpr KeyShape kKeyShapes[] = {KeyShape::kSmallDomain, KeyShape::kMidRange,
                                   KeyShape::kFullRange,   KeyShape::kExtremes,
                                   KeyShape::kAllEqual,    KeyShape::kSorted};

template <typename T>
T DrawKey(Rng* rng, KeyShape shape) {
  using L = std::numeric_limits<T>;
  switch (shape) {
    case KeyShape::kSmallDomain:
      if constexpr (std::is_floating_point_v<T>) {
        // -0.0 and +0.0 tie under operator<; the radix map must fold them.
        const T v[] = {T{-0.0}, T{0.0}, T{1}, T{-1}, T{0.5}};
        return v[rng->Uniform(0, 4)];
      } else {
        return static_cast<T>(rng->Uniform(0, 4));
      }
    case KeyShape::kMidRange:
      if constexpr (std::is_same_v<T, bool>) {
        return rng->Bernoulli(0.5);
      } else if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(rng->UniformDouble(-1e4, 1e4));
      } else {
        return static_cast<T>(rng->Uniform(std::max<int64_t>(L::lowest(), -100000),
                                           std::min<int64_t>(L::max(), 100000)));
      }
    case KeyShape::kFullRange: {
      // Hash-like keys: every bit pattern (NaN patterns replaced by -0.0).
      const uint64_t bits = rng->Next();
      if constexpr (std::is_same_v<T, bool>) {
        return (bits & 1) != 0;
      } else {
        T v;
        std::memcpy(&v, &bits, sizeof(T));
        if constexpr (std::is_floating_point_v<T>) {
          if (std::isnan(v)) v = T{-0.0};
        }
        return v;
      }
    }
    case KeyShape::kExtremes: {
      T v[] = {L::lowest(), L::max(), T{0}, T{1}, L::lowest(), L::max()};
      if constexpr (std::is_floating_point_v<T>) {
        v[4] = -L::infinity();
        v[5] = L::infinity();
      }
      return v[rng->Uniform(0, 5)];
    }
    case KeyShape::kAllEqual:
    case KeyShape::kSorted:
      break;
  }
  return T{1};
}

template <typename T>
Tensor MakeKeys(Rng* rng, KeyShape shape, int64_t n) {
  Tensor t = Tensor::Empty(DTypeOf<T>::value, n, 1).ValueOrDie();
  T* p = t.mutable_data<T>();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = DrawKey<T>(rng, shape == KeyShape::kSorted ? KeyShape::kMidRange : shape);
  }
  if (shape == KeyShape::kSorted) std::sort(p, p + n);
  return t;
}

template <typename T>
void CheckSearchSorted(Rng* rng, const Tensor& keys, KeyShape shape) {
  // Sorted build side from the keys, probes from the same shape plus values
  // below, above and between the sorted keys.
  std::vector<T> sorted(keys.data<T>(), keys.data<T>() + keys.rows());
  std::sort(sorted.begin(), sorted.end());
  std::vector<T> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(DrawKey<T>(rng, shape));
  probes.push_back(std::numeric_limits<T>::lowest());
  probes.push_back(std::numeric_limits<T>::max());
  for (size_t i = 0; i < sorted.size(); i += 1 + sorted.size() / 50) {
    probes.push_back(sorted[i]);
    if constexpr (std::is_same_v<T, bool>) {
      probes.push_back(!sorted[i]);
    } else if constexpr (std::is_floating_point_v<T>) {
      probes.push_back(std::nextafter(sorted[i], std::numeric_limits<T>::infinity()));
      probes.push_back(std::nextafter(sorted[i], -std::numeric_limits<T>::infinity()));
    } else {
      if (sorted[i] != std::numeric_limits<T>::max()) probes.push_back(sorted[i] + 1);
      if (sorted[i] != std::numeric_limits<T>::lowest()) probes.push_back(sorted[i] - 1);
    }
  }
  if constexpr (std::is_floating_point_v<T>) {
    for (T& v : probes) {
      if (std::isnan(v)) v = T{0};
    }
  }
  const Tensor s = ColumnOf(sorted);
  const Tensor v = ColumnOf(probes);
  const std::vector<int64_t> lo = ToVector(SearchSorted(s, v, false).ValueOrDie());
  const std::vector<int64_t> hi = ToVector(SearchSorted(s, v, true).ValueOrDie());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(lo[i], std::lower_bound(sorted.begin(), sorted.end(), probes[i]) -
                         sorted.begin())
        << "lower probe " << i << " of " << sorted.size() << " keys";
    ASSERT_EQ(hi[i], std::upper_bound(sorted.begin(), sorted.end(), probes[i]) -
                         sorted.begin())
        << "upper probe " << i << " of " << sorted.size() << " keys";
  }
}

template <typename T>
void CheckSortLayerOnDtype(uint64_t seed) {
  Rng rng(seed);
  const int64_t sizes[] = {0, 1, 2, 3, 17, 300, 2049, 5000};
  for (KeyShape shape : kKeyShapes) {
    for (int64_t n : sizes) {
      const Tensor keys = MakeKeys<T>(&rng, shape, n);
      for (bool ascending : {true, false}) {
        ASSERT_EQ(ToVector(ArgsortRows(keys, ascending).ValueOrDie()),
                  ReferenceArgsort<T>(keys, ascending))
            << DTypeName(DTypeOf<T>::value) << " shape " << static_cast<int>(shape)
            << " n=" << n << (ascending ? " asc" : " desc");
      }
      CheckSearchSorted<T>(&rng, keys, shape);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SortPropertyTest, ArgsortAndSearchSortedMatchStdOnEveryDtype) {
  CheckSortLayerOnDtype<bool>(1);
  CheckSortLayerOnDtype<uint8_t>(2);
  CheckSortLayerOnDtype<int32_t>(3);
  CheckSortLayerOnDtype<int64_t>(4);
  CheckSortLayerOnDtype<float>(5);
  CheckSortLayerOnDtype<double>(6);
}

TEST(SortPropertyTest, Int64ExtremesAndWideRangeAtScale) {
  // 70k full-range keys take the wide (indirect, six-digit) radix path; the
  // INT64_MIN / INT64_MAX pair spans the whole order-preserving image.
  Rng rng(7);
  for (KeyShape shape : {KeyShape::kFullRange, KeyShape::kExtremes}) {
    const Tensor keys = MakeKeys<int64_t>(&rng, shape, 70000);
    for (bool ascending : {true, false}) {
      ASSERT_EQ(ToVector(ArgsortRows(keys, ascending).ValueOrDie()),
                ReferenceArgsort<int64_t>(keys, ascending));
    }
  }
  const Tensor pair = Tensor::FromVector<int64_t>(
      {std::numeric_limits<int64_t>::max(), std::numeric_limits<int64_t>::min()});
  EXPECT_EQ(ToVector(ArgsortRows(pair).ValueOrDie()), (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(ToVector(ArgsortRows(pair, false).ValueOrDie()), (std::vector<int64_t>{0, 1}));
}

TEST(SortPropertyTest, SignedZerosTieAndNaNKeysTakeTheComparisonPath) {
  // -0.0 == +0.0 under operator<, so a stable sort keeps their input order.
  const Tensor zeros = Tensor::FromVector<double>({0.0, -0.0, 1.0, -0.0, 0.0, -1.0});
  EXPECT_EQ(ToVector(ArgsortRows(zeros).ValueOrDie()),
            (std::vector<int64_t>{5, 0, 1, 3, 4, 2}));
  EXPECT_EQ(ToVector(ArgsortRows(zeros, false).ValueOrDie()),
            (std::vector<int64_t>{2, 0, 1, 3, 4, 5}));
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t n = rng.Uniform(1, 400);
    Tensor f = MakeKeys<float>(&rng, KeyShape::kSmallDomain, n);
    Tensor d = MakeKeys<double>(&rng, KeyShape::kMidRange, n);
    f.mutable_data<float>()[rng.Uniform(0, n - 1)] = std::nanf("");
    d.mutable_data<double>()[rng.Uniform(0, n - 1)] = std::nan("");
    for (bool ascending : {true, false}) {
      ASSERT_EQ(ToVector(ArgsortRows(f, ascending).ValueOrDie()),
                ReferenceArgsort<float>(f, ascending));
      ASSERT_EQ(ToVector(ArgsortRows(d, ascending).ValueOrDie()),
                ReferenceArgsort<double>(d, ascending));
    }
  }
}

TEST(SortPropertyTest, MultiColumnByteRowsMatchStableSort) {
  // Padded strings: 2-25 columns, a small alphabet (long common prefixes)
  // and variable lengths (trailing zero padding, some all-zero columns).
  Rng rng(9);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t cols = rng.Uniform(2, 25);
    const int64_t n = trial < 3 ? trial : rng.Uniform(3, 3000);
    Tensor t = Tensor::Empty(DType::kUInt8, n, cols).ValueOrDie();
    uint8_t* p = t.mutable_data<uint8_t>();
    for (int64_t i = 0; i < n; ++i) {
      const int64_t len = rng.Uniform(0, cols - 1);
      for (int64_t c = 0; c < cols; ++c) {
        p[i * cols + c] =
            c < len ? static_cast<uint8_t>(trial % 2 == 0 ? 'a' + rng.Uniform(0, 2)
                                                           : rng.Uniform(0, 255))
                    : 0;
      }
    }
    for (bool ascending : {true, false}) {
      ASSERT_EQ(ToVector(ArgsortRows(t, ascending).ValueOrDie()),
                ReferenceArgsort<uint8_t>(t, ascending))
          << "cols=" << cols << " n=" << n;
    }
  }
}

TEST(SortPropertyTest, ParallelSearchSortedMatchesSerialAtEveryMorselSize) {
  // Each morsel's call interpolates over the whole sorted side on its own;
  // any state carried across a morsel split would show here.
  runtime::ThreadPool pool(4);
  Rng rng(10);
  const Tensor keys = MakeKeys<int64_t>(&rng, KeyShape::kMidRange, 20000);
  const Tensor sorted = Gather(keys, ArgsortRows(keys).ValueOrDie()).ValueOrDie();
  const Tensor probes = MakeKeys<int64_t>(&rng, KeyShape::kMidRange, 20000);
  for (int64_t morsel : {1, 7, 8192}) {
    runtime::ParallelContext ctx;
    ctx.pool = &pool;
    ctx.morsel_rows = morsel;
    ctx.min_parallel_rows = 1;
    for (bool right : {false, true}) {
      EXPECT_EQ(
          ToVector(runtime::ParallelSearchSorted(ctx, sorted, probes, right).ValueOrDie()),
          ToVector(SearchSorted(sorted, probes, right).ValueOrDie()))
          << "morsel " << morsel << (right ? " right" : " left");
    }
  }
}

// ---- Strings -------------------------------------------------------------------

TEST(StringTest, EncodeDecodeRoundTrip) {
  const std::vector<std::string> values{"tea", "", "a longer string", "cup"};
  Tensor t = EncodeStrings(values).ValueOrDie();
  EXPECT_EQ(t.cols(), 15);
  auto decoded = DecodeStrings(t).ValueOrDie();
  EXPECT_EQ(decoded, values);
}

TEST(StringTest, CompareScalarLexicographic) {
  Tensor t = EncodeStrings({"apple", "banana", "app"}).ValueOrDie();
  Tensor eq = StringCompareScalar(CompareOpKind::kEq, t, "banana").ValueOrDie();
  EXPECT_FALSE(eq.at<bool>(0));
  EXPECT_TRUE(eq.at<bool>(1));
  Tensor lt = StringCompareScalar(CompareOpKind::kLt, t, "apple").ValueOrDie();
  EXPECT_FALSE(lt.at<bool>(0));
  EXPECT_TRUE(lt.at<bool>(2));  // "app" < "apple" (prefix rule)
}

TEST(StringTest, LikeAllPatternShapes) {
  Tensor t = EncodeStrings({"PROMO BRUSHED TIN", "STANDARD TIN", "PROMOX"})
                 .ValueOrDie();
  Tensor prefix = StringLike(t, "PROMO%").ValueOrDie();
  EXPECT_TRUE(prefix.at<bool>(0));
  EXPECT_FALSE(prefix.at<bool>(1));
  EXPECT_TRUE(prefix.at<bool>(2));
  Tensor contains = StringLike(t, "%TIN%").ValueOrDie();
  EXPECT_TRUE(contains.at<bool>(0));
  EXPECT_TRUE(contains.at<bool>(1));
  EXPECT_FALSE(contains.at<bool>(2));
  Tensor exact = StringLike(t, "PROMOX").ValueOrDie();
  EXPECT_TRUE(exact.at<bool>(2));
  Tensor single = StringLike(t, "PROMO_").ValueOrDie();
  EXPECT_TRUE(single.at<bool>(2));
  EXPECT_FALSE(single.at<bool>(0));
  Tensor suffix = StringLike(t, "%TIN").ValueOrDie();
  EXPECT_TRUE(suffix.at<bool>(0));
  EXPECT_FALSE(suffix.at<bool>(2));
}

TEST(StringTest, SubstringBytes) {
  Tensor t = EncodeStrings({"abcdef", "ab"}).ValueOrDie();
  Tensor sub = Substring(t, 1, 3).ValueOrDie();
  auto decoded = DecodeStrings(sub).ValueOrDie();
  EXPECT_EQ(decoded[0], "bcd");
  EXPECT_EQ(decoded[1], "b");
}

TEST(StringTest, DictEncodeGroupsEqualRows) {
  Tensor t = EncodeStrings({"b", "a", "b", "c", "a"}).ValueOrDie();
  auto encoded = DictEncode(t).ValueOrDie();
  EXPECT_EQ(encoded.dict.rows(), 3);
  // Equal strings share codes; dict[code] decodes back.
  auto dict = DecodeStrings(encoded.dict).ValueOrDie();
  const int64_t* codes = encoded.codes.data<int64_t>();
  EXPECT_EQ(dict[static_cast<size_t>(codes[0])], "b");
  EXPECT_EQ(dict[static_cast<size_t>(codes[1])], "a");
  EXPECT_EQ(codes[0], codes[2]);
  EXPECT_EQ(codes[1], codes[4]);
}

TEST(StringTest, HashTokenizeSplitsAndPads) {
  Tensor t = EncodeStrings({"Hello, world!", "one"}).ValueOrDie();
  Tensor ids = HashTokenize(t, 1000, 4).ValueOrDie();
  EXPECT_EQ(ids.cols(), 4);
  EXPECT_GE(ids.at<int64_t>(0, 0), 0);
  EXPECT_GE(ids.at<int64_t>(0, 1), 0);
  EXPECT_EQ(ids.at<int64_t>(0, 2), -1);  // padding
  EXPECT_EQ(ids.at<int64_t>(1, 1), -1);
  // Case-insensitive: "Hello" == "hello".
  Tensor t2 = EncodeStrings({"hello"}).ValueOrDie();
  Tensor ids2 = HashTokenize(t2, 1000, 4).ValueOrDie();
  EXPECT_EQ(ids.at<int64_t>(0, 0), ids2.at<int64_t>(0, 0));
}

// ---- Hash / matmul --------------------------------------------------------------

TEST(HashTest, EqualRowsHashEqual) {
  Tensor a = Tensor::FromVector<int64_t>({5, 6, 5});
  Tensor h = HashRows(a).ValueOrDie();
  EXPECT_EQ(h.at<int64_t>(0), h.at<int64_t>(2));
  EXPECT_NE(h.at<int64_t>(0), h.at<int64_t>(1));
  Tensor s = EncodeStrings({"x", "y", "x"}).ValueOrDie();
  Tensor hs = HashRows(s).ValueOrDie();
  EXPECT_EQ(hs.at<int64_t>(0), hs.at<int64_t>(2));
  // Combine changes the hash but stays consistent.
  Tensor combined = HashCombine(h, a).ValueOrDie();
  EXPECT_EQ(combined.at<int64_t>(0), combined.at<int64_t>(2));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector2D<double>({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(c.at<double>(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at<double>(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at<double>(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at<double>(1, 1), 50);
  EXPECT_FALSE(MatMul(a, Tensor::FromVector2D<double>({1, 2, 3}, 3, 1)).ok());
}

TEST(MatMulTest, AddBiasBroadcasts) {
  Tensor a = Tensor::FromVector2D<double>({1, 0, 0, 1}, 2, 2);
  Tensor b = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromVector2D<double>({10, 20}, 1, 2);
  Tensor out = MatMulAddBias(a, b, bias).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 11);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 1), 24);
}

TEST(MatMulTest, EmbeddingBagSumsAndSkipsPadding) {
  Tensor table = Tensor::FromVector2D<double>({1, 2, 10, 20, 100, 200}, 3, 2);
  Tensor ids = Tensor::FromVector2D<int64_t>({0, 2, 1, -1}, 2, 2);
  Tensor out = EmbeddingBagSum(table, ids).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 101);
  EXPECT_DOUBLE_EQ(out.at<double>(0, 1), 202);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 0), 10);  // -1 is padding
  EXPECT_FALSE(
      EmbeddingBagSum(table, Tensor::FromVector2D<int64_t>({3, 0}, 1, 2)).ok());
}

TEST(ConcatRowsTest, PadsUInt8WidthsWithZeroBytes) {
  // Padded-string concat: a LEFT JOIN's zero-sentinel side is narrower than
  // the gathered side; narrower rows right-pad with 0 (the string padding).
  Tensor wide = Tensor::FromVector2D<uint8_t>({'a', 'b', 'c', 'd', 'e', 'f'}, 2, 3);
  Tensor narrow = Tensor::FromVector2D<uint8_t>({'x'}, 1, 1);
  Tensor out = ConcatRows({wide, narrow}).ValueOrDie();
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 3);
  EXPECT_EQ(out.at<uint8_t>(2, 0), 'x');
  EXPECT_EQ(out.at<uint8_t>(2, 1), 0);
  EXPECT_EQ(out.at<uint8_t>(2, 2), 0);
  // Numeric width mismatch stays an error.
  Tensor a = Tensor::FromVector2D<double>({1, 2}, 1, 2);
  Tensor b = Tensor::FromVector2D<double>({3}, 1, 1);
  EXPECT_FALSE(ConcatRows({a, b}).ok());
}

TEST(ConcatRowsTest, EmptyPartsContributeNothing) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2, 3});
  Tensor empty = Tensor::Empty(DType::kInt64, 0, 1).ValueOrDie();
  Tensor out = ConcatRows({empty, a, empty}).ValueOrDie();
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.at<int64_t>(0), 1);
  EXPECT_EQ(out.at<int64_t>(2), 3);
}

}  // namespace
}  // namespace tqp
