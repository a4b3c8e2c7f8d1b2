#ifndef TQP_KERNELS_SORT_H_
#define TQP_KERNELS_SORT_H_

#include "common/result.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Stable argsort of an (n x m) tensor by lexicographic row order
/// (torch.argsort analog; m == 1 is the common numeric case, m > 1 covers
/// padded string tensors). Returns int64 (n x 1) permutation indices.
///
/// Contract: the result is exactly std::stable_sort's permutation under
/// operator< on the row elements (descending: the mirrored comparison, ties
/// still in ascending row order). A stable sort's permutation is unique, so
/// every path below returns the same indices.
///  - Radix path (linear time): single-column keys of every dtype, and
///    multi-column uint8 (padded string) keys. Keys map to an
///    order-preserving unsigned image (signed integers flip the sign bit,
///    floats fold -0.0 into +0.0 and map sign/magnitude, descending takes
///    the complement) and sort by stable LSD passes over image - min in
///    11-bit digits, skipping digits every key shares; string rows take one
///    byte pass per column, last column first. Already-sorted keys return
///    the identity without a pass. The passes move uint32 row ids between
///    the two halves of the int64 output buffer, so the only scratch is the
///    per-pass histograms.
///  - Comparison path (std::stable_sort): float keys containing a NaN,
///    multi-column keys of any dtype other than uint8, and n >= 2^32 rows.
Result<Tensor> ArgsortRows(const Tensor& a, bool ascending = true);

/// \brief Applies `perm` (from ArgsortRows) to produce the sorted tensor.
/// Equivalent to Gather(a, perm); provided for symmetry with torch.sort.
Result<Tensor> SortRows(const Tensor& a, const Tensor& perm);

/// \brief torch.searchsorted / bucketize: for each value v in `values`
/// (k x 1), the insertion index into ascending `sorted` (n x 1) keeping order.
/// `right` selects the upper-bound variant. Returns int64 (k x 1).
///
/// This is the primitive behind the paper's sort-merge join: probe keys are
/// located in the sorted build side with two searchsorted calls whose
/// difference is the per-probe match count.
///
/// Integer dtypes guess each probe's position by interpolating over
/// [sorted[0], sorted[n-1]], gallop from the guess to bracket the answer and
/// binary-search the bracket; floats binary-search. Both return exactly
/// std::lower_bound (upper_bound when `right`) on ascending input, and keep
/// O(1) state per call, so callers may split `values` into morsels freely.
Result<Tensor> SearchSorted(const Tensor& sorted, const Tensor& values,
                            bool right = false);

/// \brief Boolean (n x 1) mask marking rows that differ from their
/// predecessor (row 0 is always true; empty input gives an empty mask).
/// On lexicographically sorted keys this marks group starts.
Result<Tensor> SegmentBoundaries(const Tensor& keys);

/// \brief Deduplicates a *sorted* (n x m) tensor: keeps rows where
/// SegmentBoundaries is true.
Result<Tensor> UniqueSorted(const Tensor& sorted_keys);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_SORT_H_
