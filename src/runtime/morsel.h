#ifndef TQP_RUNTIME_MORSEL_H_
#define TQP_RUNTIME_MORSEL_H_

#include <cstdint>
#include <vector>

namespace tqp::runtime {

/// Morsel-driven parallelism (Leis et al., SIGMOD'14) adapted to the tensor
/// setting: inputs are partitioned into fixed-size row ranges ("morsels") that
/// workers claim dynamically, so skewed kernels load-balance without any
/// up-front cost model.

/// \brief Half-open row range [begin, end) — one unit of work.
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// \brief Default rows per morsel. Overridable per executor via
/// ExecOptions::morsel_rows and globally via the TQP_MORSEL_ROWS env var.
/// 16k rows of an 8-byte column is 128 KiB — roughly half an L2 slice, so a
/// morsel's input and output both stay cache-resident.
int64_t DefaultMorselRows();

/// \brief Splits [0, rows) into morsels of at most `morsel_rows` rows.
/// `morsel_rows <= 0` selects DefaultMorselRows().
std::vector<RowRange> PartitionRows(int64_t rows, int64_t morsel_rows);

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_MORSEL_H_
