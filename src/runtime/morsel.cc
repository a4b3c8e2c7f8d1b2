#include "runtime/morsel.h"

#include <algorithm>

#include "common/env.h"

namespace tqp::runtime {

int64_t DefaultMorselRows() {
  static const int64_t rows = EnvInt64OrDefault(
      "TQP_MORSEL_ROWS", 16384, 1, int64_t{1} << 30);
  return rows;
}

std::vector<RowRange> PartitionRows(int64_t rows, int64_t morsel_rows) {
  if (morsel_rows <= 0) morsel_rows = DefaultMorselRows();
  std::vector<RowRange> out;
  if (rows <= 0) return out;
  out.reserve(static_cast<size_t>((rows + morsel_rows - 1) / morsel_rows));
  for (int64_t b = 0; b < rows; b += morsel_rows) {
    out.push_back(RowRange{b, std::min(rows, b + morsel_rows)});
  }
  return out;
}

}  // namespace tqp::runtime
