#ifndef TQP_TPCH_QUERIES_H_
#define TQP_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace tqp::tpch {

/// \brief SQL text of TPC-H query `number` in TQP's dialect.
///
/// All 22 queries are supported (see SupportedQueries()). Q19 uses the
/// standard factored form (join predicate outside the OR), which is the
/// variant most engines and the dbgen qgen templates use. Numbers outside
/// 1-22 return NotImplemented.
Result<std::string> QueryText(int number);

/// \brief The query numbers this reproduction supports, in order.
const std::vector<int>& SupportedQueries();

}  // namespace tqp::tpch

#endif  // TQP_TPCH_QUERIES_H_
