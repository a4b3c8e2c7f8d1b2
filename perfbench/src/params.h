#ifndef PERFBENCH_PARAMS_H_
#define PERFBENCH_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// One SQL statement of a workload: the TPC-H template it came from and its
/// text with substitution parameters filled in.
struct Statement {
  int query = 0;
  std::string sql;
};

/// `per_query` statements per TPC-H template, each the engine's own query
/// text (tpch::QueryText) with its substitution parameters redrawn, following
/// the value ranges of TPC-H specification section 2.4 restricted to the
/// generator's vocabularies; distinct within a template, in template order.
/// Variant v of template q depends only on (q, v). Only the templates of the
/// benchmark's workloads are supported (Q3, Q9, Q18, Q21). Fails when a query
/// text no longer contains a literal that is substituted, so a changed query
/// surfaces instead of silently running unparameterised.
tqp::Result<std::vector<Statement>> ParameterVariants(const std::vector<int>& queries,
                                                      int per_query);

}  // namespace perfbench

#endif  // PERFBENCH_PARAMS_H_
