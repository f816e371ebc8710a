#pragma once

/// \file run_report_table.hpp
/// Human-readable rendering of an obs::RunReport as report::Table: the span
/// tree (phase, wall-clock, share of parent, peak RSS).

#include "obs/run_report.hpp"
#include "report/table.hpp"

namespace m3d {

/// Span tree flattened to rows; nesting shown by indentation. \p maxDepth
/// limits how deep per-iteration spans are expanded.
Table runReportSpanTable(const obs::RunReport& report, int maxDepth = 3);

}  // namespace m3d
