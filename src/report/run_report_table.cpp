#include "report/run_report_table.hpp"

namespace m3d {

namespace {

void addSpanRows(Table& t, const obs::Span& s, const obs::Span& root, int depth,
                 int maxDepth) {
  std::string name;
  for (int i = 0; i < depth; ++i) name += "  ";
  name += s.name;
  const double durMs = static_cast<double>(s.durNs) / 1e6;
  const double selfMs = static_cast<double>(s.selfDurNs()) / 1e6;
  const double share =
      root.durNs > 0 ? 100.0 * static_cast<double>(s.durNs) / static_cast<double>(root.durNs)
                     : 0.0;
  t.addRow({name, Table::num(durMs, 2), Table::num(selfMs, 2), Table::num(share, 1) + "%",
            "+" + std::to_string(s.rssDeltaKb)});
  if (depth >= maxDepth) return;
  for (const obs::Span& c : s.children) addSpanRows(t, c, root, depth + 1, maxDepth);
}

}  // namespace

Table runReportSpanTable(const obs::RunReport& report, int maxDepth) {
  Table t("Phase timing: " + report.flow + " / " + report.tile);
  t.setHeader({"phase", "wall [ms]", "self [ms]", "share", "RSS delta [KB]"});
  addSpanRows(t, report.root, report.root, 0, maxDepth);
  return t;
}

}  // namespace m3d
