// Reproduces Figure 8 (Appendix D): query answering time of the automaton
// engine ("SXSI") against a step-wise node-set engine standing in for
// MonetDB/XQuery, for Q01-Q15. Best of 5 runs, results materialized but not
// serialized — the paper's protocol.
#include <cstdio>

#include "bench_util.h"
#include "util/strings.h"

namespace xpwqo {
namespace {

int Main() {
  const Engine& engine = bench::XMarkEngine();
  bench::PrintHeader(
      "Figure 8: automaton engine (SXSI) vs step-wise node-set baseline "
      "(MonetDB substitute)",
      engine);
  std::printf("%-5s %12s %14s %8s %10s\n", "query", "sxsi(ms)",
              "baseline(ms)", "speedup", "selected");
  double total_sxsi = 0, total_base = 0;
  for (const WorkloadQuery& q : Figure2Workload()) {
    auto compiled = PreparedQuery::Prepare(q.xpath, engine.alphabet_ptr());
    if (!compiled.ok()) return 1;
    QueryOptions opt;
    opt.strategy = EvalStrategy::kOptimized;
    QueryOptions base;
    base.strategy = EvalStrategy::kBaseline;
    size_t selected = 0;
    double sxsi_ms = bench::BestOfMs([&] {
      auto r = engine.Run(*compiled, opt);
      selected = r.ok() ? r->nodes.size() : 0;
    });
    size_t base_selected = 0;
    double base_ms = bench::BestOfMs([&] {
      auto r = engine.Run(*compiled, base);
      base_selected = r.ok() ? r->nodes.size() : 0;
    });
    if (selected != base_selected) {
      std::printf("MISMATCH on %s\n", q.id);
      return 1;
    }
    total_sxsi += sxsi_ms;
    total_base += base_ms;
    std::printf("%-5s %12.3f %14.3f %7.1fx %10s\n", q.id, sxsi_ms, base_ms,
                sxsi_ms > 0 ? base_ms / sxsi_ms : 0.0,
                WithCommas(selected).c_str());
  }
  std::printf("%-5s %12.3f %14.3f %7.1fx\n", "all", total_sxsi, total_base,
              total_sxsi > 0 ? total_base / total_sxsi : 0.0);
  std::printf(
      "\npaper shape: the automaton engine wins on every query, most "
      "dramatically on\nselective ones (MonetDB's worst case in the paper "
      "was Q08 at 1042ms vs <40ms).\n");
  return 0;
}

}  // namespace
}  // namespace xpwqo

int main() { return xpwqo::Main(); }
