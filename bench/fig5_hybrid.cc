// Reproduces Figure 5: hybrid vs regular (top-down+bottom-up) evaluation of
// //listitem//keyword//emph over the four hand-crafted configurations A-D,
// reporting evaluation times and the selected/visited-node table.
#include <cstdio>

#include "bench_util.h"
#include "util/strings.h"
#include "xmark/fig5_configs.h"

namespace xpwqo {
namespace {

constexpr const char* kQuery = "//listitem//keyword//emph";

int Main() {
  std::printf("== Figure 5: hybrid vs regular evaluation of %s ==\n\n",
              kQuery);
  std::printf("%-3s %10s %10s %12s %12s %12s %6s %10s\n", "cfg",
              "hybrid(ms)", "regular(ms)", "(1)selected", "(2)hyb-visit",
              "(3)reg-visit", "pivot", "pivot-cnt");
  for (Fig5Config config : {Fig5Config::kA, Fig5Config::kB, Fig5Config::kC,
                            Fig5Config::kD}) {
    Engine engine = Engine::FromDocument(BuildFig5Config(config));
    auto compiled = PreparedQuery::Prepare(kQuery, engine.alphabet_ptr());
    if (!compiled.ok()) return 1;

    QueryOptions hybrid_opt;
    hybrid_opt.strategy = EvalStrategy::kHybrid;
    QueryOptions regular_opt;
    regular_opt.strategy = EvalStrategy::kOptimized;

    QueryResult hybrid_result, regular_result;
    double hybrid_ms = bench::BestOfMs([&] {
      hybrid_result = std::move(engine.Run(*compiled, hybrid_opt)).value();
    });
    double regular_ms = bench::BestOfMs([&] {
      regular_result = std::move(engine.Run(*compiled, regular_opt)).value();
    });
    if (hybrid_result.nodes != regular_result.nodes) {
      std::printf("MISMATCH in configuration %s!\n", Fig5ConfigName(config));
      return 1;
    }
    std::printf("%-3s %10.3f %10.3f %12s %12s %12s %6d %10s\n",
                Fig5ConfigName(config), hybrid_ms, regular_ms,
                WithCommas(hybrid_result.nodes.size()).c_str(),
                WithCommas(static_cast<uint64_t>(
                               hybrid_result.hybrid.nodes_visited))
                    .c_str(),
                WithCommas(static_cast<uint64_t>(
                               regular_result.stats.nodes_visited))
                    .c_str(),
                hybrid_result.hybrid.pivot,
                WithCommas(static_cast<uint64_t>(
                               hybrid_result.hybrid.pivot_count))
                    .c_str());
  }
  std::printf(
      "\npaper shape: A and B are the hybrid's best cases (a rare label to "
      "start from:\nfew visits); C degenerates to the regular run (pivot = "
      "first label); D is the\nhybrid worst case, where the regular run's "
      "jumping makes it competitive despite\nvisiting more nodes.\n");
  return 0;
}

}  // namespace
}  // namespace xpwqo

int main() { return xpwqo::Main(); }
