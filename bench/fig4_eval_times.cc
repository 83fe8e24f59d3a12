// Reproduces Figure 4: query answering time per query for the four
// evaluator configurations (Naive / Jumping / Memo. / Opt.), run straight
// on the ASTA evaluator with the matching AstaEvalOptions. Uses
// google-benchmark; one series per (query, configuration) pair.
#include <benchmark/benchmark.h>

#include "asta/eval.h"
#include "bench_util.h"

namespace xpwqo {
namespace {

void RunQuery(benchmark::State& state, const char* xpath,
              AstaEvalOptions options) {
  const Engine& engine = bench::XMarkEngine();
  auto query = PreparedQuery::Prepare(xpath, engine.alphabet_ptr());
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  // The no-jump configurations run without the label index.
  const TreeIndex* index = options.jumping ? &engine.index() : nullptr;
  int64_t selected = 0;
  int64_t visited = 0;
  for (auto _ : state) {
    AstaEvalResult r =
        EvalAsta(query->asta(), engine.document(), index, options);
    selected = static_cast<int64_t>(r.nodes.size());
    visited = r.stats.nodes_visited;
    benchmark::DoNotOptimize(r.nodes.data());
  }
  state.counters["selected"] = static_cast<double>(selected);
  state.counters["visited"] = static_cast<double>(visited);
}

void RegisterAll() {
  struct Config {
    const char* name;
    AstaEvalOptions options;  // {jumping, memoize, info_propagation}
  };
  const Config configs[] = {
      {"Naive", {false, false, false}},
      {"Jumping", {true, false, false}},
      {"Memo", {false, true, false}},
      {"Opt", {true, true, true}},
  };
  for (const WorkloadQuery& q : Figure2Workload()) {
    for (const Config& c : configs) {
      std::string name = std::string(q.id) + "/" + c.name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [xpath = q.xpath, options = c.options](benchmark::State& state) {
            RunQuery(state, xpath, options);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  xpwqo::bench::PrintHeader("Figure 4: impact of jumping and memoization",
                            xpwqo::bench::XMarkEngine());
  xpwqo::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
