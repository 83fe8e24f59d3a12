// Ablation for information propagation (§4.4): optimized evaluation with
// and without evaluating transitions after the first child.
#include <benchmark/benchmark.h>

#include "asta/eval.h"
#include "bench_util.h"

namespace xpwqo {
namespace {

void RunQuery(benchmark::State& state, const char* xpath, bool info_prop) {
  const Engine& engine = bench::XMarkEngine();
  auto query = PreparedQuery::Prepare(xpath, engine.alphabet_ptr());
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  const AstaEvalOptions options{true, true, info_prop};
  int64_t visited = 0;
  for (auto _ : state) {
    AstaEvalResult r = EvalAsta(query->asta(), engine.document(),
                                &engine.index(), options);
    visited = r.stats.nodes_visited;
    benchmark::DoNotOptimize(r.nodes.data());
  }
  state.counters["visited"] = static_cast<double>(visited);
}

void RegisterAll() {
  // Predicate-heavy queries benefit; plain paths are unaffected (control).
  for (const WorkloadQuery& q : Figure2Workload()) {
    for (bool on : {true, false}) {
      std::string name =
          std::string(q.id) + (on ? "/infoprop_on" : "/infoprop_off");
      benchmark::RegisterBenchmark(
          name.c_str(), [xpath = q.xpath, on](benchmark::State& state) {
            RunQuery(state, xpath, on);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  xpwqo::bench::PrintHeader("Ablation: information propagation",
                            xpwqo::bench::XMarkEngine());
  xpwqo::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
