#include "core/query.h"

namespace xpwqo {

const char* EvalStrategyName(EvalStrategy strategy) {
  switch (strategy) {
    case EvalStrategy::kOptimized:
      return "optimized";
    case EvalStrategy::kHybrid:
      return "hybrid";
    case EvalStrategy::kBaseline:
      return "baseline";
  }
  return "?";
}

}  // namespace xpwqo
