// Shared helpers for the test suites: tiny-document construction from a
// bracket notation, deterministic random tree generation, and engine load
// options.
#ifndef XPWQO_TESTS_TEST_UTIL_H_
#define XPWQO_TESTS_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "tree/document.h"
#include "util/random.h"

namespace xpwqo {
namespace testing_util {

/// Builds a Document from a bracket string like "a(b,c(d),b)": a root 'a'
/// with children b, c (with child d) and b. Labels are maximal runs of
/// characters other than "(),". Whitespace is ignored.
Document TreeOf(std::string_view spec);

/// Returns the bracket notation of `doc` (inverse of TreeOf, minus spaces).
std::string BracketString(const Document& doc);

struct RandomTreeOptions {
  int num_nodes = 50;
  /// Labels drawn uniformly from {"a","b",...} of this size.
  int num_labels = 3;
  /// Probability of descending (vs. becoming a sibling) while generating;
  /// larger values give deeper trees.
  double descend_prob = 0.5;
};

/// Generates a deterministic pseudo-random Document.
Document RandomTree(uint64_t seed, const RandomTreeOptions& options = {});

/// All nodes of `doc` whose label id is `label`, in document order.
std::vector<NodeId> NodesWithLabel(const Document& doc, LabelId label);

/// LoadOptions that select `backend` and keep every other default (GCC's
/// -Wmissing-field-initializers rejects a partial designated initializer).
LoadOptions OnBackend(TreeBackend backend);

}  // namespace testing_util
}  // namespace xpwqo

#endif  // XPWQO_TESTS_TEST_UTIL_H_
