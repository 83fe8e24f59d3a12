#include "test_util.h"

#include <cctype>

#include "tree/builder.h"
#include "util/check.h"

namespace xpwqo {
namespace testing_util {
namespace {

/// Recursive-descent parser for the bracket notation. Grammar:
///   tree  ::= label [ '(' tree (',' tree)* ')' ]
class BracketParser {
 public:
  BracketParser(std::string_view spec, TreeBuilder* b) : spec_(spec), b_(b) {}

  void Parse() {
    Tree();
    SkipWs();
    XPWQO_CHECK(i_ == spec_.size());
  }

 private:
  void SkipWs() {
    while (i_ < spec_.size() &&
           std::isspace(static_cast<unsigned char>(spec_[i_]))) {
      ++i_;
    }
  }

  void Tree() {
    SkipWs();
    size_t start = i_;
    while (i_ < spec_.size() && spec_[i_] != '(' && spec_[i_] != ')' &&
           spec_[i_] != ',' &&
           !std::isspace(static_cast<unsigned char>(spec_[i_]))) {
      ++i_;
    }
    XPWQO_CHECK(i_ > start);  // non-empty label
    b_->BeginElement(spec_.substr(start, i_ - start));
    SkipWs();
    if (i_ < spec_.size() && spec_[i_] == '(') {
      ++i_;  // '('
      Tree();
      SkipWs();
      while (i_ < spec_.size() && spec_[i_] == ',') {
        ++i_;
        Tree();
        SkipWs();
      }
      XPWQO_CHECK(i_ < spec_.size() && spec_[i_] == ')');
      ++i_;
    }
    b_->EndElement();
  }

  std::string_view spec_;
  size_t i_ = 0;
  TreeBuilder* b_;
};

void BracketRec(const Document& doc, NodeId n, std::string* out) {
  out->append(doc.LabelName(n));
  NodeId c = doc.first_child(n);
  if (c == kNullNode) return;
  out->push_back('(');
  bool first = true;
  for (; c != kNullNode; c = doc.next_sibling(c)) {
    if (!first) out->push_back(',');
    first = false;
    BracketRec(doc, c, out);
  }
  out->push_back(')');
}

}  // namespace

Document TreeOf(std::string_view spec) {
  TreeBuilder b;
  BracketParser(spec, &b).Parse();
  auto doc = b.Finish();
  XPWQO_CHECK(doc.ok());
  return std::move(doc).value();
}

std::string BracketString(const Document& doc) {
  std::string out;
  if (doc.root() != kNullNode) BracketRec(doc, doc.root(), &out);
  return out;
}

Document RandomTree(uint64_t seed, const RandomTreeOptions& options) {
  Random rng(seed);
  TreeBuilder b;
  b.BeginElement("r");
  int remaining = options.num_nodes - 1;
  int depth = 1;
  auto label = [&] {
    return std::string(
        1, static_cast<char>('a' + rng.Uniform(options.num_labels)));
  };
  while (remaining > 0) {
    double r = rng.NextDouble();
    if (r < options.descend_prob || depth == 1) {
      b.BeginElement(label());
      ++depth;
      --remaining;
    } else {
      b.EndElement();
      --depth;
    }
  }
  while (depth > 0) {
    b.EndElement();
    --depth;
  }
  auto doc = b.Finish();
  XPWQO_CHECK(doc.ok());
  return std::move(doc).value();
}

std::vector<NodeId> NodesWithLabel(const Document& doc, LabelId label) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (doc.label(n) == label) out.push_back(n);
  }
  return out;
}

LoadOptions OnBackend(TreeBackend backend) {
  LoadOptions options;
  options.backend = backend;
  return options;
}

}  // namespace testing_util
}  // namespace xpwqo
