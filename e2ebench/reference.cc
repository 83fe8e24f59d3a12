#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "baseline/nodeset_eval.h"
#include "tree/builder.h"
#include "xmark/workload.h"

namespace xpbench {

using xpwqo::Document;
using xpwqo::NodeId;
using xpwqo::NodeKind;

namespace {

struct Step {
  bool descendant = false;
  std::string name;  // "*" matches any element
};

bool ParseSimplePath(std::string_view xpath, std::vector<Step>* steps) {
  size_t i = 0;
  while (i < xpath.size()) {
    Step step;
    if (xpath.compare(i, 2, "//") == 0) {
      step.descendant = true;
      i += 2;
    } else if (xpath[i] == '/') {
      i += 1;
    } else {
      return false;
    }
    const size_t start = i;
    while (i < xpath.size() && xpath[i] != '/') {
      const char c = xpath[i];
      const bool name_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                             (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                             c == '*';
      if (!name_char) return false;
      ++i;
    }
    step.name = std::string(xpath.substr(start, i - start));
    if (step.name.empty() ||
        (step.name.find('*') != std::string::npos && step.name != "*")) {
      return false;
    }
    steps->push_back(std::move(step));
  }
  return !steps->empty();
}

bool Matches(const Document& doc, NodeId n, const std::string& name) {
  return doc.kind(n) == NodeKind::kElement &&
         (name == "*" || doc.LabelName(n) == name);
}

/// The name test of the path's last step (predicates stripped), e.g.
/// "person" for //person[@id='person7'].
std::string FinalNameTest(std::string_view xpath) {
  std::string bare;
  int depth = 0;
  for (const char c : xpath) {
    if (c == '[') ++depth;
    if (depth == 0) bare.push_back(c);
    if (c == ']') --depth;
  }
  size_t cut = bare.find_last_of("/:");
  std::string last = cut == std::string::npos ? bare : bare.substr(cut + 1);
  while (!last.empty() && last.back() == ' ') last.pop_back();
  return last;
}

std::vector<int32_t> ExpectedFor(const Reference& ref, const Request& request,
                                 size_t shard) {
  if (request.query >= 0) {
    return ref.answers[static_cast<size_t>(request.query)][shard];
  }
  const std::vector<int32_t>& keys =
      ref.lookups[static_cast<size_t>(request.kind)][shard];
  if (request.key < 0 || request.key >= static_cast<int64_t>(keys.size()) ||
      keys[static_cast<size_t>(request.key)] < 0) {
    return {};
  }
  return {keys[static_cast<size_t>(request.key)]};
}

// ----------------------------------------------------------- JSON reader

/// A strict reader for the /query response shape; anything unexpected is
/// a parse failure.
class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  void Ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) ++p_;
  }
  bool Peek(char c) {
    Ws();
    return p_ < end_ && *p_ == c;
  }
  bool Lit(char c) {
    if (!Peek(c)) return false;
    ++p_;
    return true;
  }
  bool String(std::string* out) {
    if (!Lit('"')) return false;
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        if (++p_ >= end_) return false;
        switch (*p_) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            if (end_ - p_ < 5) return false;
            out->push_back('?');
            p_ += 4;
            break;
          default: out->push_back(*p_);
        }
        ++p_;
      } else {
        out->push_back(*p_++);
      }
    }
    if (p_ >= end_) return false;
    ++p_;
    return true;
  }
  bool Int(int64_t* out) {
    Ws();
    bool neg = false;
    if (p_ < end_ && *p_ == '-') {
      neg = true;
      ++p_;
    }
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return false;
    int64_t v = 0;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') {
      if (v > (INT64_MAX - 9) / 10) return false;
      v = v * 10 + (*p_++ - '0');
    }
    *out = neg ? -v : v;
    return true;
  }
  bool Key(std::string* key) { return String(key) && Lit(':'); }
  bool AtEnd() {
    Ws();
    return p_ == end_;
  }

 private:
  const char* p_;
  const char* end_;
};

bool ParseRow(JsonReader& r, ParsedRow* row) {
  if (!r.Lit('{')) return false;
  std::string key, ignored;
  do {
    if (!r.Key(&key)) return false;
    if (key == "name") {
      if (!r.String(&row->name)) return false;
    } else if (key == "status") {
      if (!r.String(&row->status)) return false;
    } else if (key == "error") {
      if (!r.String(&ignored)) return false;
    } else if (key == "nodes") {
      if (!r.Lit('[')) return false;
      if (!r.Peek(']')) {
        do {
          int64_t v = 0;
          if (!r.Int(&v)) return false;
          row->nodes.push_back(v);
        } while (r.Lit(','));
      }
      if (!r.Lit(']')) return false;
    } else if (key == "visited") {
      if (!r.Int(&row->visited)) return false;
    } else {
      return false;
    }
  } while (r.Lit(','));
  return r.Lit('}');
}

}  // namespace

// ------------------------------------------------------------- the walk

bool WalkPath(const Document& doc, std::string_view xpath,
              std::vector<int32_t>* out) {
  std::vector<Step> steps;
  if (!ParseSimplePath(xpath, &steps)) return false;
  const NodeId n = doc.num_nodes();
  std::vector<int32_t> cur;
  // The first step starts at the virtual document node above the root.
  if (n > 0) {
    if (steps[0].descendant) {
      for (NodeId v = 0; v < n; ++v) {
        if (Matches(doc, v, steps[0].name)) cur.push_back(v);
      }
    } else if (Matches(doc, 0, steps[0].name)) {
      cur.push_back(0);
    }
  }
  for (size_t s = 1; s < steps.size(); ++s) {
    std::vector<int32_t> next;
    if (steps[s].descendant) {
      // cur is in document order: a node inside an already-swept subtree
      // adds nothing, so each node is visited at most once.
      NodeId covered = 0;
      for (const int32_t v : cur) {
        const NodeId end = doc.XmlEnd(v);
        for (NodeId d = std::max<NodeId>(v + 1, covered); d < end; ++d) {
          if (Matches(doc, d, steps[s].name)) next.push_back(d);
        }
        covered = std::max(covered, end);
      }
    } else {
      for (const int32_t v : cur) {
        for (NodeId c = doc.first_child(v); c != xpwqo::kNullNode;
             c = doc.next_sibling(c)) {
          if (Matches(doc, c, steps[s].name)) next.push_back(c);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
    }
    cur.swap(next);
  }
  *out = std::move(cur);
  return true;
}

std::vector<int32_t> WalkIds(const Document& doc, std::string_view kind) {
  std::vector<int32_t> keys;
  const std::string attr = "@id";
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    if (doc.kind(v) != NodeKind::kElement || doc.LabelName(v) != kind) continue;
    for (NodeId c = doc.first_child(v);
         c != xpwqo::kNullNode && doc.kind(c) == NodeKind::kAttribute;
         c = doc.next_sibling(c)) {
      if (doc.LabelName(c) != attr) continue;
      const std::string& value = doc.text(c);
      if (value.compare(0, kind.size(), kind) != 0) continue;
      const std::string digits = value.substr(kind.size());
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      const size_t key = std::stoul(digits);
      if (key >= keys.size()) keys.resize(key + 1, -1);
      keys[key] = v;
    }
  }
  return keys;
}

// ------------------------------------------------------------ reference

Reference ComputeReference(const std::vector<Document>& docs,
                           const std::vector<int64_t>& xml_bytes) {
  Reference ref;
  std::unordered_map<std::string, uint16_t> label_index;
  for (size_t s = 0; s < docs.size(); ++s) {
    const Document& doc = docs[s];
    ShardRef shard;
    shard.name = ShardName(static_cast<int>(s));
    shard.num_nodes = doc.num_nodes();
    shard.xml_bytes = xml_bytes[s];
    shard.labels.resize(static_cast<size_t>(doc.num_nodes()));
    for (NodeId v = 0; v < doc.num_nodes(); ++v) {
      const std::string& name = doc.LabelName(v);
      auto [it, fresh] = label_index.emplace(
          name, static_cast<uint16_t>(ref.label_names.size()));
      if (fresh) ref.label_names.push_back(name);
      shard.labels[static_cast<size_t>(v)] = it->second;
    }
    ref.shards.push_back(std::move(shard));
  }
  ref.lookups.resize(kLookupKinds);
  for (int k = 0; k < kLookupKinds; ++k) {
    for (const Document& doc : docs) {
      ref.lookups[static_cast<size_t>(k)].push_back(WalkIds(doc, kLookupKind[k]));
    }
  }
  for (const xpwqo::WorkloadQuery& q : xpwqo::Figure2Workload()) {
    std::vector<std::vector<int32_t>> per_shard;
    for (const Document& doc : docs) {
      std::vector<int32_t> ids;
      if (!WalkPath(doc, q.xpath, &ids)) {
        auto baseline = xpwqo::EvalNodeSetBaseline(std::string(q.xpath), doc);
        if (!baseline.ok()) {
          std::fprintf(stderr, "xpbench: baseline failed on %s: %s\n", q.id,
                       baseline.status().ToString().c_str());
          std::exit(1);
        }
        ids.assign(baseline->begin(), baseline->end());
      }
      per_shard.push_back(std::move(ids));
    }
    ref.answers.push_back(std::move(per_shard));
  }
  return ref;
}

std::vector<int64_t> Reference::KeyRanges() const {
  std::vector<int64_t> ranges;
  for (const auto& per_shard : lookups) {
    // The dense prefix of keys present in every shard.
    int64_t n = INT64_MAX;
    for (const std::vector<int32_t>& keys : per_shard) {
      int64_t dense = 0;
      while (dense < static_cast<int64_t>(keys.size()) &&
             keys[static_cast<size_t>(dense)] >= 0) {
        ++dense;
      }
      n = std::min(n, dense);
    }
    ranges.push_back(per_shard.empty() ? 0 : n);
  }
  return ranges;
}

int64_t Reference::xml_bytes() const {
  int64_t total = 0;
  for (const ShardRef& s : shards) total += s.xml_bytes;
  return total;
}

int64_t Reference::num_nodes() const {
  int64_t total = 0;
  for (const ShardRef& s : shards) total += s.num_nodes;
  return total;
}

namespace {

// The reference file is binary (native byte order; it never leaves the
// work directory of the run that wrote it): a magic word, then every list
// as a uint64 length followed by its raw elements. Load reads the lists
// straight into their vectors, so the serving process holds no text copy.
constexpr uint64_t kMagic = 0x3166657262707878ull;  // "xxpbref1"

bool WriteU64(std::FILE* f, uint64_t v) { return std::fwrite(&v, 8, 1, f) == 1; }

bool ReadU64(std::FILE* f, uint64_t* v) { return std::fread(v, 8, 1, f) == 1; }

template <typename T>
bool WriteList(std::FILE* f, const std::vector<T>& v) {
  return WriteU64(f, v.size()) &&
         std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
}

template <typename T>
bool ReadList(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadU64(f, &n) || n > (uint64_t{1} << 32)) return false;
  v->resize(n);
  return std::fread(v->data(), sizeof(T), n, f) == n;
}

bool WriteString(std::FILE* f, const std::string& s) {
  return WriteList(f, std::vector<char>(s.begin(), s.end()));
}

bool ReadString(std::FILE* f, std::string* s) {
  std::vector<char> chars;
  if (!ReadList(f, &chars)) return false;
  s->assign(chars.begin(), chars.end());
  return true;
}

}  // namespace

bool Reference::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = WriteU64(f, kMagic) && WriteU64(f, label_names.size());
  for (const std::string& name : label_names) ok = ok && WriteString(f, name);
  ok = ok && WriteU64(f, shards.size());
  for (const ShardRef& s : shards) {
    ok = ok && WriteString(f, s.name) &&
         WriteU64(f, static_cast<uint64_t>(s.num_nodes)) &&
         WriteU64(f, static_cast<uint64_t>(s.xml_bytes)) && WriteList(f, s.labels);
  }
  for (const auto& per_shard : lookups) {
    for (const auto& keys : per_shard) ok = ok && WriteList(f, keys);
  }
  ok = ok && WriteU64(f, answers.size());
  for (const auto& per_shard : answers) {
    for (const auto& ids : per_shard) ok = ok && WriteList(f, ids);
  }
  return std::fclose(f) == 0 && ok;
}

bool Reference::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t magic = 0, n = 0;
  bool ok = ReadU64(f, &magic) && magic == kMagic && ReadU64(f, &n) && n < 65536;
  if (ok) label_names.resize(n);
  for (std::string& name : label_names) ok = ok && ReadString(f, &name);
  ok = ok && ReadU64(f, &n) && n < 65536;
  if (ok) shards.resize(n);
  for (ShardRef& s : shards) {
    uint64_t nodes = 0, bytes = 0;
    ok = ok && ReadString(f, &s.name) && ReadU64(f, &nodes) &&
         ReadU64(f, &bytes) && ReadList(f, &s.labels);
    s.num_nodes = static_cast<int32_t>(nodes);
    s.xml_bytes = static_cast<int64_t>(bytes);
  }
  lookups.assign(kLookupKinds, std::vector<std::vector<int32_t>>(shards.size()));
  for (auto& per_shard : lookups) {
    for (auto& keys : per_shard) ok = ok && ReadList(f, &keys);
  }
  ok = ok && ReadU64(f, &n) && n < 65536;
  if (ok) answers.assign(n, std::vector<std::vector<int32_t>>(shards.size()));
  for (auto& per_shard : answers) {
    for (auto& ids : per_shard) ok = ok && ReadList(f, &ids);
  }
  std::fclose(f);
  return ok;
}

// -------------------------------------------------------------- checker

bool ParseQueryResponse(std::string_view body, ParsedResponse* out,
                        std::string* error) {
  JsonReader r(body);
  *out = ParsedResponse();
  std::string key, ignored;
  bool ok = r.Lit('{');
  while (ok) {
    if (!r.Key(&key)) {
      ok = false;
      break;
    }
    int64_t latency = 0;
    if (key == "query") {
      ok = r.String(&ignored);
    } else if (key == "documents") {
      ok = r.Lit('[');
      if (ok && !r.Peek(']')) {
        do {
          out->rows.emplace_back();
          ok = ParseRow(r, &out->rows.back());
        } while (ok && r.Lit(','));
      }
      ok = ok && r.Lit(']');
    } else if (key == "status") {
      ok = r.String(&out->status);
    } else if (key == "total_nodes") {
      ok = r.Int(&out->total_nodes);
    } else if (key == "total_visited") {
      ok = r.Int(&out->total_visited);
    } else if (key == "latency_us") {
      ok = r.Int(&latency);
    } else {
      ok = false;
    }
    if (ok && !r.Lit(',')) break;
  }
  ok = ok && r.Lit('}') && r.AtEnd();
  if (!ok) *error = "malformed response body";
  return ok;
}

bool CheckShard(const Reference& ref, const Request& request, size_t shard,
                const std::vector<int64_t>& nodes, int64_t visited,
                std::string* error) {
  const ShardRef& s = ref.shards[shard];
  const std::string final_test = FinalNameTest(request.xpath);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t v = nodes[i];
    if (i > 0 && v <= nodes[i - 1]) {
      *error = s.name + ": node ids not strictly increasing";
      return false;
    }
    if (v < 0 || v >= s.num_nodes) {
      *error = s.name + ": node id out of range";
      return false;
    }
    const std::string& label = ref.label_names[s.labels[static_cast<size_t>(v)]];
    const bool element = !label.empty() && label[0] != '#' && label[0] != '@';
    if (!element || (final_test != "*" && label != final_test)) {
      *error = s.name + ": node " + std::to_string(v) + " labelled " + label +
               ", not " + final_test;
      return false;
    }
  }
  if (visited < static_cast<int64_t>(nodes.size())) {
    *error = s.name + ": visited below nodes returned";
    return false;
  }
  const std::vector<int32_t> expected = ExpectedFor(ref, request, shard);
  if (!std::equal(nodes.begin(), nodes.end(), expected.begin(), expected.end())) {
    *error = s.name + ": answer differs from the reference (" +
             std::to_string(nodes.size()) + " nodes, expected " +
             std::to_string(expected.size()) + ")";
    return false;
  }
  return true;
}

bool CheckResponse(const Reference& ref, const Request& request,
                   const ParsedResponse& response, std::string* error) {
  if (response.status != "OK") {
    *error = "response status " + response.status;
    return false;
  }
  if (response.rows.size() != ref.shards.size()) {
    *error = "expected one row per shard";
    return false;
  }
  int64_t nodes = 0, visited = 0;
  for (size_t s = 0; s < response.rows.size(); ++s) {
    const ParsedRow& row = response.rows[s];
    if (row.name != ref.shards[s].name || row.status != "OK") {
      *error = "row " + std::to_string(s) + " is " + row.name + "/" + row.status;
      return false;
    }
    if (!CheckShard(ref, request, s, row.nodes, row.visited, error)) return false;
    nodes += static_cast<int64_t>(row.nodes.size());
    visited += row.visited;
  }
  if (response.total_nodes != nodes || response.total_visited != visited) {
    *error = "totals do not add up";
    return false;
  }
  return true;
}

// ------------------------------------------------------------ self-test

bool SelfTest(std::string* error) {
  // <site>                                           0
  //   <listitem><keyword/><parlist><keyword/></parlist></listitem>
  //                                                  1, 2, 3, 4
  //   <keyword/>                                     5
  //   <listitem><parlist><listitem><keyword>hot</keyword>
  //     </listitem></parlist></listitem>             6, 7, 8, 9, 10 (#text)
  //   <person id="person1"/>                         11, 12 (@id)
  //   <person id="person0"><keyword/></person>       13, 14 (@id), 15
  // </site>
  xpwqo::TreeBuilder b;
  b.BeginElement("site");
  b.BeginElement("listitem");
  b.BeginElement("keyword"); b.EndElement();
  b.BeginElement("parlist");
  b.BeginElement("keyword"); b.EndElement();
  b.EndElement();
  b.EndElement();
  b.BeginElement("keyword"); b.EndElement();
  b.BeginElement("listitem");
  b.BeginElement("parlist");
  b.BeginElement("listitem");
  b.BeginElement("keyword"); b.AddText("hot"); b.EndElement();
  b.EndElement();
  b.EndElement();
  b.EndElement();
  b.BeginElement("person"); b.AddAttribute("id", "person1"); b.EndElement();
  b.BeginElement("person"); b.AddAttribute("id", "person0");
  b.BeginElement("keyword"); b.EndElement();
  b.EndElement();
  b.EndElement();
  auto built = b.Finish();
  if (!built.ok() || built->num_nodes() != 16) {
    *error = "self-test document did not build as drawn";
    return false;
  }
  std::vector<Document> docs;
  docs.push_back(std::move(built).value());
  const Document& doc = docs[0];

  struct Known {
    const char* xpath;
    std::vector<int32_t> ids;
  };
  const Known known[] = {
      {"//listitem//keyword", {2, 4, 9}},
      {"/site//keyword", {2, 4, 5, 9, 15}},
      {"/site/keyword", {5}},
      {"//parlist//listitem", {8}},
      {"/site/*", {1, 5, 6, 11, 13}},
      {"//listitem/parlist/listitem/keyword", {9}},
      {"/site/listitem//keyword", {2, 4, 9}},
  };
  for (const Known& k : known) {
    std::vector<int32_t> got;
    if (!WalkPath(doc, k.xpath, &got) || got != k.ids) {
      *error = std::string("walk disagrees with the drawn answer of ") + k.xpath;
      return false;
    }
  }
  std::vector<int32_t> unused;
  if (WalkPath(doc, "//person[@id='person1']", &unused)) {
    *error = "walk accepted a predicate path";
    return false;
  }
  if (WalkIds(doc, "person") != std::vector<int32_t>{13, 11}) {
    *error = "id walk disagrees with the drawn document";
    return false;
  }

  // The checker on one-shard responses: the correct answer passes, each
  // corruption is refused.
  const Reference ref = ComputeReference(docs, {0});
  Request q05;
  q05.query = 4;
  q05.xpath = xpwqo::Figure2Workload()[4].xpath;
  Request hit;
  hit.kind = 0;
  hit.key = 1;
  hit.xpath = LookupXPath(0, 1);
  Request miss = hit;
  miss.key = 7;
  miss.xpath = LookupXPath(0, 7);
  auto body = [](const std::string& nodes, int visited, int total_nodes,
                 int total_visited, const char* status = "OK",
                 const char* name = "shard0") {
    return std::string("{\"query\":\"x\",\"documents\":[{\"name\":\"") + name +
           "\",\"status\":\"" + status + "\",\"nodes\":[" + nodes +
           "],\"visited\":" + std::to_string(visited) +
           "}],\"status\":\"OK\",\"total_nodes\":" + std::to_string(total_nodes) +
           ",\"total_visited\":" + std::to_string(total_visited) +
           ",\"latency_us\":12}\n";
  };
  struct Case {
    const Request* request;
    std::string body;
    bool pass;
    const char* what;
  };
  const Case cases[] = {
      {&q05, body("2,4,9", 7, 3, 7), true, "correct answer"},
      {&hit, body("11", 3, 1, 3), true, "correct lookup hit"},
      {&miss, body("", 3, 0, 3), true, "correct lookup miss"},
      {&q05, body("2,9,4", 7, 3, 7), false, "out-of-order ids"},
      {&q05, body("2,4", 7, 2, 7), false, "missing node"},
      {&q05, body("2,4,9,15", 7, 4, 7), false, "extra node"},
      {&q05, body("2,4,10", 7, 3, 7), false, "text node in place of keyword"},
      {&q05, body("2,4,9", 2, 3, 2), false, "visited below nodes returned"},
      {&q05, body("2,4,9", 7, 4, 7), false, "wrong total"},
      {&q05, body("2,4,9", 7, 3, 7, "Corruption"), false, "failed row"},
      {&q05, body("2,4,9", 7, 3, 7, "OK", "shard9"), false, "wrong row name"},
      {&hit, body("13", 3, 1, 3), false, "wrong lookup node"},
      {&miss, body("11", 3, 1, 3), false, "miss answered"},
      {&q05, body("2,4,9", 7, 3, 7).substr(0, 40), false, "truncated body"},
  };
  for (const Case& c : cases) {
    ParsedResponse parsed;
    std::string why;
    const bool pass = ParseQueryResponse(c.body, &parsed, &why) &&
                      CheckResponse(ref, *c.request, parsed, &why);
    if (pass != c.pass) {
      *error = std::string("checker self-test: ") + c.what +
               (c.pass ? " was refused: " + why : " was accepted");
      return false;
    }
  }
  return true;
}

}  // namespace xpbench
