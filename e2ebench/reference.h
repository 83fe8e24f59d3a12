// Reference answers, computed apart from the served path, and the checker
// every response goes through.
//
// The reference is computed once per seed from the generator's pointer
// Documents, before anything is indexed: a plain tree walk for the
// predicate-free child/descendant paths and the [@id='v'] lookups, and
// EvalNodeSetBaseline (the set-at-a-time oracle over the pointer tree) for
// the Figure-2 queries with predicates. The served path reparses the
// serialized XML into succinct images; node ids are preorder ranks in both,
// so answers compare id for id.
#ifndef XPBENCH_REFERENCE_H_
#define XPBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "tree/document.h"

namespace xpbench {

struct ShardRef {
  std::string name;
  int32_t num_nodes = 0;
  int64_t xml_bytes = 0;
  std::vector<uint16_t> labels;  // per node, index into label_names
};

struct Reference {
  std::vector<std::string> label_names;
  std::vector<ShardRef> shards;
  /// lookups[kind][shard][key] = node id of the element whose @id is
  /// "<kind><key>" (keys are dense from 0 in every generated shard).
  std::vector<std::vector<std::vector<int32_t>>> lookups;
  /// answers[query][shard] = node ids of Figure2Workload()[query].
  std::vector<std::vector<std::vector<int32_t>>> answers;

  /// Per kind: keys 0..n-1 exist in every shard.
  std::vector<int64_t> KeyRanges() const;
  int64_t xml_bytes() const;
  int64_t num_nodes() const;

  bool Save(const std::string& path) const;
  bool Load(const std::string& path);
};

/// Computes the reference over the generator's documents (shard i is
/// docs[i], serialized to xml_bytes[i] bytes).
Reference ComputeReference(const std::vector<xpwqo::Document>& docs,
                           const std::vector<int64_t>& xml_bytes);

/// The tree walk for predicate-free paths of '/' and '//' steps with name
/// tests or '*' (e.g. //listitem//keyword, /site/regions/*/item). Returns
/// false, leaving `out` untouched, for any other path.
bool WalkPath(const xpwqo::Document& doc, std::string_view xpath,
              std::vector<int32_t>* out);

/// keys[k] = node of the `kind` element whose @id is "<kind>k", or -1.
std::vector<int32_t> WalkIds(const xpwqo::Document& doc,
                             std::string_view kind);

/// One /query response body, as the server writes it.
struct ParsedRow {
  std::string name;
  std::string status;
  std::vector<int64_t> nodes;
  int64_t visited = -1;
};
struct ParsedResponse {
  std::string status;
  std::vector<ParsedRow> rows;
  int64_t total_nodes = -1;
  int64_t total_visited = -1;
};
bool ParseQueryResponse(std::string_view body, ParsedResponse* out,
                        std::string* error);

/// Checks one shard's answer to `request`: equal to the reference, node ids
/// strictly increasing and in range, every node an element labelled by the
/// path's final name test, and visited >= nodes returned.
bool CheckShard(const Reference& ref, const Request& request, size_t shard,
                const std::vector<int64_t>& nodes, int64_t visited,
                std::string* error);

/// Checks a whole /query response: one OK row per shard in collection
/// order, each passing CheckShard, and totals that add up.
bool CheckResponse(const Reference& ref, const Request& request,
                   const ParsedResponse& response, std::string* error);

/// Runs the walk on a small hand-written document with known answers, and
/// feeds the checker deliberately corrupted responses, each of which must
/// be refused. Returns false (with the reason) when anything disagrees.
bool SelfTest(std::string* error);

}  // namespace xpbench

#endif  // XPBENCH_REFERENCE_H_
