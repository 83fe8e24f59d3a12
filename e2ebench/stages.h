// The measuring stages of xpbench (see main.cc for the command line).
#ifndef XPBENCH_STAGES_H_
#define XPBENCH_STAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/collection.h"
#include "reference.h"

namespace xpbench {

struct Options {
  std::string command;
  std::string dir;  // work directory: xml/, reference.bin, images/
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int rounds = 0;  // ingest: fixed op count (set-up use) instead of seconds
  bool trace = false;
};

/// Ingestion: LoadAll + SaveCollection + reopen, checked. With --rounds it
/// runs a fixed number of ops and reports only the ingest metrics (the
/// query workloads' set-up); with --seconds it is the ingest workload.
int RunIngest(const Options& o);

/// The untraced closed-loop HTTP run of path_mix / point_lookup.
int RunServe(const Options& o);

/// The traced run: the same inputs replayed down the ladder of entry
/// points, reporting the per-layer metrics and dumping the spans.
int RunTraced(const Options& o);

// Helpers shared by the stages.

bool LoadReference(const Options& o, Reference* ref);
std::string ImagesDir(const Options& o);
std::string XmlPath(const Options& o, int shard);

/// OpenCollection + first touch of every shard: what a restarted xpathd
/// pays before its first answer. Exits the process on failure.
xpwqo::Collection OpenServingCollection(const std::string& images);

std::string QueryTarget(const std::string& xpath);

/// Sum of the sizes of the regular files under `dir`.
int64_t DirectoryBytes(const std::string& dir);

}  // namespace xpbench

#endif  // XPBENCH_STAGES_H_
