// xpbench: the end-to-end benchmark binary. run.py calls it in stages, each
// a separate process so the serving (or ingesting) process's peak memory is
// its own:
//
//   xpbench selftest                       walk + checker self-test
//   xpbench prepare --dir D --seed S       XMark shards + reference answers
//   xpbench ingest  --dir D --seed S (--rounds N | --seconds N)
//   xpbench serve   --dir D --seed S --workload W --seconds N --trace 0|1
//   xpbench info                           compiler and build type
//
// Every stage prints its result as one JSON line on stdout (progress goes
// to stderr) and exits non-zero when it could not run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common.h"
#include "reference.h"
#include "stages.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xpbench {
namespace {

int Prepare(const Options& o) {
  const Clock::time_point t0 = Clock::now();
  std::filesystem::create_directories(o.dir + "/xml");
  std::vector<xpwqo::Document> docs;
  std::vector<int64_t> bytes;
  for (int s = 0; s < kShards; ++s) {
    xpwqo::XMarkOptions opt;
    opt.scale = kShardScale;
    opt.seed = SubSeed(o.seed, static_cast<uint64_t>(s));
    docs.push_back(xpwqo::GenerateXMark(opt));
    const std::string xml = xpwqo::SerializeXml(docs.back());
    const std::string path = o.dir + "/xml/" + ShardName(s) + ".xml";
    // Flushed to disk here, so no writeback of the inputs lands inside a
    // measured fsync later (SaveCollection syncs every image it writes).
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr || std::fwrite(xml.data(), 1, xml.size(), f) != xml.size() ||
        std::fflush(f) != 0 || fsync(fileno(f)) != 0 || std::fclose(f) != 0) {
      std::fprintf(stderr, "xpbench: cannot write %s\n", path.c_str());
      return 1;
    }
    bytes.push_back(static_cast<int64_t>(xml.size()));
  }
  const Reference ref = ComputeReference(docs, bytes);
  if (!ref.Save(o.dir + "/reference.bin")) {
    std::fprintf(stderr, "xpbench: cannot write the reference\n");
    return 1;
  }
  std::string ranges;
  for (const int64_t n : ref.KeyRanges()) ranges += " " + std::to_string(n);
  std::fprintf(stderr,
               "xpbench: %d shards, %lld nodes, %lld bytes of XML, key "
               "ranges%s (%.0f ms)\n",
               kShards, static_cast<long long>(ref.num_nodes()),
               static_cast<long long>(ref.xml_bytes()), ranges.c_str(),
               MsSince(t0, Clock::now()));
  std::printf("{\"nodes\": %lld, \"xml_bytes\": %lld}\n",
              static_cast<long long>(ref.num_nodes()),
              static_cast<long long>(ref.xml_bytes()));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xpbench selftest | info\n"
               "       xpbench prepare --dir D --seed S\n"
               "       xpbench ingest --dir D --seed S (--rounds N | "
               "--seconds N)\n"
               "       xpbench serve --dir D --seed S --workload W "
               "--seconds N --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace xpbench

int main(int argc, char** argv) {
  using namespace xpbench;
  if (argc < 2) return Usage();
  Options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--dir") {
      o.dir = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--rounds") {
      o.rounds = std::atoi(value);
    } else if (flag == "--trace") {
      o.trace = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (o.command == "info") {
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                XPBENCH_COMPILER, XPBENCH_BUILD_TYPE);
    return 0;
  }
  if (o.command == "selftest") {
    std::string error;
    if (!SelfTest(&error)) {
      std::fprintf(stderr, "xpbench: self-test failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("{\"selftest\": \"ok\"}\n");
    return 0;
  }
  if (o.dir.empty()) return Usage();
  if (o.command == "prepare") return Prepare(o);
  if (o.command == "ingest") return RunIngest(o);
  if (o.command == "serve") {
    if (o.workload != "path_mix" && o.workload != "point_lookup" &&
        o.workload != "ingest") {
      return Usage();
    }
    return o.trace ? RunTraced(o) : RunServe(o);
  }
  return Usage();
}
