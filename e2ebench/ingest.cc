// The ingest stage: XML files → Collection::LoadAll (succinct,
// kLoadThreads) → SaveCollection → OpenCollection + first touch, each reopened
// image checked against the reference. One op ingests the whole
// collection; the ingest workload repeats ops for --seconds, the query
// workloads run a few as set-up and keep the last images.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "persist/index_image.h"
#include "stages.h"
#include "xmark/workload.h"

namespace xpbench {

using xpwqo::Collection;

std::string ImagesDir(const Options& o) { return o.dir + "/images"; }

std::string XmlPath(const Options& o, int shard) {
  return o.dir + "/xml/" + ShardName(shard) + ".xml";
}

bool LoadReference(const Options& o, Reference* ref) {
  if (!ref->Load(o.dir + "/reference.bin") ||
      ref->shards.size() != static_cast<size_t>(kShards)) {
    std::fprintf(stderr, "xpbench: no reference in %s (run prepare)\n",
                 o.dir.c_str());
    return false;
  }
  return true;
}

Collection OpenServingCollection(const std::string& images) {
  auto opened = xpwqo::OpenCollection(images);
  if (!opened.ok()) {
    std::fprintf(stderr, "xpbench: OpenCollection: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  for (const std::string& name : opened->names()) {
    auto engine = opened->Get(name);
    if (!engine.ok()) {
      std::fprintf(stderr, "xpbench: first touch of %s: %s\n", name.c_str(),
                   engine.status().ToString().c_str());
      std::exit(1);
    }
  }
  return std::move(opened).value();
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

namespace {

/// Checks a reopened collection: every shard has the reference's node
/// count, and answers `requests` exactly as the reference does.
bool CheckCollection(const Reference& ref, const Collection& c,
                     const std::vector<Request>& requests, std::string* error) {
  if (c.names().size() != ref.shards.size()) {
    *error = "reopened collection has the wrong shard count";
    return false;
  }
  for (size_t s = 0; s < ref.shards.size(); ++s) {
    auto engine = c.Get(ref.shards[s].name);
    if (!engine.ok() || (*engine)->num_nodes() != ref.shards[s].num_nodes) {
      *error = ref.shards[s].name + ": reopened image has the wrong node count";
      return false;
    }
  }
  for (const Request& r : requests) {
    auto prepared = c.Prepare(r.xpath);
    if (!prepared.ok()) {
      *error = r.xpath + ": " + prepared.status().ToString();
      return false;
    }
    for (size_t s = 0; s < ref.shards.size(); ++s) {
      auto cursor = c.OpenCursor(ref.shards[s].name, *prepared);
      if (!cursor.ok()) {
        *error = r.xpath + ": " + cursor.status().ToString();
        return false;
      }
      const std::vector<xpwqo::NodeId> got = cursor->Drain();
      const xpwqo::CursorStats stats = cursor->TakeStats();
      const std::vector<int64_t> nodes(got.begin(), got.end());
      if (!CheckShard(ref, r, s, nodes,
                      stats.eval.nodes_visited + stats.hybrid.nodes_visited,
                      error)) {
        *error = r.xpath + ": " + *error;
        return false;
      }
    }
  }
  return true;
}

/// What every reopened image answers before it counts: the full Figure-2
/// set on the first op, and on every op a path query, a predicate query and
/// a hit and a miss of each lookup kind.
std::vector<Request> CheckSet(const Reference& ref, bool full) {
  std::vector<Request> out;
  const auto& queries = xpwqo::Figure2Workload();
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!full && q != 1 && q != 6) continue;  // Q02, Q07
    Request r;
    r.query = static_cast<int>(q);
    r.xpath = queries[q].xpath;
    out.push_back(r);
  }
  const std::vector<int64_t> ranges = ref.KeyRanges();
  for (int k = 0; k < kLookupKinds; ++k) {
    for (const int64_t key : {ranges[static_cast<size_t>(k)] / 2,
                              ranges[static_cast<size_t>(k)] + 3}) {
      Request r;
      r.kind = k;
      r.key = key;
      r.xpath = LookupXPath(k, key);
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

int RunIngest(const Options& o) {
  Reference ref;
  if (!LoadReference(o, &ref)) return 1;
  const double rss_before_load = PeakRssMb();  // binary + reference answers
  std::vector<Collection::BulkLoadSpec> specs;
  for (int s = 0; s < kShards; ++s) {
    Collection::BulkLoadSpec spec;
    spec.name = ShardName(s);
    spec.path = XmlPath(o, s);
    spec.options.backend = xpwqo::TreeBackend::kSuccinct;
    specs.push_back(spec);
  }
  const std::string images = ImagesDir(o);
  const double xml_mb = static_cast<double>(ref.xml_bytes()) / 1e6;
  const std::vector<Request> full_check = CheckSet(ref, true);
  const std::vector<Request> op_check = CheckSet(ref, false);

  std::vector<double> op_ms, open_ms, mb_s;
  // The two halves of the timed build, and its CPU time: the stderr summary
  // shows whether a slow op waited (for the fsyncs of SaveCollection, or
  // for a vCPU) or ran on a slower CPU. The CPU time is
  // not split: a joined thread's CPU time may reach the process's total
  // only after join returns.
  std::vector<double> load_ms, save_ms, build_cpu_ms;
  const int64_t steal0 = StealTicks();
  int64_t attempted = 0, failed = 0, wrong = 0;
  int64_t image_bytes = 0, reopened_nodes = 0;
  const Clock::time_point start = Clock::now();
  const auto done = [&] {
    return o.rounds > 0 ? attempted >= o.rounds
                        : MsSince(start, Clock::now()) >= o.seconds * 1000;
  };
  while (!done()) {
    ++attempted;
    std::filesystem::remove_all(images);
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    Collection built;
    const Collection::BulkLoadReport report =
        built.LoadAll(specs, kLoadThreads);
    const Clock::time_point t1 = Clock::now();
    const xpwqo::Status saved = xpwqo::SaveCollection(built, images);
    const Clock::time_point t2 = Clock::now();
    const double cpu2 = ProcessCpuMs();
    {
      Collection discard = std::move(built);  // teardown is not timed
    }
    const Clock::time_point t3 = Clock::now();
    if (report.failed != 0 || !saved.ok()) {
      ++failed;
      std::fprintf(stderr, "xpbench: ingest op %lld failed: %s\n",
                   static_cast<long long>(attempted),
                   !saved.ok() ? saved.ToString().c_str()
                               : "LoadAll failed a shard");
    } else {
      std::string error;
      Collection reopened = OpenServingCollection(images);
      const Clock::time_point t4 = Clock::now();
      op_ms.push_back(MsSince(t0, t2) + MsSince(t3, t4));
      open_ms.push_back(MsSince(t3, t4));
      load_ms.push_back(MsSince(t0, t1));
      save_ms.push_back(MsSince(t1, t2));
      build_cpu_ms.push_back(cpu2 - cpu0);
      mb_s.push_back(xml_mb / (MsSince(t0, t2) / 1000.0));
      if (!CheckCollection(ref, reopened,
                           attempted == 1 ? full_check : op_check, &error)) {
        ++wrong;
        std::fprintf(stderr, "xpbench: ingest op %lld answered wrong: %s\n",
                     static_cast<long long>(attempted), error.c_str());
      }
      image_bytes = DirectoryBytes(images);
      for (const std::string& name : reopened.names()) {
        reopened_nodes += (*reopened.Get(name))->num_nodes();
      }
    }
  }

  Report report;
  // Best of the run's ops (the paper's best-of protocol, as in
  // bench/bench_util's BestOfMs): under a noisy neighbour most ops slow
  // down, the fastest hardly does.
  report.Add("ingest_mb_s",
             mb_s.empty() ? 0.0 : *std::max_element(mb_s.begin(), mb_s.end()),
             "MB/s");
  report.Add("image_bytes_per_xml_byte",
             static_cast<double>(image_bytes) / static_cast<double>(ref.xml_bytes()),
             "ratio");
  if (o.rounds == 0) {
    // The ingest workload: one op is one whole-collection ingest.
    double total_ms = 0;
    for (const double ms : op_ms) total_ms += ms;
    report.Add("qps", static_cast<double>(op_ms.size()) / (total_ms / 1000.0),
               "req/s");
    report.Add("p50_ms", Median(op_ms), "ms");
    // Over every op: an op spans ~100 ms of work, of which a steal stall is
    // a small part rather than its whole tail.
    report.Add("tail_ms", TailValue(op_ms), "ms");
    // Nodes indexed per op, as the reopened images count them.
    report.Add("visited_per_req",
               static_cast<double>(reopened_nodes) /
                   static_cast<double>(std::max<size_t>(op_ms.size(), 1)),
               "nodes");
    report.Add("setup_s", Median(open_ms) / 1000.0, "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  std::fprintf(stderr,
               "xpbench: %lld ingest ops, median %.1f ms, %.1f MB/s; host steal "
               "%lld ticks; median LoadAll %.1f ms + SaveCollection %.1f ms "
               "(%.1f ms CPU), reopen %.1f ms; peak RSS %.1f MB before the "
               "first op\n",
               static_cast<long long>(attempted), Median(op_ms), Median(mb_s),
               static_cast<long long>(StealTicks() - steal0), Median(load_ms),
               Median(save_ms), Median(build_cpu_ms), Median(open_ms),
               rss_before_load);
  report.Print(wrong == 0, attempted, failed);
  return 0;
}

}  // namespace xpbench
