// The traced run: the workload's inputs replayed down a ladder of public
// entry points, one call at a time, with a span around each call. Adjacent
// rungs differ by one layer, so a layer's self time is the difference
// between them:
//
//   query:   HTTP GET /query  (net + everything below)
//            ServingRuntime::Execute  (serve + prepare-on-miss + cursors)
//            PreparedQuery::Prepare, uncached  (core)
//            Collection::OpenCursor + Drain per shard  (eval + filter)
//            ... and, for value queries, the same over the relaxed
//            structural query (eval without the filter)
//   ingest:  ScanStructural → Engine::FromXmlFile (succinct) →
//            SaveIndexImage → ValidateIndexImage / OpenIndexImage
//   set-up:  OpenCollection → first touch of each shard
//
// Each rung owns its own collection (and so its own query cache), and all
// see the same request sequence, so every rung sees the same cache state.
// Spans are kept in memory and written as JSON lines to <dir>/spans.jsonl.
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"
#include "stages.h"
#include "xmark/workload.h"
#include "xml/structural_scan.h"
#include "xpath/ast.h"

namespace xpbench {

using xpwqo::Collection;

namespace {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  std::string name;
  std::string detail;
  double start_us = 0, end_us = 0;
  double ms() const { return (end_us - start_us) / 1000.0; }
};

/// In-memory span recorder (the traced run is single-threaded).
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int64_t Begin(std::string name, int64_t parent = -1, int64_t request = -1,
                std::string detail = {}) {
    Span s;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.start_us = Now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Ends the span and returns its duration in ms.
  double End(int64_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_us = Now();
    return s.ms();
  }

  bool Dump(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::string detail;
      for (const char c : s.detail) {
        if (c == '"' || c == '\\') detail.push_back('\\');
        detail.push_back(c);
      }
      std::fprintf(f,
                   "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                   "\"name\": \"%s\", \"detail\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f}\n",
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name.c_str(),
                   detail.c_str(), s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xpbench: traced run: %s\n", what.c_str());
  std::exit(1);
}

// ------------------------------------------------------------ ingest ladder

struct IngestLadder {
  std::vector<double> scan_ms, load_ms, save_ms, validate_ms, open_ms;  // per rep
  int64_t image_bytes = 0;
  xpwqo::IndexMemoryReport memory;  // summed over shards (last rep)
};

void RunIngestLadder(const Options& o, const Reference& ref, Tracer* tr,
                     IngestLadder* out) {
  double scan = 0, load = 0, save = 0, validate = 0, open = 0;
  const int64_t rep = tr->Begin("ingest_ladder");
  out->memory = {};
  out->image_bytes = 0;
  std::filesystem::create_directories(o.dir + "/traced_images");
  for (int s = 0; s < kShards; ++s) {
    const std::string xml = ReadFile(XmlPath(o, s));
    const std::string name = ShardName(s);
    xpwqo::StructuralTape tape;
    int64_t span = tr->Begin("scan_structural", rep, -1, name);
    xpwqo::ScanStructural(xml.data(), xml.size(), 0, &tape);
    scan += tr->End(span);
    if (tape.lt.empty()) Die(name + ": structural scan found no tags");

    xpwqo::LoadOptions load_options;
    load_options.backend = xpwqo::TreeBackend::kSuccinct;
    span = tr->Begin("from_xml_file", rep, -1, name);
    auto engine = xpwqo::Engine::FromXmlFile(XmlPath(o, s), load_options);
    load += tr->End(span);
    if (!engine.ok()) Die(name + ": " + engine.status().ToString());
    const xpwqo::IndexMemoryReport m = engine->IndexMemory();
    out->memory.tree_bytes += m.tree_bytes;
    out->memory.label_index_bytes += m.label_index_bytes;
    out->memory.text_store_bytes += m.text_store_bytes;

    const std::string dir = o.dir + "/traced_images/" + name;
    span = tr->Begin("save_index_image", rep, -1, name);
    const xpwqo::Status saved = xpwqo::SaveIndexImage(*engine, dir);
    save += tr->End(span);
    if (!saved.ok()) Die(name + ": " + saved.ToString());

    const std::string image = ReadFile(dir + "/index.xpq");
    out->image_bytes += static_cast<int64_t>(image.size());
    span = tr->Begin("validate_index_image", rep, -1, name);
    auto checked = xpwqo::ValidateIndexImage(
        reinterpret_cast<const uint8_t*>(image.data()), image.size());
    validate += tr->End(span);
    if (!checked.ok()) Die(name + ": " + checked.status().ToString());

    span = tr->Begin("open_index_image", rep, -1, name);
    auto opened = xpwqo::OpenIndexImage(dir);
    open += tr->End(span);
    if (!opened.ok() || opened->num_nodes() != ref.shards[static_cast<size_t>(s)].num_nodes) {
      Die(name + ": reopened image disagrees with the reference node count");
    }
  }
  tr->End(rep);
  out->scan_ms.push_back(scan);
  out->load_ms.push_back(load);
  out->save_ms.push_back(save);
  out->validate_ms.push_back(validate);
  out->open_ms.push_back(open);
}

// ------------------------------------------------------------ query ladder

struct QueryLadder {
  int64_t requests = 0, failed = 0, wrong = 0;
  std::vector<double> http_ms;
  double runtime_ms = 0, prepare_ms = 0, cursor_ms = 0;
  double value_cursor_ms = 0, relaxed_ms = 0;  // value queries only
  double serve_self_ms = 0;
  int64_t resp_bytes = 0;
  int64_t visited = 0, results = 0;
  int64_t cursors = 0, hybrid_cursors = 0;
  int64_t filter_checked = 0, filter_selected = 0;
  int64_t cache_hits = 0, cache_misses = 0;
};

class QueryRungs {
 public:
  explicit QueryRungs(const std::string& images)
      : http_collection_(OpenServingCollection(images)),
        runtime_collection_(OpenServingCollection(images)),
        cursor_collection_(OpenServingCollection(images)) {
    xpwqo::ServingRuntimeOptions options;
    options.num_threads = HalfCores();
    http_runtime_ = std::make_unique<xpwqo::ServingRuntime>(&http_collection_, options);
    runtime_ = std::make_unique<xpwqo::ServingRuntime>(&runtime_collection_, options);
    xpwqo::net::ServerOptions server_options;
    server_options.default_deadline = std::chrono::milliseconds(60'000);
    server_ = std::make_unique<xpwqo::net::HttpServer>(
        &http_collection_, http_runtime_.get(), server_options);
    if (!server_->Start().ok() ||
        !client_.Connect(server_->port(), std::chrono::milliseconds(60'000)).ok()) {
      Die("cannot start the HTTP rung");
    }
  }
  ~QueryRungs() {
    client_.Close();
    server_->Stop();
    http_runtime_->Shutdown();
    runtime_->Shutdown();
  }
  QueryRungs(const QueryRungs&) = delete;
  QueryRungs& operator=(const QueryRungs&) = delete;

  /// Replays one request down every rung. Even requests go top-down, odd
  /// ones bottom-up, so warm-cache effects of rung order cancel out.
  void Run(const Reference& ref, const Request& request, int64_t id, Tracer* tr,
           QueryLadder* out) {
    ++out->requests;
    const int64_t root = tr->Begin("request", -1, id, request.xpath);
    std::string error;
    bool failed = false, wrong = false;

    const auto http_rung = [&] {
      const int64_t span = tr->Begin("http_get_query", root, id);
      auto response =
          client_.Get(QueryTarget(request.xpath), "X-Deadline-Ms: 60000\r\n");
      out->http_ms.push_back(tr->End(span));
      ParsedResponse parsed;
      if (!response.ok() || response->status != 200) {
        failed = true;
        error = response.ok() ? "HTTP " + std::to_string(response->status)
                              : response.status().ToString();
        if (!response.ok()) {
          client_.Close();
          if (!client_.Connect(server_->port(), std::chrono::milliseconds(60'000))
                   .ok()) {
            Die("HTTP rung lost its connection");
          }
        }
      } else {
        out->resp_bytes += static_cast<int64_t>(response->body.size());
        if (!ParseQueryResponse(response->body, &parsed, &error) ||
            !CheckResponse(ref, request, parsed, &error)) {
          wrong = true;
        }
      }
    };

    double runtime_ms = 0;
    bool missed = false;
    const auto runtime_rung = [&] {
      const int64_t misses_before = runtime_collection_.query_cache()->misses();
      const int64_t span = tr->Begin("runtime_execute", root, id);
      auto served = runtime_->Execute(request.xpath);
      runtime_ms = tr->End(span);
      missed = runtime_collection_.query_cache()->misses() > misses_before;
      out->runtime_ms += runtime_ms;
      if (!served.ok() || !served->status.ok()) {
        failed = true;
        error = served.ok() ? served->status.ToString() : served.status().ToString();
        return;
      }
      for (size_t s = 0; s < served->documents.size(); ++s) {
        const xpwqo::DocumentResult& row = served->documents[s];
        const std::vector<int64_t> nodes(row.nodes.begin(), row.nodes.end());
        if (!row.status.ok() || s >= ref.shards.size() ||
            !CheckShard(ref, request, s, nodes, row.visited, &error)) {
          wrong = true;
        }
      }
    };

    double prepare_ms = 0, cursor_ms = 0;
    const auto core_rungs = [&] {
      // Uncached compilation, then per-shard cursors (and, for value
      // queries, the same over the relaxed structural query).
      int64_t span = tr->Begin("prepare", root, id);
      auto prepared = xpwqo::PreparedQuery::Prepare(
          request.xpath, cursor_collection_.alphabet_ptr());
      prepare_ms = tr->End(span);
      out->prepare_ms += prepare_ms;
      if (!prepared.ok()) Die(request.xpath + ": " + prepared.status().ToString());
      cursor_ms = Cursors(ref, request, *prepared, "cursor_drain", root, id, tr,
                          out, &wrong, &error);
      out->cursor_ms += cursor_ms;
      if (!prepared->has_value_predicates()) return;
      const std::string relaxed = xpwqo::ToString(prepared->relaxed_path());
      auto it = relaxed_.find(relaxed);
      if (it == relaxed_.end()) {
        auto compiled = xpwqo::PreparedQuery::Prepare(
            relaxed, cursor_collection_.alphabet_ptr());
        if (!compiled.ok()) Die(relaxed + ": " + compiled.status().ToString());
        it = relaxed_
                 .emplace(relaxed, std::make_unique<xpwqo::PreparedQuery>(
                                       std::move(compiled).value()))
                 .first;
      }
      out->value_cursor_ms += cursor_ms;
      out->relaxed_ms += Cursors(ref, request, *it->second, "relaxed_cursor_drain",
                                 root, id, tr, nullptr, nullptr, nullptr);
    };

    if (id % 2 == 0) {
      http_rung();
      runtime_rung();
      core_rungs();
    } else {
      core_rungs();
      runtime_rung();
      http_rung();
    }
    out->serve_self_ms += runtime_ms - cursor_ms - (missed ? prepare_ms : 0.0);
    (missed ? out->cache_misses : out->cache_hits) += 1;
    tr->End(root);

    if (failed || wrong) {
      std::fprintf(stderr, "xpbench: traced %s %s: %s\n", request.xpath.c_str(),
                   failed ? "failed" : "answered wrong", error.c_str());
    }
    out->failed += failed;
    out->wrong += wrong;
  }

  Collection& cursor_collection() { return cursor_collection_; }

  /// Drains `query` on every shard of the cursor collection; returns the
  /// summed ms. With `out` set, counts the work and checks the answers.
  double Cursors(const Reference& ref, const Request& request,
                 const xpwqo::PreparedQuery& query, const char* name,
                 int64_t parent, int64_t id, Tracer* tr, QueryLadder* out,
                 bool* wrong, std::string* error) {
    double total = 0;
    for (size_t s = 0; s < ref.shards.size(); ++s) {
      const int64_t span = tr->Begin(name, parent, id, ref.shards[s].name);
      auto cursor = cursor_collection_.OpenCursor(ref.shards[s].name, query);
      if (!cursor.ok()) Die(cursor.status().ToString());
      const std::vector<xpwqo::NodeId> got = cursor->Drain();
      total += tr->End(span);
      if (out == nullptr) continue;
      const xpwqo::CursorStats stats = cursor->TakeStats();
      const int64_t visited = stats.eval.nodes_visited + stats.hybrid.nodes_visited;
      out->visited += visited;
      out->results += static_cast<int64_t>(got.size());
      out->cursors += 1;
      out->hybrid_cursors += stats.used_hybrid;
      out->filter_checked += stats.filter_checked;
      out->filter_selected += stats.filter_checked - stats.filter_rejected;
      const std::vector<int64_t> nodes(got.begin(), got.end());
      if (!*wrong && !CheckShard(ref, request, s, nodes, visited, error)) {
        *wrong = true;
      }
    }
    return total;
  }

 private:
  Collection http_collection_, runtime_collection_, cursor_collection_;
  std::unique_ptr<xpwqo::ServingRuntime> http_runtime_, runtime_;
  std::unique_ptr<xpwqo::net::HttpServer> server_;
  xpwqo::net::BlockingHttpClient client_;
  std::map<std::string, std::unique_ptr<xpwqo::PreparedQuery>> relaxed_;
};

double PerReq(double total, int64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

int RunTraced(const Options& o) {
  Reference ref;
  if (!LoadReference(o, &ref)) return 1;
  Tracer tr;
  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&] { return MsSince(start, Clock::now()) / 1000.0; };
  const bool ingest = o.workload == "ingest";

  // Ingest ladder: the whole run for the ingest workload, three reps
  // otherwise (its layers are reported on every workload).
  IngestLadder il;
  do {
    RunIngestLadder(o, ref, &tr, &il);
  } while (ingest ? elapsed_s() < o.seconds * 0.8 : il.scan_ms.size() < 3);

  // Set-up ladder.
  std::vector<double> open_collection_ms, first_touch_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t root = tr.Begin("setup_ladder");
    int64_t span = tr.Begin("open_collection", root);
    auto opened = xpwqo::OpenCollection(ImagesDir(o));
    open_collection_ms.push_back(tr.End(span));
    if (!opened.ok()) Die(opened.status().ToString());
    double touch = 0;
    for (const std::string& name : opened->names()) {
      span = tr.Begin("first_touch", root, -1, name);
      auto engine = opened->Get(name);
      touch += tr.End(span);
      if (!engine.ok()) Die(name + ": " + engine.status().ToString());
    }
    first_touch_ms.push_back(touch);
    tr.End(root);
  }

  // Query ladder: the workload's request rounds until the time is up (the
  // ingest workload replays one round of each query workload instead).
  QueryLadder ql;
  QueryRungs rungs(ImagesDir(o));
  int64_t id = 0;
  if (ingest) {
    for (const char* w : {"path_mix", "point_lookup"}) {
      RequestStream stream(w, o.seed, ref.KeyRanges());
      for (const Request& r : stream.Round(0)) rungs.Run(ref, r, id++, &tr, &ql);
    }
  } else {
    RequestStream stream(o.workload, o.seed, ref.KeyRanges());
    // Round 0 warms up unmeasured, as in the untraced run.
    QueryLadder warmup;
    for (const Request& r : stream.Round(0)) rungs.Run(ref, r, id++, &tr, &warmup);
    // Not counted in attempted/failed, but a warm-up request that failed
    // or answered wrong still makes the run incorrect.
    ql.wrong += warmup.wrong + warmup.failed;
    int64_t round = 1;
    do {
      for (const Request& r : stream.Round(round++)) rungs.Run(ref, r, id++, &tr, &ql);
    } while (elapsed_s() < o.seconds * 0.85);
  }

  // Per-query evaluation probe: each Figure-2 query through the cursor rung
  // (median of three), on every workload.
  Report report;
  const auto& queries = xpwqo::Figure2Workload();
  for (size_t q = 0; q < queries.size(); ++q) {
    Request r;
    r.query = static_cast<int>(q);
    r.xpath = queries[q].xpath;
    auto prepared = rungs.cursor_collection().Prepare(r.xpath);
    if (!prepared.ok()) Die(r.xpath + ": " + prepared.status().ToString());
    std::vector<double> ms;
    QueryLadder probe;
    for (int rep = 0; rep < 3; ++rep) {
      const int64_t root = tr.Begin("eval_probe", -1, -1, queries[q].id);
      bool wrong = false;
      std::string error;
      ms.push_back(rungs.Cursors(ref, r, *prepared, "cursor_drain", root, -1, &tr,
                                 &probe, &wrong, &error));
      tr.End(root);
      if (wrong) {
        ++ql.wrong;
        std::fprintf(stderr, "xpbench: probe %s answered wrong: %s\n",
                     queries[q].id, error.c_str());
      }
    }
    const std::string prefix = std::string("eval.") + queries[q].id;
    report.Add(prefix + ".ms", Median(ms), "ms");
    report.Add(prefix + ".visited", static_cast<double>(probe.visited / 3), "nodes");
  }

  const int64_t n = ql.requests;
  const double xml_mb = static_cast<double>(ref.xml_bytes()) / 1e6;
  const double nodes = static_cast<double>(ref.num_nodes());
  report.Add("net.http_p50_ms", Median(ql.http_ms), "ms");
  double http_total = 0;
  for (const double ms : ql.http_ms) http_total += ms;
  report.Add("net.self_ms", PerReq(http_total - ql.runtime_ms, n), "ms");
  report.Add("net.resp_bytes", PerReq(static_cast<double>(ql.resp_bytes), n), "bytes");
  report.Add("serve.self_ms", PerReq(ql.serve_self_ms, n), "ms");
  report.Add("core.prepare_us", PerReq(ql.prepare_ms * 1000.0, n), "us");
  report.Add("core.cache_hit_ratio",
             PerReq(static_cast<double>(ql.cache_hits), ql.cache_hits + ql.cache_misses),
             "ratio");
  report.Add("core.first_touch_ms", Median(first_touch_ms), "ms");
  report.Add("persist.open_collection_ms", Median(open_collection_ms), "ms");
  report.Add("persist.open_ms", Median(il.open_ms), "ms");
  report.Add("persist.validate_ms", Median(il.validate_ms), "ms");
  report.Add("eval.ms", PerReq(ql.cursor_ms, n), "ms");
  report.Add("eval.visited", PerReq(static_cast<double>(ql.visited), n), "nodes");
  report.Add("eval.ns_per_visited",
             PerReq(ql.cursor_ms * 1e6, ql.visited), "ns");
  report.Add("eval.visited_per_result",
             PerReq(static_cast<double>(ql.visited), ql.results), "ratio");
  report.Add("eval.hybrid_share",
             PerReq(static_cast<double>(ql.hybrid_cursors), ql.cursors), "ratio");
  report.Add("filter.ms", PerReq(ql.value_cursor_ms - ql.relaxed_ms, n), "ms");
  report.Add("filter.checked", PerReq(static_cast<double>(ql.filter_checked), n), "count");
  report.Add("filter.selectivity",
             PerReq(static_cast<double>(ql.filter_selected), ql.filter_checked),
             "ratio");
  report.Add("xml.scan_mb_s", xml_mb / (Median(il.scan_ms) / 1000.0), "MB/s");
  report.Add("xml.load_mb_s", xml_mb / (Median(il.load_ms) / 1000.0), "MB/s");
  report.Add("persist.save_mb_s",
             static_cast<double>(il.image_bytes) / 1e6 / (Median(il.save_ms) / 1000.0),
             "MB/s");
  report.Add("index.tree_bytes_per_node",
             static_cast<double>(il.memory.tree_bytes) / nodes, "bytes");
  report.Add("index.label_bytes_per_node",
             static_cast<double>(il.memory.label_index_bytes) / nodes, "bytes");
  report.Add("index.text_bytes_per_xml_byte",
             static_cast<double>(il.memory.text_store_bytes) /
                 static_cast<double>(ref.xml_bytes()),
             "ratio");

  if (!tr.Dump(o.dir + "/spans.jsonl")) Die("cannot write spans.jsonl");
  std::fprintf(stderr, "xpbench: traced %s: %lld requests, %zu ingest reps\n",
               o.workload.c_str(), static_cast<long long>(n), il.scan_ms.size());
  report.Print(ql.wrong == 0, n, ql.failed);
  return 0;
}

}  // namespace xpbench
