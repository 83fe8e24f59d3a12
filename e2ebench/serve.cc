// The untraced serving run of path_mix and point_lookup: the saved images
// behind OpenCollection → ServingRuntime → net::HttpServer in this
// process, loaded by closed-loop keep-alive BlockingHttpClient connections
// (xpathd's callers block on each reply). The run sends whole rounds of
// the workload's request stream; round 0 warms up and is not measured.
#include <algorithm>
#include <mutex>
#include <thread>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/serving_runtime.h"
#include "stages.h"

namespace xpbench {

using xpwqo::Collection;

std::string QueryTarget(const std::string& xpath) {
  static const char* hex = "0123456789ABCDEF";
  std::string out = "/query?q=";
  for (const char c : xpath) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// Hands out the request stream round by round to the client threads. A
/// run stops only at a round boundary, so every run sends whole rounds.
class Dispatcher {
 public:
  Dispatcher(RequestStream* stream, double seconds)
      : stream_(stream), seconds_(seconds) {}

  /// The next request and its round, or false once the measured time is
  /// over and the current round is exhausted.
  bool Next(Request* request, int64_t* round) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pos_ == current_.size()) {
      const Clock::time_point now = Clock::now();
      if (next_round_ == 1) start_ = now;
      if (next_round_ > 1 && MsSince(start_, now) >= seconds_ * 1000) {
        return false;
      }
      current_ = stream_->Round(next_round_++);
      pos_ = 0;
    }
    *request = current_[pos_++];
    *round = next_round_ - 1;
    return true;
  }

  Clock::time_point start() const {
    std::lock_guard<std::mutex> lock(mu_);
    return start_;
  }

 private:
  mutable std::mutex mu_;
  RequestStream* stream_;
  const double seconds_;
  std::vector<Request> current_;
  size_t pos_ = 0;
  int64_t next_round_ = 0;
  Clock::time_point start_{};
};

struct ClientTally {
  std::vector<double> latency_ms;  // successful requests of measured rounds
  std::vector<Clock::time_point> started;  // ... and when each one started
  int64_t visited = 0;
  int64_t attempted = 0, failed = 0, wrong = 0;
  int64_t warmup_bad = 0;  // round-0 requests that failed or answered wrong
  Clock::time_point last_done{};
};

void ClientLoop(uint16_t port, const Reference& ref, Dispatcher* dispatcher,
                ClientTally* tally) {
  xpwqo::net::BlockingHttpClient client;
  bool connected = client.Connect(port, std::chrono::milliseconds(60'000)).ok();
  Request request;
  int64_t round = 0;
  ParsedResponse parsed;
  while (dispatcher->Next(&request, &round)) {
    const bool measured = round > 0;
    if (!connected) {
      connected = client.Connect(port, std::chrono::milliseconds(60'000)).ok();
    }
    const Clock::time_point t0 = Clock::now();
    auto response = connected
                        ? client.Get(QueryTarget(request.xpath),
                                     "X-Deadline-Ms: 60000\r\n")
                        : xpwqo::StatusOr<xpwqo::net::HttpResponse>(
                              xpwqo::Status::IoError("not connected"));
    const Clock::time_point t1 = Clock::now();
    std::string error;
    bool failed = false, wrong = false;
    if (!response.ok()) {
      failed = true;
      error = response.status().ToString();
      client.Close();
      connected = false;
    } else if (response->status != 200) {
      failed = true;
      error = "HTTP " + std::to_string(response->status) + " " + response->body;
    } else if (!ParseQueryResponse(response->body, &parsed, &error) ||
               !CheckResponse(ref, request, parsed, &error)) {
      wrong = true;
    }
    if (failed || wrong) {
      std::fprintf(stderr, "xpbench: %s %s: %s\n", request.xpath.c_str(),
                   failed ? "failed" : "answered wrong", error.c_str());
    }
    if (!measured) {
      tally->warmup_bad += failed || wrong;
      continue;
    }
    ++tally->attempted;
    tally->failed += failed;
    tally->wrong += wrong;
    if (!failed) {
      tally->latency_ms.push_back(MsSince(t0, t1));
      tally->started.push_back(t0);
      tally->visited += parsed.total_visited;
    }
    tally->last_done = t1;
  }
}

}  // namespace

int RunServe(const Options& o) {
  Reference ref;
  if (!LoadReference(o, &ref)) return 1;
  // What the process holds before the collection opens: the binary and the
  // checker's reference answers, which peak_rss_mb includes.
  const double rss_before_open = PeakRssMb();
  const std::string images = ImagesDir(o);

  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    Collection opened = OpenServingCollection(images);
    setup_ms.push_back(MsSince(t0, Clock::now()));
  }

  Collection collection = OpenServingCollection(images);
  xpwqo::ServingRuntimeOptions runtime_options;
  runtime_options.num_threads = HalfCores();
  xpwqo::ServingRuntime runtime(&collection, runtime_options);
  xpwqo::net::ServerOptions server_options;
  server_options.default_deadline = std::chrono::milliseconds(60'000);
  xpwqo::net::HttpServer server(&collection, &runtime, server_options);
  if (const xpwqo::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "xpbench: server start: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  RequestStream stream(o.workload, o.seed, ref.KeyRanges());
  Dispatcher dispatcher(&stream, o.seconds);
  StealMonitor steal;
  const int clients = HalfCores();
  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, server.port(), std::cref(ref), &dispatcher,
                         &tallies[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  steal.Stop();
  server.Stop();
  runtime.Shutdown();

  ClientTally all;
  std::vector<double> calm_ms;  // requests that started outside any steal
  for (const ClientTally& t : tallies) {
    all.latency_ms.insert(all.latency_ms.end(), t.latency_ms.begin(),
                          t.latency_ms.end());
    for (size_t i = 0; i < t.latency_ms.size(); ++i) {
      if (!steal.Stolen(t.started[i])) calm_ms.push_back(t.latency_ms[i]);
    }
    all.visited += t.visited;
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.wrong += t.wrong;
    all.warmup_bad += t.warmup_bad;
    all.last_done = std::max(all.last_done, t.last_done);
  }
  const double ok = static_cast<double>(all.latency_ms.size());
  const double measured_s = MsSince(dispatcher.start(), all.last_done) / 1000.0;

  Report report;
  report.Add("qps", ok / measured_s, "req/s");
  report.Add("p50_ms", Median(all.latency_ms), "ms");
  report.Add("tail_ms", TailValue(CalmOr(calm_ms, all.latency_ms, 11)), "ms");
  report.Add("visited_per_req", static_cast<double>(all.visited) / ok, "nodes");
  report.Add("setup_s", Median(setup_ms) / 1000.0, "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "xpbench: %s: %lld requests in %.2f s over %d connections, "
               "%d workers; host steal %lld ticks, %zu requests started "
               "outside it; peak RSS %.1f MB before OpenCollection\n",
               o.workload.c_str(), static_cast<long long>(all.attempted),
               measured_s, clients, runtime_options.num_threads,
               static_cast<long long>(steal.ticks()), calm_ms.size(),
               rss_before_open);
  // Round 0 is not counted in attempted/failed; a warm-up request that
  // failed or answered wrong still makes the run incorrect.
  report.Print(all.wrong == 0 && all.warmup_bad == 0, all.attempted,
               all.failed);
  return 0;
}

}  // namespace xpbench
