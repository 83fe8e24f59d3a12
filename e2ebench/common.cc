#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <numeric>

#include "xmark/workload.h"

namespace xpbench {

int HalfCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(n / 2), 1, 2);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x100000001b3ull ^ (tag + 0x51ed270b27ull));
  return rng.Next();
}

std::string ShardName(int shard) { return "shard" + std::to_string(shard); }

const char* const kLookupKind[kLookupKinds] = {"person", "item",
                                               "open_auction"};

std::string LookupXPath(int kind, int64_t key) {
  return std::string("//") + kLookupKind[kind] + "[@id='" +
         kLookupKind[kind] + std::to_string(key) + "']";
}

namespace {

const std::vector<int>& PathMixRanks() {
  static const std::vector<int> ranks = [] {
    const int q05 = 4;  // Figure2Workload()[4] is Q05 //listitem//keyword
    std::vector<int> r = {q05};
    for (int i = 0; i < static_cast<int>(xpwqo::Figure2Workload().size());
         ++i) {
      if (i != q05) r.push_back(i);
    }
    return r;
  }();
  return ranks;
}

}  // namespace

const std::vector<int>& PathMixCounts() {
  static const std::vector<int> counts = [] {
    const std::vector<int>& ranks = PathMixRanks();
    const size_t n = ranks.size();
    double harmonic = 0;
    for (size_t r = 0; r < n; ++r) harmonic += 1.0 / static_cast<double>(r + 1);
    std::vector<int> by_rank(n);
    std::vector<std::pair<double, size_t>> remainders;
    int assigned = 0;
    for (size_t r = 0; r < n; ++r) {
      const double share = kPathMixRound / harmonic / static_cast<double>(r + 1);
      by_rank[r] = static_cast<int>(share);
      assigned += by_rank[r];
      remainders.push_back({share - by_rank[r], r});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (size_t i = 0; assigned < kPathMixRound; ++i, ++assigned) {
      ++by_rank[remainders[i].second];
    }
    std::vector<int> c(n);
    for (size_t r = 0; r < n; ++r) c[static_cast<size_t>(ranks[r])] = by_rank[r];
    return c;
  }();
  return counts;
}

RequestStream::RequestStream(const std::string& workload, uint64_t seed,
                             const std::vector<int64_t>& key_range)
    : lookups_(workload == "point_lookup"), seed_(seed) {
  if (!lookups_) return;
  Rng rng(SubSeed(seed, 7));
  for (int k = 0; k < kLookupKinds; ++k) {
    const int64_t n = key_range[static_cast<size_t>(k)];
    std::vector<int64_t> hits(static_cast<size_t>(n));
    std::iota(hits.begin(), hits.end(), 0);
    // Misses: keys past the generated range (the same width again).
    std::vector<int64_t> misses(static_cast<size_t>(n));
    std::iota(misses.begin(), misses.end(), n);
    rng.Shuffle(&hits);
    rng.Shuffle(&misses);
    hit_keys_.push_back(std::move(hits));
    miss_keys_.push_back(std::move(misses));
  }
  hit_pos_.assign(kLookupKinds, 0);
  miss_pos_.assign(kLookupKinds, 0);
}

std::vector<Request> RequestStream::Round(int64_t round) {
  // Rounds are generated in order (the lookup permutations are consumed
  // as a stream); callers ask for 0, 1, 2, ...
  if (round != next_round_) {
    std::fprintf(stderr, "xpbench: request rounds out of order\n");
    std::abort();
  }
  ++next_round_;
  std::vector<Request> out;
  if (lookups_) {
    for (int k = 0; k < kLookupKinds; ++k) {
      auto take = [&](std::vector<int64_t>& keys, size_t& pos) {
        Request r;
        r.kind = k;
        r.key = keys[pos];
        pos = (pos + 1) % keys.size();
        r.xpath = LookupXPath(k, r.key);
        out.push_back(std::move(r));
      };
      for (int i = 0; i < kLookupHits; ++i) take(hit_keys_[k], hit_pos_[k]);
      for (int i = 0; i < kLookupMisses; ++i) take(miss_keys_[k], miss_pos_[k]);
    }
  } else {
    const std::vector<int>& counts = PathMixCounts();
    for (size_t q = 0; q < counts.size(); ++q) {
      for (int i = 0; i < counts[q]; ++i) {
        Request r;
        r.query = static_cast<int>(q);
        r.xpath = xpwqo::Figure2Workload()[q].xpath;
        out.push_back(std::move(r));
      }
    }
  }
  Rng order(SubSeed(seed_, 1000 + static_cast<uint64_t>(round)));
  order.Shuffle(&out);
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double TailValue(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() > 10 ? v.size() - 11 : v.size() - 1];
}

int64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

StealMonitor::StealMonitor() : thread_([this] { Loop(); }) {}

StealMonitor::~StealMonitor() { Stop(); }

void StealMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    samples_.push_back({Clock::now(), StealTicks()});
    if (cv_.wait_for(lock, std::chrono::milliseconds(2),
                     [this] { return stop_; })) {
      samples_.push_back({Clock::now(), StealTicks()});
      return;
    }
  }
}

bool StealMonitor::Stolen(Clock::time_point start) const {
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(kSpanMs));
  // The first sample at or after `end`, and the last one at or before
  // `start` (the one before the first sample after it).
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), end,
      [](const Sample& s, Clock::time_point t) { return s.at < t; });
  const auto past_start = std::upper_bound(
      samples_.begin(), samples_.end(), start,
      [](Clock::time_point t, const Sample& s) { return t < s.at; });
  if (after == samples_.end() || past_start == samples_.begin()) return true;
  return after->ticks != (past_start - 1)->ticks;
}

int64_t StealMonitor::ticks() const {
  return samples_.empty() ? 0 : samples_.back().ticks - samples_.front().ticks;
}

const std::vector<double>& CalmOr(const std::vector<double>& calm,
                                  const std::vector<double>& all,
                                  size_t min_calm) {
  return calm.size() >= min_calm ? calm : all;
}

double ProcessCpuMs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1000.0 +
           static_cast<double>(t.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM belongs to this process's own address space. getrusage's
  // ru_maxrss would not do: Linux carries it over exec from the parent, so
  // it would never read below the launching Python interpreter's RSS.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace xpbench
