// Shared definitions of the end-to-end benchmark binary (xpbench): the
// generated inputs, the request streams of each workload, and small
// measurement helpers. See README.md for what each workload is for.
#ifndef XPBENCH_COMMON_H_
#define XPBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace xpbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------- inputs

/// Six XMark shards of scale 0.04 each (~102k nodes, ~1.6 MB of XML per
/// shard): the collection bench/bench_net.cc serves, with per-shard seeds
/// derived from the workload seed.
inline constexpr int kShards = 6;
inline constexpr double kShardScale = 0.04;

/// Half of the host's cores, at most two: the client connections and the
/// server workers both use this count.
int HalfCores();

/// Threads of the timed Collection::LoadAll. One: two load threads lose
/// their parallelism whenever the hypervisor withholds a vCPU, which swung
/// the ingest op time by a quarter between runs of the same code, while a
/// single thread's time moved about half as much. The build cost of the
/// index layers is what the ingest figures are for.
inline constexpr unsigned kLoadThreads = 1;

/// splitmix64: the benchmark's only random source.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Mixes the workload seed with a stream tag, so every consumer (shard
/// generation, request order, lookup keys) draws from its own stream.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

std::string ShardName(int shard);

// -------------------------------------------------------------- requests

/// The three keyed element kinds of the point_lookup workload.
inline constexpr int kLookupKinds = 3;
extern const char* const kLookupKind[kLookupKinds];  // person, item, ...

/// One request of a workload: the XPath the client sends, plus what the
/// checker needs to find the reference answer.
struct Request {
  std::string xpath;
  int query = -1;  // index into Figure2Workload(), or -1 for a lookup
  int kind = -1;   // lookup kind, or -1
  int64_t key = -1;  // lookup key K in "<kind>K"
};

/// How many times each Figure-2 query occurs in one path_mix round: the
/// Zipf(1) weights over the rank order Q05 (rank 1), then the rest in paper
/// order, scaled to kPathMixRound requests (largest remainder), so every
/// round carries exactly the same mix.
inline constexpr int kPathMixRound = 50;
const std::vector<int>& PathMixCounts();  // indexed by Figure2Workload()

/// One point_lookup round: per kind, kLookupHits keys inside the generated
/// range and kLookupMisses beyond it (a tenth of the lookups miss).
inline constexpr int kLookupHits = 9;
inline constexpr int kLookupMisses = 1;
inline constexpr int kLookupRound =
    kLookupKinds * (kLookupHits + kLookupMisses);

/// Deterministic request rounds for a workload and seed. Round r is the
/// same whatever the run length, so two runs with the same seed send the
/// same requests in the same order.
class RequestStream {
 public:
  /// `key_range[k]` is the number of generated keys of kind k (keys
  /// 0..n-1 exist in every shard).
  RequestStream(const std::string& workload, uint64_t seed,
                const std::vector<int64_t>& key_range);
  /// Requests of round `round` (kPathMixRound or kLookupRound of them).
  std::vector<Request> Round(int64_t round);

 private:
  bool lookups_;
  uint64_t seed_;
  // Lookup keys walk a seeded permutation per kind, hits and misses apart,
  // so a query string recurs only after every key of its kind was used —
  // far beyond the 32-slot query cache, so every lookup misses it.
  std::vector<std::vector<int64_t>> hit_keys_, miss_keys_;
  std::vector<size_t> hit_pos_, miss_pos_;
  int64_t next_round_ = 0;
};

std::string LookupXPath(int kind, int64_t key);

// ----------------------------------------------------------- measurement

/// Nearest-rank median.
double Median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample (the largest when there are at most ten).
double TailValue(std::vector<double> v);

/// CPU time the hypervisor has stolen from this host so far, summed over
/// all CPUs, in USER_HZ ticks (the "steal" column of /proc/stat); 0 where
/// the kernel does not report it.
int64_t StealTicks();

/// Samples StealTicks() every 2 ms on its own thread, from construction
/// until Stop(), so a tail figure can leave out the operations that started
/// while the hypervisor was stealing CPU time: a stolen vCPU stalls
/// whatever it runs for milliseconds, and the highest percentiles would
/// otherwise record the neighbours' load rather than the program. Whether
/// an operation is left out depends only on when it starts, through a
/// fixed span after its start, never on how long it takes, so a change that
/// slows the slowest operations cannot hide them.
class StealMonitor {
 public:
  /// The fixed span after an operation's start that must see no steal.
  static constexpr double kSpanMs = 20;

  StealMonitor();
  ~StealMonitor();
  void Stop();

  /// After Stop(): whether the steal counter moved between the last sample
  /// at or before `start` and the first sample at or after start + kSpanMs
  /// (true as well when either sample is missing).
  bool Stolen(Clock::time_point start) const;
  /// After Stop(): ticks stolen over the monitored time.
  int64_t ticks() const;

 private:
  void Loop();

  struct Sample {
    Clock::time_point at;
    int64_t ticks;
  };
  std::vector<Sample> samples_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// `calm` when it holds at least `min_calm` samples, otherwise `all`.
const std::vector<double>& CalmOr(const std::vector<double>& calm,
                                  const std::vector<double>& all,
                                  size_t min_calm);

/// User + system CPU time of this process so far, in ms.
double ProcessCpuMs();

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Collects named metrics and prints the one-line JSON result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Prints {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace xpbench

#endif  // XPBENCH_COMMON_H_
