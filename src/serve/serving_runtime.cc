#include "serve/serving_runtime.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace xpwqo {

using Clock = ExecControl::Clock;

/// The shared state behind a Ticket: the request, the slot the worker
/// writes the result into, and the done latch Wait() blocks on.
struct ServingRuntime::Ticket::Job {
  std::shared_ptr<const PreparedQuery> query;
  ServeRequest request;

  std::mutex mu;
  std::condition_variable cv;
  // finishing: the result is being published (the completion callback runs
  // in this window, before done flips — so the callback always finishes
  // strictly before any Wait() returns).
  bool finishing = false;
  bool done = false;
  std::function<void()> on_done;
  ServeResult result;
};

/// Write-side counters: relaxed atomics only, no locks on the serving path.
struct ServingRuntime::Counters {
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> doa_evicted{0};

  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> deadline_exceeded{0};
  std::atomic<int64_t> cancelled{0};
  std::atomic<int64_t> resource_exhausted{0};
  std::atomic<int64_t> corruption{0};
  std::atomic<int64_t> io_error{0};
  std::atomic<int64_t> other_error{0};

  std::atomic<int64_t> retries{0};
  std::atomic<int64_t> docs_failed{0};

  std::atomic<int64_t> scrub_sweeps{0};
  std::atomic<int64_t> scrub_docs_checked{0};
  std::atomic<int64_t> scrub_quarantined{0};

  ConcurrentHistogram latency_us;
  ConcurrentHistogram visited_nodes;

  void CountOutcome(const Status& status) {
    switch (status.code()) {
      case StatusCode::kOk:
        ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCancelled:
        cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kResourceExhausted:
        resource_exhausted.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCorruption:
        corruption.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kIoError:
        io_error.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        other_error.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
};

const ServeResult& ServingRuntime::Ticket::Wait() {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->done; });
  return job_->result;
}

bool ServingRuntime::Ticket::Ready() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->done;
}

void ServingRuntime::Ticket::Cancel() {
  job_->request.context.cancel.Cancel();
}

void ServingRuntime::Ticket::NotifyOnDone(std::function<void()> fn) {
  bool run_now = false;
  {
    std::lock_guard<std::mutex> lock(job_->mu);
    if (job_->finishing || job_->done) {
      run_now = true;  // already published (or publishing): invoke inline
    } else {
      job_->on_done = std::move(fn);
    }
  }
  if (run_now) fn();
}

ServingRuntime::ServingRuntime(const Collection* collection,
                               ServingRuntimeOptions options)
    : collection_(collection),
      options_(std::move(options)),
      counters_(std::make_unique<Counters>()) {
  const int n = std::max(1, options_.num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.scrub_interval.count() > 0) {
    scrubber_ = std::thread([this] { ScrubLoop(); });
  }
}

ServingRuntime::~ServingRuntime() { Shutdown(); }

void ServingRuntime::StopAccepting() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
  }
  work_cv_.notify_all();
}

bool ServingRuntime::AwaitIdle(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, timeout, [this] {
    return queue_.empty() && active_ == 0;
  });
}

void ServingRuntime::Shutdown() {
  StopAccepting();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrubber_.joinable()) scrubber_.join();
}

void ServingRuntime::ScrubLoop() {
  std::unique_lock<std::mutex> lock(scrub_mu_);
  for (;;) {
    if (scrub_cv_.wait_for(lock, options_.scrub_interval,
                           [this] { return scrub_stop_; })) {
      return;
    }
    lock.unlock();  // the CRC sweep runs without holding the stop lock
    const VerifyReport report = collection_->VerifyAll();
    counters_->scrub_sweeps.fetch_add(1, std::memory_order_relaxed);
    counters_->scrub_docs_checked.fetch_add(
        static_cast<int64_t>(report.checked), std::memory_order_relaxed);
    counters_->scrub_quarantined.fetch_add(
        static_cast<int64_t>(report.quarantined), std::memory_order_relaxed);
    lock.lock();
  }
}

void ServingRuntime::FinishJob(Ticket::Job& job, ServeResult result,
                               bool shed) {
  if (shed) {
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_->CountOutcome(result.status);
  }
  // Publish in two steps: the completion callback runs after the result is
  // set but before done flips, so it always finishes before any Wait()
  // returns — a callback that pings an event loop can never race the
  // loop's owner tearing down after a successful Wait.
  std::function<void()> on_done;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result = std::move(result);
    job.finishing = true;
    on_done = std::move(job.on_done);
  }
  if (on_done) on_done();
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.done = true;
  }
  job.cv.notify_all();
}

ServingRuntime::Ticket ServingRuntime::Submit(
    std::shared_ptr<const PreparedQuery> query, ServeRequest request) {
  auto job = std::make_shared<Ticket::Job>();
  job->query = std::move(query);
  job->request = std::move(request);
  counters_->submitted.fetch_add(1, std::memory_order_relaxed);

  if (job->query == nullptr) {
    FinishJob(*job, ServeResult{
                        Status::InvalidArgument("Submit requires a query"),
                        {}, 0, {}});
    return Ticket(std::move(job));
  }
  if (job->request.context.expired()) {
    // Dead on arrival: admitting it would only waste a queue slot.
    FinishJob(*job,
              ServeResult{Status::DeadlineExceeded(
                              "deadline expired before admission"),
                          {}, 0, {}});
    return Ticket(std::move(job));
  }

  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (accepting_ && queue_.size() < options_.max_queue) {
      queue_.push_back(job);
      admitted = true;
    }
  }
  if (!admitted) {
    FinishJob(*job,
              ServeResult{Status::ResourceExhausted(
                              "serving queue full — load shed, retry "
                              "with backoff"),
                          {}, 0, {}},
              /*shed=*/true);
    return Ticket(std::move(job));
  }
  counters_->admitted.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return Ticket(std::move(job));
}

StatusOr<ServingRuntime::Ticket> ServingRuntime::Submit(
    std::string_view xpath, ServeRequest request) {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         collection_->PrepareCached(xpath));
  return Submit(std::move(query), std::move(request));
}

ServeResult ServingRuntime::Execute(
    std::shared_ptr<const PreparedQuery> query, ServeRequest request) {
  Ticket ticket = Submit(std::move(query), std::move(request));
  return ticket.Wait();
}

StatusOr<ServeResult> ServingRuntime::Execute(std::string_view xpath,
                                              ServeRequest request) {
  XPWQO_ASSIGN_OR_RETURN(Ticket ticket,
                         Submit(xpath, std::move(request)));
  return ticket.Wait();
}

void ServingRuntime::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Ticket::Job> job;
    std::vector<std::shared_ptr<Ticket::Job>> dead;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      // Eager eviction: jobs whose deadline already expired during queue
      // wait are dead on arrival — sweep every leading one off the queue
      // in one pass and complete them kDeadlineExceeded below, without
      // ever touching the evaluator (their visited count stays 0).
      while (!queue_.empty() && queue_.front()->request.context.expired()) {
        dead.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (!queue_.empty()) {
        job = std::move(queue_.front());
        queue_.pop_front();
      } else if (!accepting_ && dead.empty()) {
        return;  // fully drained
      }
      active_ += dead.size() + (job ? 1 : 0);
    }
    for (const std::shared_ptr<Ticket::Job>& d : dead) {
      counters_->doa_evicted.fetch_add(1, std::memory_order_relaxed);
      FinishJob(*d, ServeResult{Status::DeadlineExceeded(
                                    "deadline expired while queued — "
                                    "evicted without evaluation"),
                                {}, 0, {}});
    }
    if (job) RunJob(*job);
    if (!dead.empty() || job) {
      std::lock_guard<std::mutex> lock(mu_);
      active_ -= dead.size() + (job ? 1 : 0);
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ServingRuntime::RunJob(Ticket::Job& job) {
  const Clock::time_point start = Clock::now();
  const QueryContext& ctx = job.request.context;
  ServeResult result;
  int64_t budget_left = ctx.max_visited;
  int64_t limit_left = job.request.limit;

  Status job_status;
  if (ctx.cancel.cancelled()) {
    job_status = Status::Cancelled("query cancelled while queued");
  } else if (ctx.expired()) {
    // Queue time counts against the deadline: a job that expired while
    // waiting is not started at all.
    job_status = Status::DeadlineExceeded("deadline expired while queued");
  } else {
    // A request may target one document; by default the job fans out
    // across the whole collection.
    std::vector<std::string> one;
    const std::vector<std::string>* names = &collection_->names();
    if (!job.request.document.empty()) {
      one.push_back(job.request.document);
      names = &one;
    }
    for (const std::string& name : *names) {
      if (limit_left == 0) break;
      DocumentResult row;
      row.name = name;
      const Status step =
          RunDocument(name, job, &budget_left, &limit_left, &row);
      result.total_visited += row.visited;
      if (!step.ok()) {
        // Job-level trip: the row's partial output is garbage by the
        // interruption contract and is not reported.
        job_status = step;
        break;
      }
      result.documents.push_back(std::move(row));
    }
    // A job whose every document failed is a failed job; surface the
    // first document error (a fully-corrupt collection reads as
    // kCorruption, not a hollow OK).
    if (job_status.ok() && !result.documents.empty()) {
      bool any_ok = false;
      for (const DocumentResult& row : result.documents) {
        if (row.status.ok()) {
          any_ok = true;
          break;
        }
      }
      if (!any_ok) job_status = result.documents.front().status;
    }
  }

  result.status = std::move(job_status);
  result.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  counters_->latency_us.Record(result.latency.count());
  counters_->visited_nodes.Record(result.total_visited);
  FinishJob(job, std::move(result));
}

Status ServingRuntime::RunDocument(const std::string& name, Ticket::Job& job,
                                   int64_t* budget_left, int64_t* limit_left,
                                   DocumentResult* row) {
  const QueryContext& ctx = job.request.context;
  const int max_attempts = std::max(1, options_.max_attempts);
  std::chrono::microseconds backoff = options_.retry_backoff;

  for (int attempt = 1;; ++attempt) {
    row->attempts = attempt;
    if (ctx.cancel.cancelled()) {
      return Status::Cancelled("query cancelled by its cancellation token");
    }
    if (ctx.expired()) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    if (ctx.max_visited >= 0 && *budget_left <= 0) {
      return Status::ResourceExhausted("visited-node budget exhausted");
    }

    Status failure;
    StatusOr<const Engine*> engine = collection_->Get(name);
    // A first-touch lazy load is the slow path of a Get — re-check the
    // envelope after it, so a request cancelled or expired mid-load
    // (a vanished client, say) stops here instead of evaluating a
    // document nobody is waiting for.
    if (ctx.cancel.cancelled()) {
      return Status::Cancelled("query cancelled by its cancellation token");
    }
    if (ctx.expired()) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    if (engine.ok()) {
      // The control lives on this frame and the cursor dies before it.
      ExecControl control =
          ctx.MakeControl(ctx.max_visited >= 0 ? *budget_left : -1);
      QueryOptions query_options;
      query_options.control = &control;
      StatusOr<ResultCursor> cursor =
          (*engine)->OpenCursor(job.query, query_options);
      if (cursor.ok()) {
        std::vector<NodeId> nodes;
        for (;;) {
          const NodeId n = cursor->Next();
          if (n == kNullNode) break;
          nodes.push_back(n);
          if (*limit_left > 0 && --(*limit_left) == 0) break;
        }
        const CursorStats stats = cursor->TakeStats();
        row->visited =
            stats.eval.nodes_visited + stats.hybrid.nodes_visited;
        if (ctx.max_visited >= 0) *budget_left -= row->visited;
        XPWQO_RETURN_IF_ERROR(cursor->status());  // job-level trip codes
        row->status = Status::OK();
        row->nodes = std::move(nodes);
        return Status::OK();
      }
      failure = cursor.status();
    } else {
      failure = engine.status();
    }

    switch (failure.code()) {
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kCancelled:
      case StatusCode::kResourceExhausted:
        return failure;  // job-level conditions, never per-document
      default:
        break;
    }
    if (IsRetryable(failure) && attempt < max_attempts) {
      // Retry with doubling backoff, never sleeping past the deadline.
      counters_->retries.fetch_add(1, std::memory_order_relaxed);
      if (ctx.has_deadline() && Clock::now() + backoff >= ctx.deadline) {
        return Status::DeadlineExceeded(
            "query deadline expired during retry backoff");
      }
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    // Deterministic (or retries-exhausted) per-document failure: record it
    // and let the rest of the collection keep serving.
    counters_->docs_failed.fetch_add(1, std::memory_order_relaxed);
    row->status = std::move(failure);
    return Status::OK();
  }
}

ServingStatsSnapshot ServingRuntime::Stats() const {
  ServingStatsSnapshot snap;
  const Counters& c = *counters_;
  snap.submitted = c.submitted.load(std::memory_order_relaxed);
  snap.admitted = c.admitted.load(std::memory_order_relaxed);
  snap.shed = c.shed.load(std::memory_order_relaxed);
  snap.doa_evicted = c.doa_evicted.load(std::memory_order_relaxed);
  snap.ok = c.ok.load(std::memory_order_relaxed);
  snap.deadline_exceeded = c.deadline_exceeded.load(std::memory_order_relaxed);
  snap.cancelled = c.cancelled.load(std::memory_order_relaxed);
  snap.resource_exhausted =
      c.resource_exhausted.load(std::memory_order_relaxed);
  snap.corruption = c.corruption.load(std::memory_order_relaxed);
  snap.io_error = c.io_error.load(std::memory_order_relaxed);
  snap.other_error = c.other_error.load(std::memory_order_relaxed);
  snap.retries = c.retries.load(std::memory_order_relaxed);
  snap.docs_failed = c.docs_failed.load(std::memory_order_relaxed);
  snap.scrub_sweeps = c.scrub_sweeps.load(std::memory_order_relaxed);
  snap.scrub_docs_checked =
      c.scrub_docs_checked.load(std::memory_order_relaxed);
  snap.scrub_quarantined =
      c.scrub_quarantined.load(std::memory_order_relaxed);
  snap.query_cache_hits = collection_->query_cache()->hits();
  snap.query_cache_misses = collection_->query_cache()->misses();
  snap.latency_us = HistogramSnapshot(c.latency_us);
  snap.visited_nodes = HistogramSnapshot(c.visited_nodes);
  return snap;
}

}  // namespace xpwqo
