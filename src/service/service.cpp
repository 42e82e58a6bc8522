#include "service/service.hpp"

#include <algorithm>
#include <cmath>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace zac::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * The instant @p timeout_seconds after @p submit, or time_point::max()
 * (no deadline) for a timeout <= 0 or one the clock cannot represent
 * after @p submit.
 */
Clock::time_point
deadlineAfter(Clock::time_point submit, double timeout_seconds)
{
    const std::chrono::duration<double, Clock::period> timeout =
        std::chrono::duration<double>(timeout_seconds);
    const Clock::duration headroom = Clock::time_point::max() - submit;
    // A count below the rounded headroom is below the exact one, so
    // the conversion and the addition below cannot overflow.
    if (!(timeout.count() > 0.0) ||
        timeout.count() >= static_cast<double>(headroom.count()))
        return Clock::time_point::max();
    return submit +
           Clock::duration(static_cast<Clock::rep>(timeout.count()));
}

} // namespace

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Done: return "done";
      case JobStatus::Cancelled: return "cancelled";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Failed: return "failed";
      case JobStatus::Overloaded: return "overloaded";
    }
    return "?";
}

std::optional<JobStatus>
jobStatusFromName(std::string_view name)
{
    if (name == "done")
        return JobStatus::Done;
    if (name == "cancelled")
        return JobStatus::Cancelled;
    if (name == "timed_out")
        return JobStatus::TimedOut;
    if (name == "failed")
        return JobStatus::Failed;
    if (name == "overloaded")
        return JobStatus::Overloaded;
    return std::nullopt;
}

CompileService::CompileService(std::vector<CompileTarget> targets,
                               Config config, ResultSink sink)
    : config_(config), sink_(std::move(sink)),
      queue_(config.lane_weights), cache_(config.cache_capacity)
{
    if (targets.empty())
        fatal("CompileService: at least one compile target required");
    targets_.reserve(targets.size());
    for (CompileTarget &t : targets) {
        TargetState st;
        // Contexts come from the process-wide pool, so repeated
        // constructions against one architecture (restarts, the churn
        // bench) share a single build.
        st.context = WarmContextPool::global().acquire(t.arch);
        st.target = std::move(t);
        targets_.push_back(std::move(st));
    }

    faults_ = config_.faults ? config_.faults : FaultPlan::fromEnv();

    // Warm start: reload the persisted cache before any worker can
    // race a compile against it. The loader is tolerant — a damaged
    // snapshot costs hits, never construction.
    if (!config_.snapshot_path.empty() && cache_.enabled()) {
        snapshot_load_ =
            loadCacheSnapshot(config_.snapshot_path, cache_);
        stats_.snapshot_records_loaded = snapshot_load_.records_loaded;
        stats_.snapshot_records_skipped = snapshot_load_.skippedTotal();
        if (snapshot_load_.skippedTotal() > 0)
            warn("CompileService: cache snapshot " +
                 config_.snapshot_path + ": loaded " +
                 std::to_string(snapshot_load_.records_loaded) +
                 " records, skipped " +
                 std::to_string(snapshot_load_.skippedTotal()) +
                 " damaged");
    }

    num_workers_ = config_.num_workers > 0
                       ? config_.num_workers
                       : static_cast<int>(std::max(
                             1u, std::thread::hardware_concurrency()));
    workers_.reserve(static_cast<std::size_t>(num_workers_));
    for (int i = 0; i < num_workers_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    shutdown();
}

const CompileTarget &
CompileService::target(int index) const
{
    if (index < 0 || index >= numTargets())
        fatal("CompileService::target: index out of range");
    return targets_[static_cast<std::size_t>(index)].target;
}

std::uint64_t
CompileService::submit(Submission s)
{
    if (s.target < 0 ||
        s.target >= static_cast<int>(targets_.size()))
        fatal("CompileService::submit: invalid target index " +
              std::to_string(s.target));
    if (s.lane >= config_.lane_weights.size())
        fatal("CompileService::submit: invalid lane index " +
              std::to_string(s.lane));

    Job job{std::move(s)};
    if (job.name.empty())
        job.name = job.circuit.name();

    bool reject = false;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shutdown_)
            fatal("CompileService::submit: service is shut down");
        job.id = next_job_id_++;
        const std::uint64_t pending =
            stats_.submitted - stats_.delivered;
        reject = draining_ ||
                 (config_.admission_high_water > 0 &&
                  pending >= config_.admission_high_water);
        ++stats_.submitted;
        if (reject)
            ++stats_.overloaded;
        else
            live_jobs_.emplace(job.id,
                               LiveJob{job.client, job.cancel_flag});
    }
    const std::uint64_t id = job.id;
    job.submit_time = std::chrono::steady_clock::now();

    if (reject) {
        // Graceful degradation: shed load with an immediate terminal
        // record from the submitting thread — the delivery invariant
        // (one record per submit) holds even for rejected work.
        JobRecord record;
        record.job_id = id;
        record.name = job.name;
        record.target = job.target;
        record.client = job.client;
        record.status = JobStatus::Overloaded;
        record.circuit_hash = job.circuit.contentHash();
        record.error = "rejected at admission: service overloaded";
        deliver(record, job.submit_time);
        return id;
    }

    if (!enqueue(std::move(job))) {
        // Closed between the check and the push: roll the books back.
        std::lock_guard<std::mutex> lock(state_mutex_);
        --stats_.submitted;
        live_jobs_.erase(id);
        fatal("CompileService::submit: service is shut down");
    }
    return id;
}

bool
CompileService::cancel(std::uint64_t job_id)
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = live_jobs_.find(job_id);
    if (it == live_jobs_.end())
        return false;
    it->second.cancel_flag->store(true, std::memory_order_relaxed);
    return true;
}

std::size_t
CompileService::cancelClient(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::size_t cancelled = 0;
    for (auto &[id, live] : live_jobs_) {
        if (live.client != client)
            continue;
        live.cancel_flag->store(true, std::memory_order_relaxed);
        ++cancelled;
    }
    return cancelled;
}

void
CompileService::drain()
{
    std::unique_lock<std::mutex> lock(state_mutex_);
    all_done_.wait(
        lock, [&] { return stats_.delivered == stats_.submitted; });
}

bool
CompileService::drainAndStop(double deadline_seconds)
{
    // Serialize concurrent stop requests: the second caller blocks
    // here until the first finished joining, then sees shutdown_.
    std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shutdown_)
            return true;
        draining_ = true; // submissions from here on are rejected
    }

    bool clean = true;
    {
        std::unique_lock<std::mutex> lock(state_mutex_);
        const auto done = [&] {
            return stats_.delivered == stats_.submitted;
        };
        if (deadline_seconds > 0.0) {
            if (!all_done_.wait_for(
                    lock,
                    std::chrono::duration<double>(deadline_seconds),
                    done)) {
                // Deadline expired: cancel every live job. Compiles
                // stop at their next phase boundary, queued jobs drop
                // at pickup, so this wait is bounded.
                clean = false;
                for (auto &[id, live] : live_jobs_)
                    live.cancel_flag->store(true,
                                            std::memory_order_relaxed);
                all_done_.wait(lock, done);
            }
        } else {
            all_done_.wait(lock, done);
        }
    }

    flushSnapshot();
    queue_.close();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        shutdown_ = true;
    }
    return clean;
}

void
CompileService::shutdown()
{
    drainAndStop(0.0);
}

ResultCache::Stats
CompileService::cacheStats() const
{
    return cache_.stats();
}

CompileService::Stats
CompileService::stats() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return stats_;
}

CompileService::ServiceStats
CompileService::serviceStats() const
{
    ServiceStats s;
    s.cache = cache_.stats();
    s.lane_depths = queue_.laneSizes();
    for (std::size_t depth : s.lane_depths)
        s.queue_depth += depth;
    s.workers = num_workers_;
    s.uptime_seconds =
        secondsSince(start_time_, std::chrono::steady_clock::now());
    s.warm = WarmContextPool::global().stats();
    std::lock_guard<std::mutex> lock(state_mutex_);
    s.counters = stats_;
    s.pending = stats_.submitted - stats_.delivered;
    s.draining = draining_;
    return s;
}

void
CompileService::flushSnapshot()
{
    if (config_.snapshot_path.empty() || !cache_.enabled())
        return;
    try {
        const std::size_t n =
            saveCacheSnapshot(config_.snapshot_path, cache_);
        std::lock_guard<std::mutex> lock(state_mutex_);
        stats_.snapshot_records_written = n;
    } catch (const std::exception &e) {
        // A failed flush loses warm-start hits, not results: every
        // record was already delivered through the sink.
        warn(std::string(
                 "CompileService: cache snapshot flush failed: ") +
             e.what());
    }
}

void
CompileService::workerLoop()
{
    // One reusable compile-scratch per worker: buffer capacity
    // persists across the jobs this thread runs, contents are
    // value-reset per compile.
    CompileScratch scratch;
    while (std::optional<Job> job = queue_.pop())
        runJob(*job, scratch);
}

std::shared_ptr<const ZacStreamedResult>
CompileService::reboundResult(
    std::shared_ptr<const ZacStreamedResult> hit,
    const std::string &circuit_name)
{
    // The cache key is name-blind (Circuit::contentHash ignores
    // names), but the result embeds the compiled circuit's name both
    // as metadata and as one string literal inside the serialized
    // bytes (at the recorded name span). Nothing else derives from
    // the name, so when a content-equal circuit arrives under a
    // different name, splicing the new literal over the old one
    // reproduces a fresh compile of *this* submission bit for bit.
    if (hit->circuit_name == circuit_name)
        return hit;
    auto rebound = std::make_shared<ZacStreamedResult>(*hit);
    const std::string literal = json::Value(circuit_name).dump();
    rebound->program_json.replace(rebound->name_off,
                                  rebound->name_len, literal);
    rebound->name_len = literal.size();
    rebound->circuit_name = circuit_name;
    return rebound;
}

void
CompileService::runJob(Job &job, CompileScratch &scratch)
{
    const Clock::time_point picked_up = Clock::now();
    const Clock::time_point submit_time = job.submit_time;

    const TargetState &ts = targets_[static_cast<std::size_t>(
        job.target)];

    JobRecord record;
    record.job_id = job.id;
    record.name = job.name;
    record.target = job.target;
    record.client = job.client;
    record.circuit_hash = job.circuit.contentHash();
    record.queue_seconds = secondsSince(submit_time, picked_up);

    // Per-job deterministic seed: the effective options are fixed at
    // submit time and independent of worker scheduling.
    ZacOptions opts = ts.target.opts;
    if (job.seed)
        opts.seed = *job.seed;
    const CacheKey key{record.circuit_hash, ts.context->fingerprint,
                       opts.digest()};

    if (job.cancel_flag->load(std::memory_order_relaxed)) {
        record.status = JobStatus::Cancelled;
        finishJob(record, key, submit_time);
        return;
    }

    if (cache_.enabled()) {
        if (std::shared_ptr<const ZacStreamedResult> hit =
                cache_.find(key)) {
            record.status = JobStatus::Done;
            record.cache_hit = true;
            record.result =
                reboundResult(std::move(hit), job.circuit.name());
            finishJob(record, key, submit_time);
            return;
        }
    }

    // In-flight dedup: identical keys racing before the first cache
    // insert coalesce onto one compile (the leader); everyone else
    // parks as a waiter and is settled from the leader's terminal
    // record. Only meaningful with the cache on — with the cache off
    // every job is an intentional recompile (the perf harness measures
    // raw throughput that way).
    if (cache_.enabled()) {
        bool is_waiter = false;
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            auto it = inflight_.find(key);
            if (it == inflight_.end()) {
                inflight_.emplace(key, InflightEntry{job.id, {}});
            } else if (it->second.leader_id != job.id) {
                it->second.waiters.push_back(std::move(job));
                is_waiter = true;
            }
            // leader_id == job.id: a retried leader coming back
            // around — it stays the leader and compiles again.
        }
        if (is_waiter)
            return; // the leader's terminal record settles this job
        // Close the race with a previous leader that published and
        // resolved between our cache miss and our registration.
        if (std::shared_ptr<const ZacStreamedResult> hit =
                cache_.find(key)) {
            record.status = JobStatus::Done;
            record.cache_hit = true;
            record.result =
                reboundResult(std::move(hit), job.circuit.name());
            finishJob(record, key, submit_time);
            return;
        }
    }

    record.attempts = job.attempt;

    // Injected slow-worker stall; placed after leader registration so
    // a stalled leader actually accumulates waiters to coalesce.
    if (faults_ && faults_->shouldStall(job.id, job.attempt))
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                faults_->stall_ms));

    CompileControl control;
    control.cancel = job.cancel_flag.get();
    control.deadline = deadlineAfter(submit_time, job.timeout_seconds);

    // Injected mid-compile cancel: flip the job's own cancel flag at a
    // deterministic phase boundary — exactly the code path a real
    // cancel() during a compile takes.
    int inject_cancel_phase = -1;
    int phase_index = 0;
    if (faults_ && faults_->shouldCancel(job.id, job.attempt))
        inject_cancel_phase =
            faults_->cancelPhase(job.id, job.attempt);
    if (inject_cancel_phase >= 0)
        control.on_phase = [&](const char *) {
            if (phase_index++ == inject_cancel_phase)
                job.cancel_flag->store(true,
                                       std::memory_order_relaxed);
        };

    try {
        if (faults_ && faults_->shouldThrow(job.id, job.attempt))
            throw TransientError(
                "injected transient fault (job " +
                std::to_string(job.id) + ", attempt " +
                std::to_string(job.attempt) + ")");
        // Stream the scheduler's output straight into the serialized
        // bytes with the worker's reusable scratch, binding the
        // target's shared context to the job's effective options (no
        // architecture copy, no rebuild, seed override or not).
        auto shared = std::make_shared<const ZacStreamedResult>(
            ZacCompiler(ts.context, opts)
                .compileStreamed(job.circuit, control, &scratch));
        record.result = cache_.enabled()
                            ? cache_.insert(key, std::move(shared))
                            : std::move(shared);
        record.status = JobStatus::Done;
    } catch (const CompileCancelled &c) {
        record.status = c.timedOut() ? JobStatus::TimedOut
                                     : JobStatus::Cancelled;
    } catch (const TransientError &e) {
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++stats_.transient_failures;
        }
        if (job.attempt <= config_.max_retries) {
            // Bounded exponential backoff, deterministic (no jitter —
            // reproducibility beats decorrelation inside one pool).
            const double backoff_ms = std::min(
                config_.retry_backoff_max_ms,
                config_.retry_backoff_ms *
                    std::ldexp(1.0, job.attempt - 1));
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                ++stats_.retries;
            }
            if (backoff_ms > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        backoff_ms));
            ++job.attempt;
            if (enqueue(std::move(job)))
                return; // not terminal yet; still the inflight leader
            record.status = JobStatus::Failed;
            record.error =
                std::string("service shut down during retry: ") +
                e.what();
        } else {
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                ++stats_.retries_exhausted;
            }
            record.status = JobStatus::Failed;
            record.error = "transient failure persisted after " +
                           std::to_string(job.attempt) +
                           " attempts: " + e.what();
        }
    } catch (const std::exception &e) {
        // FatalError (bad input for the target), PanicError (library
        // bug), bad_alloc, ... — permanent: a retry would fail the
        // same way, and a batch engine must outlive any one job.
        record.status = JobStatus::Failed;
        record.error = e.what();
    }
    finishJob(record, key, submit_time);
}

void
CompileService::finishJob(JobRecord &record, const CacheKey &key,
                          std::chrono::steady_clock::time_point
                              submit_time)
{
    deliver(record, submit_time);

    // If this job was the registered in-flight leader for its key,
    // resolve the entry and settle everyone who coalesced behind it.
    // Waiters that arrive after the erase find the result in the cache
    // (the insert happened before delivery) or become a new leader.
    std::vector<Job> waiters;
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end() &&
            it->second.leader_id == record.job_id) {
            waiters = std::move(it->second.waiters);
            inflight_.erase(it);
        }
    }
    for (Job &w : waiters)
        settleWaiter(w, record);
}

void
CompileService::settleWaiter(Job &waiter, const JobRecord &leader)
{
    const Clock::time_point submit_time = waiter.submit_time;
    JobRecord record;
    record.job_id = waiter.id;
    record.name = waiter.name;
    record.target = waiter.target;
    record.client = waiter.client;
    record.circuit_hash = leader.circuit_hash;
    record.queue_seconds = secondsSince(submit_time, Clock::now());

    if (waiter.cancel_flag->load(std::memory_order_relaxed)) {
        record.status = JobStatus::Cancelled;
        deliver(record, submit_time);
        return;
    }

    if (leader.status == JobStatus::Done) {
        if (Clock::now() >=
            deadlineAfter(submit_time, waiter.timeout_seconds)) {
            record.status = JobStatus::TimedOut;
            deliver(record, submit_time);
            return;
        }
        record.status = JobStatus::Done;
        record.cache_hit = true;
        record.result =
            reboundResult(leader.result, waiter.circuit.name());
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++stats_.coalesced_served;
        }
        deliver(record, submit_time);
        return;
    }

    // The leader produced no result (cancelled / timed out / failed).
    // Its outcome must not leak onto an unrelated submission — the
    // waiter gets its own run.
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.coalesced_requeued;
    }
    if (!enqueue(std::move(waiter))) {
        record.status = JobStatus::Failed;
        record.error =
            "service shut down while re-queueing coalesced job";
        deliver(record, submit_time);
    }
}

bool
CompileService::enqueue(Job job)
{
    // Read the lane and client before the job moves into the queue.
    const std::size_t lane = job.lane;
    const std::uint64_t client = job.client;
    return queue_.push(lane, client, std::move(job));
}

void
CompileService::deliver(JobRecord &record,
                        std::chrono::steady_clock::time_point
                            submit_time)
{
    record.service_seconds =
        secondsSince(submit_time, std::chrono::steady_clock::now());
    if (sink_) {
        std::lock_guard<std::mutex> lock(sink_mutex_);
        try {
            sink_(record);
        } catch (const std::exception &e) {
            // A throwing sink must not kill the worker (std::terminate)
            // or skip the bookkeeping below, which drain() depends on.
            warn(std::string("CompileService: result sink threw: ") +
                 e.what());
        }
    }
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        live_jobs_.erase(record.job_id);
        ++stats_.delivered;
    }
    all_done_.notify_all();
}

} // namespace zac::service
