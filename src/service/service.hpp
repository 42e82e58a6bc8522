/**
 * @file
 * The batch compile service: a fault-tolerant work-queue engine that
 * shards zac::compile() calls across a worker pool.
 *
 * This is the server mode called for by the heavy-traffic north star:
 * accept many circuits, compile them concurrently (compile() is const
 * and re-entrant: a compile's buffers belong to the call or to the
 * worker's CompileScratch, never to a thread), serve repeated
 * submissions from a content-addressed result cache, and stream results
 * out through a sink as workers finish — no global barrier, no
 * buffering of whole batches.
 *
 * The job queue is one WeightedLaneQueue (lanes.hpp): every submission
 * names a lane and a client key, and workers pop by weighted
 * round-robin across lanes and round-robin across clients within a
 * lane. The default configuration has one lane, which makes the queue
 * a per-client round-robin; zac_serve configures interactive and batch
 * lanes. submit() never blocks.
 *
 * Fault tolerance (ISSUE 6) layers four guarantees on top:
 *  - cache persistence: the result cache can spill to a JSONL snapshot
 *    (atomic write-temp-then-rename, checksummed records) and reload it
 *    on construction, so restarts start warm;
 *  - retry with bounded exponential backoff: transient worker failures
 *    (the injectable TransientError fault channel) re-enqueue the job
 *    up to `max_retries` times; permanent failures (bad circuit for the
 *    target) still fail fast;
 *  - graceful degradation: past an admission high-water mark new
 *    submissions are rejected with an `overloaded` terminal record
 *    instead of growing the backlog without bound, identical in-flight
 *    keys coalesce onto one compile (one compile, N records), and
 *    drainAndStop() stops admission, finishes in-flight work against a
 *    deadline, flushes the snapshot, and joins the workers;
 *  - deterministic fault injection: a seeded FaultPlan (or the
 *    ZAC_SERVICE_FAULT_* environment hook) drives throws, mid-compile
 *    cancellations, and stalls from tests and the chaos soak.
 *
 * Delivery invariant: every submit() leads to EXACTLY ONE terminal
 * JobRecord through the sink — compiled, cache-served, coalesced,
 * cancelled, timed out, failed (after retries), or rejected as
 * overloaded. drain(), cancelClient() and the chaos harness are built
 * on it.
 *
 * Determinism: a compilation is a pure function of (circuit,
 * architecture, options incl. seed). Workers never share mutable state
 * with a compile in flight, so results are bit-identical regardless of
 * worker count, scheduling order, or whether they were served from the
 * cache, a coalesced leader, or a reloaded snapshot. The perf harness
 * and tests assert this.
 */

#ifndef ZAC_SERVICE_SERVICE_HPP
#define ZAC_SERVICE_SERVICE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/compiler.hpp"
#include "core/options.hpp"
#include "service/cache_store.hpp"
#include "service/fault_injection.hpp"
#include "service/lanes.hpp"
#include "service/result_cache.hpp"
#include "service/warm_context_pool.hpp"

namespace zac::service
{

/**
 * One (architecture, options) pair jobs can target. The service
 * acquires a shared architecture context (fingerprint included) per
 * target at construction, so per-job work is just a hash of the circuit.
 */
struct CompileTarget
{
    std::string name;  ///< label echoed into protocol records
    Architecture arch; ///< finalized architecture
    ZacOptions opts;   ///< compile options (seed included)
};

/** Terminal state of one job. */
enum class JobStatus
{
    Done,       ///< compiled (or cache-served) successfully
    Cancelled,  ///< cancel() hit the job before/while it ran
    TimedOut,   ///< the per-job deadline expired mid-compile
    Failed,     ///< compile threw (bad circuit, retries exhausted, ...)
    Overloaded, ///< rejected at admission: backlog past the high-water
};

/** @return the lowercase protocol name for @p s (e.g. "done"). */
const char *jobStatusName(JobStatus s);

/** Inverse of jobStatusName(). @return nullopt for unknown names. */
std::optional<JobStatus> jobStatusFromName(std::string_view name);

/** Everything the service reports about one finished job. */
struct JobRecord
{
    std::uint64_t job_id = 0;
    std::string name;          ///< submission label (circuit name)
    int target = 0;            ///< index into targets()
    std::uint64_t client = 0;  ///< the submission's client key
    JobStatus status = JobStatus::Failed;
    bool cache_hit = false;
    /** Compile attempts consumed: 1 for a clean compile, 1+k after k
     *  transient retries, 0 when no compile ran (cache hit, coalesced
     *  serve, overloaded rejection, cancel before pickup). */
    int attempts = 0;
    std::string error;         ///< failure message when Failed

    /** Compile output; non-null iff status == Done. Shared with the
     *  cache — treat as immutable. The streamed shape carries the
     *  compact ZAIR/JSON bytes directly (no ZairProgram DOM). */
    std::shared_ptr<const ZacStreamedResult> result;

    std::uint64_t circuit_hash = 0; ///< circuit key component
    double queue_seconds = 0.0;     ///< submit -> worker pickup
    double service_seconds = 0.0;   ///< submit -> delivery
};

/**
 * The compile-service engine: weighted-lane job queue, worker pool,
 * result cache (optionally persistent), per-job and per-client
 * cancellation, timeout, transient-failure retry, in-flight dedup, and
 * admission control.
 *
 * Results are delivered through the sink callback, invoked from worker
 * threads (or, for overloaded rejections, the submitting thread) as
 * each job finishes. The service serializes sink invocations (one at a
 * time, under an internal mutex), so the sink may write to a shared
 * stream without further locking; it must not call back into the
 * service except via cancel() or cancelClient().
 */
class CompileService
{
  public:
    struct Config
    {
        /** Worker threads; 0 = hardware concurrency. */
        int num_workers = 0;
        /** Job-queue lanes, one weighted round-robin weight (>= 1)
         *  each; Submission::lane indexes this list. */
        std::vector<int> lane_weights = {1};
        /** Result-cache entries (0 disables caching). */
        std::size_t cache_capacity = 1024;

        /** Transient-failure re-runs per job (0 disables retry). */
        int max_retries = 2;
        /** First retry backoff; doubles per attempt (deterministic,
         *  no jitter — reproducibility beats decorrelation here). */
        double retry_backoff_ms = 1.0;
        /** Backoff growth cap. */
        double retry_backoff_max_ms = 50.0;
        /**
         * Admission high-water mark on undelivered jobs; a submission
         * past it is rejected with an `overloaded` terminal record. 0
         * never rejects.
         */
        std::size_t admission_high_water = 0;
        /**
         * Cache snapshot path; loaded (tolerantly) on construction and
         * flushed by drainAndStop()/shutdown(). Empty disables
         * persistence.
         */
        std::string snapshot_path;
        /** Fault plan; when unset, ZAC_SERVICE_FAULT_* is consulted. */
        std::optional<FaultPlan> faults;
    };

    /** Monotonic counters for the fault-tolerance machinery. */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t delivered = 0;
        std::uint64_t overloaded = 0;         ///< admission rejections
        std::uint64_t transient_failures = 0; ///< TransientErrors seen
        std::uint64_t retries = 0;            ///< re-enqueues scheduled
        std::uint64_t retries_exhausted = 0;  ///< Failed after budget
        std::uint64_t coalesced_served = 0;   ///< waiters served by a leader
        std::uint64_t coalesced_requeued = 0; ///< waiters re-run (leader failed)
        std::uint64_t snapshot_records_loaded = 0;
        std::uint64_t snapshot_records_skipped = 0;
        std::uint64_t snapshot_records_written = 0; ///< last flush
    };

    /**
     * One coherent health snapshot (ISSUE 8): the monotonic
     * fault-tolerance counters plus instantaneous queue/cache/uptime
     * figures, taken together so frontends (the zac_serve /healthz
     * endpoint, CLIs) report one consistent view instead of stitching
     * racing accessor calls.
     */
    struct ServiceStats
    {
        Stats counters;           ///< monotonic counters (see Stats)
        ResultCache::Stats cache; ///< hits/misses/entries
        std::size_t queue_depth = 0; ///< jobs waiting in the queue
        /** Jobs waiting per lane (sums to queue_depth). */
        std::vector<std::size_t> lane_depths;
        std::uint64_t pending = 0;   ///< submitted - delivered
        int workers = 0;
        double uptime_seconds = 0.0; ///< since construction
        bool draining = false;       ///< drainAndStop() in progress
        /** Process-wide warm-context pool counters (hits/misses/
         *  evictions/build time), snapshotted with the rest. */
        WarmContextPool::Stats warm;
    };

    using ResultSink = std::function<void(const JobRecord &)>;

    /** One job submission. */
    struct Submission
    {
        std::string name;    ///< label (defaults to circuit name)
        Circuit circuit;
        int target = 0;      ///< index into targets()
        /** Per-job deterministic seed override; when set, the target's
         *  options are re-digested with this seed (distinct cache
         *  entry, reproducible independent of submission order). */
        std::optional<std::uint64_t> seed;
        /** Per-job wall-clock timeout; <= 0 (or too large for the
         *  clock to represent) means none. */
        double timeout_seconds = 0.0;
        std::size_t lane = 0;      ///< index into Config::lane_weights
        std::uint64_t client = 0;  ///< round-robin and cancelClient() key
    };

    CompileService(std::vector<CompileTarget> targets, Config config,
                   ResultSink sink);
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    int numTargets() const { return static_cast<int>(targets_.size()); }
    /** The target @p index jobs can reference in Submission::target. */
    const CompileTarget &target(int index) const;
    int numWorkers() const { return num_workers_; }

    /**
     * Enqueue one job on its lane; never blocks. Past the admission
     * high-water mark (when one is configured) and during a drain the
     * job is instead rejected immediately with an `overloaded` terminal
     * record through the sink, from the calling thread.
     * @return the job id (also echoed in the JobRecord).
     * @throws FatalError on an invalid target or lane index, or after
     *         shutdown.
     */
    std::uint64_t submit(Submission s);

    /**
     * Request cancellation of a pending or running job. Queued jobs are
     * dropped at pickup; running jobs stop at the next compile phase
     * boundary. Either way the sink still receives a (Cancelled)
     * record.
     * @return false if the job already completed (or never existed).
     */
    bool cancel(std::uint64_t job_id);

    /**
     * cancel() every undelivered job of @p client (Submission::client):
     * the disconnect path. Each still gets its one terminal record.
     * @return the number of jobs whose cancel flag was set.
     */
    std::size_t cancelClient(std::uint64_t client);

    /** Block until every job submitted so far has been delivered. */
    void drain();

    /**
     * Graceful stop: refuse new admissions (rejected as overloaded),
     * finish in-flight and queued work, flush the cache snapshot (when
     * configured), close the queue, and join the workers. When
     * @p deadline_seconds > 0 and in-flight work outlasts it, every
     * live job is cancelled cooperatively and the drain completes with
     * Cancelled records. Idempotent.
     * @return true when all work finished without the deadline forcing
     *         cancellations.
     */
    bool drainAndStop(double deadline_seconds = 0.0);

    /** Drain, stop the workers, and close the queue; idempotent.
     *  Equivalent to drainAndStop() with no deadline. */
    void shutdown();

    ResultCache::Stats cacheStats() const;
    /** Fault-tolerance counters (retry/dedup/admission/persistence). */
    Stats stats() const;
    /** One coherent liveness snapshot for health endpoints. */
    ServiceStats serviceStats() const;
    /** Tolerant-loader counters from the construction-time snapshot
     *  load; zeros when no snapshot was configured or found. */
    const SnapshotLoadStats &snapshotLoadStats() const
    {
        return snapshot_load_;
    }

  private:
    struct TargetState
    {
        CompileTarget target;
        /** Shared architecture context from the process-wide
         *  WarmContextPool. */
        std::shared_ptr<const ArchContext> context;
    };

    /** A submission on its way through the queue and the workers. */
    struct Job : Submission
    {
        std::uint64_t id = 0;
        int attempt = 1; ///< current compile attempt (1-based)
        std::chrono::steady_clock::time_point submit_time{};
        std::shared_ptr<std::atomic<bool>> cancel_flag =
            std::make_shared<std::atomic<bool>>(false);
    };

    /** Jobs waiting on an identical in-flight compile. */
    struct InflightEntry
    {
        std::uint64_t leader_id = 0;
        std::vector<Job> waiters;
    };

    void workerLoop();
    /** @p scratch is the calling worker's reusable compile buffers
     *  (SA annealer state, scheduler tables), value-reset per use. */
    void runJob(Job &job, CompileScratch &scratch);
    /** Deliver a terminal record, then settle every waiter coalesced
     *  behind (record.job_id, key): serve them on Done, re-enqueue
     *  them when the leader failed. No-op for non-leaders. */
    void finishJob(JobRecord &record, const CacheKey &key,
                   std::chrono::steady_clock::time_point submit_time);
    /** Terminal record (or re-enqueue) for one coalesced waiter. */
    void settleWaiter(Job &waiter, const JobRecord &leader);
    void deliver(JobRecord &record,
                 std::chrono::steady_clock::time_point submit_time);
    /** Queue @p job on its lane under its client key (submissions,
     *  retries, requeued waiters). @return false once closed. */
    bool enqueue(Job job);
    /** Serve a cache/leader result, rebinding name metadata (a byte
     *  splice at the recorded name span) so the record is bit-identical
     *  to a fresh compile of the submission. */
    static std::shared_ptr<const ZacStreamedResult>
    reboundResult(std::shared_ptr<const ZacStreamedResult> hit,
                  const std::string &circuit_name);
    void flushSnapshot();

    std::vector<TargetState> targets_;
    Config config_;
    ResultSink sink_;
    int num_workers_ = 1;
    std::optional<FaultPlan> faults_;

    WeightedLaneQueue<Job> queue_;
    ResultCache cache_;
    SnapshotLoadStats snapshot_load_;
    std::vector<std::thread> workers_;

    /** Serializes drainAndStop()/shutdown() against each other. */
    std::mutex stop_mutex_;

    std::mutex sink_mutex_;

    std::mutex inflight_mutex_;
    std::unordered_map<CacheKey, InflightEntry, CacheKeyHash>
        inflight_;

    const std::chrono::steady_clock::time_point start_time_ =
        std::chrono::steady_clock::now();

    mutable std::mutex state_mutex_;
    std::condition_variable all_done_;
    std::uint64_t next_job_id_ = 1;
    bool draining_ = false;
    bool shutdown_ = false;
    Stats stats_;
    /** A job not yet delivered: its client and its cancel flag. */
    struct LiveJob
    {
        std::uint64_t client = 0;
        std::shared_ptr<std::atomic<bool>> cancel_flag;
    };
    /** Undelivered jobs, by job id. */
    std::unordered_map<std::uint64_t, LiveJob> live_jobs_;
};

} // namespace zac::service

#endif // ZAC_SERVICE_SERVICE_HPP
