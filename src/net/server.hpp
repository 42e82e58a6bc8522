/**
 * @file
 * zac_serve's engine: a long-running TCP daemon fronting the
 * fault-tolerant CompileService (ISSUE 8 — the transport layer the
 * ROADMAP's "network service daemon" item calls for).
 *
 * Protocol (one request per connection, response then close):
 *  - `POST /compile` — body is JSONL, one submit record per line
 *    (the manifest-job vocabulary of service::submissionFromJson():
 *    {"circuit": ..., "label": ..., "target": name-or-index,
 *    "seed": ..., "timeout_seconds": ...}, plus
 *    "lane": "interactive"|"batch"). The response streams one
 *    terminal JSONL record per line as workers finish — the records
 *    are produced by the same `protocol.*` writer as zac_batch, so
 *    the served payload bytes are byte-identical to the offline
 *    output (modulo the wall-clock timing fields; cache hits
 *    included). Lines are submitted while the body is still
 *    uploading.
 *  - `GET /healthz` — liveness plus a coherent counters snapshot
 *    (queue depth, lanes, cache hit/miss, retries, uptime).
 *
 * Fair scheduling: the service's job queue has two lanes (interactive
 * and batch, weighted round-robin across lanes), and every submission
 * carries its connection id as the client key (round-robin across
 * connections within a lane), so one greedy batch client cannot
 * starve interactive work by more than a few jobs, at any queue
 * depth.
 *
 * Lifecycle: per-connection read/write timeouts; a max-connections
 * cap answered with the protocol's existing `overloaded` status
 * (HTTP 503); requestDrain() — async-signal-safe, wired to
 * SIGTERM/SIGINT by zac_serve — stops accepting, runs
 * CompileService::drainAndStop(deadline) (cache snapshot flush
 * included), flushes response buffers, and returns from run() with
 * the clean/forced verdict.
 *
 * Threading: one poll()-based event loop (the run() caller) owns the
 * sockets, parses submit lines under its lock and submits them right
 * after releasing it; service workers deliver records through the
 * sink, which finds the connection by the record's client key,
 * appends the serialized bytes to its write buffer and wakes the loop
 * through a self-pipe. A connection that dies cancels its undelivered
 * jobs (CompileService::cancelClient), and records for a connection
 * that is gone are dropped. Once a drain begins, one more thread runs
 * drainAndStop() while the loop keeps flushing.
 */

#ifndef ZAC_NET_SERVER_HPP
#define ZAC_NET_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"

namespace zac::net
{

/** The two lanes (indices into the service's lane_weights). */
enum : std::size_t
{
    kLaneInteractive = 0,
    kLaneBatch = 1,
    kNumLanes = 2,
};

struct ServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 picks an ephemeral port
    int backlog = 128;

    /** Accepted-connection cap; connections past it are answered
     *  with HTTP 503 + an `overloaded` JSONL error record. */
    std::size_t max_connections = 256;
    /** Max idle seconds while a request is incomplete (408 on
     *  expiry). <= 0 disables. */
    double read_timeout_seconds = 10.0;
    /** Max seconds without flushing progress while response bytes
     *  are pending (connection dropped, jobs cancelled). <= 0
     *  disables. */
    double write_timeout_seconds = 30.0;
    /** Deadline handed to CompileService::drainAndStop() on drain
     *  (0 = wait for all in-flight work). */
    double drain_deadline_seconds = 0.0;
    /** Max seconds to flush remaining response bytes after the
     *  service drained. */
    double flush_deadline_seconds = 10.0;

    /** Embed the full ZAIR program in result records. */
    bool include_zair = true;

    HttpRequestParser::Limits http_limits;
    /** The wrapped engine's configuration (workers, cache, retry,
     *  snapshot persistence, fault injection, ...). Its lane_weights
     *  must name both lanes; the default weighs interactive:batch
     *  4:1. */
    service::CompileService::Config service = [] {
        service::CompileService::Config c;
        c.lane_weights = {4, 1};
        return c;
    }();
};

/** Server-side monotonic counters (surfaced by /healthz). */
struct NetStats
{
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected_overloaded = 0;
    std::uint64_t connections_timed_out = 0;
    std::uint64_t requests_compile = 0;
    std::uint64_t requests_healthz = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t lines_admitted = 0;
    std::uint64_t lines_rejected = 0;
    std::uint64_t records_streamed = 0;
    std::size_t active_connections = 0;
};

/** The network compile daemon (see file comment). */
class CompileServer
{
  public:
    CompileServer(std::vector<service::CompileTarget> targets,
                  ServerConfig config);
    ~CompileServer();

    CompileServer(const CompileServer &) = delete;
    CompileServer &operator=(const CompileServer &) = delete;

    /**
     * Bind and listen (must precede run()).
     * @return the actually bound port (useful with port 0).
     * @throws zac::FatalError when the address cannot be bound.
     */
    std::uint16_t listen();

    /**
     * The blocking event loop: serves until requestDrain(), then
     * drains and returns. Call from one thread only, after listen().
     * @return true when the drain finished without the deadline
     *         forcing cancellations.
     */
    bool run();

    /**
     * Begin graceful shutdown: stop accepting, drainAndStop(deadline)
     * (flushes the cache snapshot), flush responses, make run()
     * return. Async-signal-safe and idempotent.
     */
    void requestDrain() noexcept;

    std::uint16_t port() const { return port_; }
    NetStats netStats() const;

  private:
    struct Connection
    {
        enum class Mode
        {
            Request, ///< still routing (parsing request line/headers)
            Compile, ///< POST /compile: streaming result records
            Simple,  ///< fixed response queued; close after flush
        };

        std::uint64_t id = 0;
        Fd fd;
        HttpRequestParser parser;
        Mode mode = Mode::Request;
        std::size_t default_lane = kLaneInteractive;

        std::string outbuf;
        std::size_t outoff = 0;

        bool response_started = false;
        bool close_after_flush = false;
        bool request_done = false;  ///< no further submissions
        bool peer_closed_read = false;
        /** Lingering close: response flushed + write side shut down,
         *  draining unread request bytes to avoid an RST that could
         *  discard the error response in flight. */
        bool lingering = false;
        std::size_t body_lines = 0; ///< body lines seen (for errors)
        std::size_t pending = 0;    ///< admitted lines awaiting records

        std::chrono::steady_clock::time_point last_read;
        std::chrono::steady_clock::time_point last_write_progress;
    };

    void eventLoop();
    /** Submit the lines parsed under mu_; call without holding it. */
    void submitParsed();
    void acceptNew(std::chrono::steady_clock::time_point now);
    /** @return false when the connection was closed. */
    bool handleReadable(std::uint64_t conn_id,
                        std::chrono::steady_clock::time_point now);
    bool handleWritable(std::uint64_t conn_id,
                        std::chrono::steady_clock::time_point now);
    void afterFeed(Connection &c);
    void dispatchRequest(Connection &c);
    void drainBodyLines(Connection &c);
    void handleSubmitLine(Connection &c, const std::string &line);
    void queueSimpleResponse(Connection &c, int status,
                             const std::string &reason,
                             const std::string &message);
    void appendLineError(Connection &c, service::JobStatus status,
                         const std::string &message);
    std::string healthzBody();
    void maybeFinish(Connection &c);
    /** Close and forget a connection, cancelling its undelivered
     *  jobs. */
    void closeConnection(std::uint64_t conn_id);
    void reapTimeouts(std::chrono::steady_clock::time_point now);
    void beginDrainLocked();
    /** The CompileService sink: route one terminal record. */
    void routeRecord(const service::JobRecord &record);

    std::vector<std::string> target_names_;
    ServerConfig config_;

    Fd listener_;
    std::uint16_t port_ = 0;
    WakePipe wake_;
    std::atomic<bool> drain_requested_{false};
    std::atomic<bool> service_drained_{false};
    bool draining_ = false; ///< event-loop-private once observed

    std::unique_ptr<service::CompileService> service_;
    /** Runs drainAndStop(); started when the drain begins. */
    std::thread drainer_;
    bool drained_clean_ = true; ///< drainer writes before flagging

    /** Lines parsed under mu_, not yet submitted (event loop only). */
    std::vector<service::CompileService::Submission> parsed_;

    mutable std::mutex mu_;
    std::uint64_t next_conn_id_ = 1;
    std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    NetStats stats_;
};

} // namespace zac::net

#endif // ZAC_NET_SERVER_HPP
