#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "service/manifest.hpp"
#include "service/protocol.hpp"

namespace zac::net
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

const char *
reasonPhrase(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 411: return "Length Required";
      case 413: return "Content Too Large";
      case 414: return "URI Too Long";
      case 431: return "Request Header Fields Too Large";
      case 501: return "Not Implemented";
      case 503: return "Service Unavailable";
      case 505: return "HTTP Version Not Supported";
      default: return "Error";
    }
}

std::optional<std::size_t>
laneFromName(const std::string &name)
{
    if (name.empty() || name == "interactive")
        return kLaneInteractive;
    if (name == "batch")
        return kLaneBatch;
    return std::nullopt;
}

bool
isBlankLine(const std::string &line)
{
    return std::all_of(line.begin(), line.end(), [](char c) {
        return c == ' ' || c == '\t';
    });
}

} // namespace

CompileServer::CompileServer(std::vector<service::CompileTarget> targets,
                             ServerConfig config)
    : config_(std::move(config))
{
    if (config_.service.lane_weights.size() != kNumLanes)
        fatal("CompileServer: lane_weights must name the interactive "
              "and the batch lane");
    target_names_.reserve(targets.size());
    for (const service::CompileTarget &t : targets)
        target_names_.push_back(t.name);
    service_ = std::make_unique<service::CompileService>(
        std::move(targets), config_.service,
        [this](const service::JobRecord &r) { routeRecord(r); });
}

CompileServer::~CompileServer()
{
    // run() must have returned (or never started) by now; this only
    // cleans up a server that was constructed but not driven.
    if (drainer_.joinable())
        drainer_.join();
    service_->shutdown();
}

std::uint16_t
CompileServer::listen()
{
    listener_ = tcpListen(config_.host, config_.port, config_.backlog);
    port_ = localPort(listener_.get());
    return port_;
}

void
CompileServer::requestDrain() noexcept
{
    // Only async-signal-safe operations: a relaxed-ish atomic store
    // and a pipe write.
    drain_requested_.store(true, std::memory_order_release);
    wake_.notify();
}

bool
CompileServer::run()
{
    if (!listener_.valid())
        fatal("CompileServer::run: call listen() first");
    eventLoop();
    if (drainer_.joinable())
        drainer_.join();
    return drained_clean_;
}

NetStats
CompileServer::netStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    NetStats s = stats_;
    s.active_connections = conns_.size();
    return s;
}

// ---------------------------------------------------------------------------
// Result sink (worker threads, or the event loop for overloaded
// rejections).

void
CompileServer::routeRecord(const service::JobRecord &record)
{
    std::ostringstream os;
    const std::string &target_name =
        record.target >= 0 &&
                record.target < static_cast<int>(target_names_.size())
            ? target_names_[record.target]
            : target_names_.front();
    service::writeJobRecordJsonl(os, record, target_name,
                                 config_.include_zair);
    std::string bytes = std::move(os).str();

    std::lock_guard<std::mutex> lock(mu_);
    auto cit = conns_.find(record.client);
    if (cit == conns_.end())
        return; // the connection died; its record is dropped
    Connection &c = *cit->second;
    if (c.pending > 0)
        --c.pending;
    c.outbuf += bytes;
    ++stats_.records_streamed;
    maybeFinish(c);
    wake_.notify();
}

// ---------------------------------------------------------------------------
// Event loop.

void
CompileServer::eventLoop()
{
    bool flush_deadline_set = false;
    Clock::time_point flush_deadline{};

    for (;;) {
        // Snapshot the fd set under the lock; poll() without it so the
        // sink threads never wait a whole poll tick for mu_. Only this
        // thread closes fds, so the snapshot stays valid across poll.
        std::vector<pollfd> pfds;
        std::vector<std::uint64_t> pfd_conn;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!draining_ &&
                drain_requested_.load(std::memory_order_acquire))
                beginDrainLocked();

            pfds.push_back({wake_.readFd(), POLLIN, 0});
            pfd_conn.push_back(0);
            if (listener_.valid()) {
                pfds.push_back({listener_.get(), POLLIN, 0});
                pfd_conn.push_back(0);
            }
            for (const auto &[id, cp] : conns_) {
                const Connection &c = *cp;
                short events = 0;
                if (!c.peer_closed_read)
                    events |= POLLIN;
                if (c.outoff < c.outbuf.size())
                    events |= POLLOUT;
                if (events == 0)
                    continue;
                pfds.push_back({c.fd.get(), events, 0});
                pfd_conn.push_back(id);
            }
        }

        // A fixed tick bounds timeout-reaping and drain-progress
        // latency; everything else is event-driven via the wake pipe.
        const int rc = ::poll(pfds.data(), pfds.size(), 100);
        if (rc < 0 && errno != EINTR && errno != EAGAIN)
            fatal("zac_serve: poll failed: " +
                  std::string(std::strerror(errno)));

        const Clock::time_point now = Clock::now();
        if (pfds[0].revents != 0)
            wake_.drain();

        {
            std::lock_guard<std::mutex> lock(mu_);
            const bool listener_polled = pfds.size() > 1 &&
                                         pfd_conn[1] == 0 &&
                                         listener_.valid() &&
                                         pfds[1].fd == listener_.get();
            if (listener_polled && pfds[1].revents != 0)
                acceptNew(now);
        }

        for (std::size_t i = 1; i < pfds.size(); ++i) {
            if (pfd_conn[i] == 0 || pfds[i].revents == 0)
                continue;
            const std::uint64_t id = pfd_conn[i];
            if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
                bool open = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    open = handleReadable(id, now);
                }
                submitParsed();
                if (!open)
                    continue;
            }
            if (pfds[i].revents & POLLOUT) {
                std::lock_guard<std::mutex> lock(mu_);
                handleWritable(id, now);
            }
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            reapTimeouts(now);

            // Flush-driven closes (records routed by sink threads
            // while we slept).
            std::vector<std::uint64_t> writable;
            for (const auto &[id, cp] : conns_)
                if (cp->outoff < cp->outbuf.size() ||
                    cp->close_after_flush)
                    writable.push_back(id);
            for (std::uint64_t id : writable)
                handleWritable(id, now);

            if (draining_) {
                if (!flush_deadline_set &&
                    service_drained_.load(std::memory_order_acquire)) {
                    flush_deadline_set = true;
                    flush_deadline =
                        now + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      config_.flush_deadline_seconds));
                }
                if (flush_deadline_set) {
                    if (conns_.empty())
                        return;
                    if (now >= flush_deadline) {
                        warn("zac_serve: flush deadline expired with " +
                             std::to_string(conns_.size()) +
                             " connection(s) unflushed");
                        drained_clean_ = false;
                        std::vector<std::uint64_t> ids;
                        for (const auto &[id, cp] : conns_)
                            ids.push_back(id);
                        for (std::uint64_t id : ids)
                            closeConnection(id);
                        return;
                    }
                }
            }
        }
    }
}

void
CompileServer::submitParsed()
{
    // Outside mu_: submit() can deliver an overloaded record from this
    // thread, and the sink takes mu_. Lines are validated when parsed,
    // and the service stops only once a drain began, after which no
    // line is parsed into parsed_, so submit() does not throw here.
    std::vector<service::CompileService::Submission> batch;
    batch.swap(parsed_);
    for (service::CompileService::Submission &sub : batch)
        service_->submit(std::move(sub));
}

void
CompileServer::beginDrainLocked()
{
    draining_ = true;
    listener_.reset(); // stop accepting
    // Finish (or, past the deadline, cancel) every submitted job while
    // this loop keeps flushing their records.
    drainer_ = std::thread([this] {
        drained_clean_ =
            service_->drainAndStop(config_.drain_deadline_seconds);
        service_drained_.store(true, std::memory_order_release);
        wake_.notify();
    });
    for (auto &[id, cp] : conns_) {
        Connection &c = *cp;
        if (c.mode == Connection::Mode::Compile) {
            // Anything already parsed gets its record; the unread
            // remainder of the body is abandoned (the early close
            // tells the client its tail was not admitted).
            if (!c.request_done) {
                c.request_done = true;
                maybeFinish(c);
            }
        } else if (c.mode == Connection::Mode::Request &&
                   !c.response_started) {
            queueSimpleResponse(c, 503, reasonPhrase(503),
                                "server is draining");
        }
    }
}

void
CompileServer::acceptNew(Clock::time_point now)
{
    for (;;) {
        const int raw = ::accept(listener_.get(), nullptr, nullptr);
        if (raw < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN & friends: nothing more to accept
        }
        Fd fd(raw);
        if (!setNonBlocking(raw))
            continue; // drop: cannot safely serve a blocking fd
        ++stats_.connections_accepted;

        auto c = std::make_unique<Connection>();
        c->id = next_conn_id_++;
        c->fd = std::move(fd);
        c->parser = HttpRequestParser(config_.http_limits);
        c->last_read = now;
        c->last_write_progress = now;

        if (conns_.size() >= config_.max_connections) {
            // Load shedding with the protocol's own vocabulary: the
            // client sees the same `overloaded` terminal record the
            // service emits past its admission high-water mark.
            ++stats_.connections_rejected_overloaded;
            json::Object o;
            o["type"] = "error";
            o["status"] =
                service::jobStatusName(service::JobStatus::Overloaded);
            o["error"] = "server at connection capacity";
            c->outbuf = httpSimpleResponse(503, reasonPhrase(503),
                                           "application/x-ndjson",
                                           service::toJsonl(o));
            c->mode = Connection::Mode::Simple;
            c->response_started = true;
            c->request_done = true;
            c->close_after_flush = true;
        }
        conns_.emplace(c->id, std::move(c));
    }
}

bool
CompileServer::handleReadable(std::uint64_t conn_id,
                              Clock::time_point now)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return false;
    Connection &c = *it->second;

    char buf[65536];
    for (;;) {
        const ssize_t r = ::recv(c.fd.get(), buf, sizeof(buf), 0);
        if (r > 0) {
            c.last_read = now;
            // Simple/lingering connections discard further input (the
            // parser ignores surplus after Complete/Error anyway; this
            // also drains the pipe so closing cannot RST the response
            // off the wire).
            if (c.mode != Connection::Mode::Simple && !c.lingering) {
                c.parser.feed(buf, static_cast<std::size_t>(r));
                afterFeed(c);
                if (conns_.find(conn_id) == conns_.end())
                    return false;
            }
            continue;
        }
        if (r == 0) {
            c.peer_closed_read = true;
            if (c.lingering || c.mode == Connection::Mode::Simple)
                return true; // response still flushing
            const bool complete =
                c.parser.state() == HttpRequestParser::State::Complete;
            if (!complete && !c.request_done) {
                // EOF mid-request: nothing sensible to answer.
                closeConnection(conn_id);
                return false;
            }
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        closeConnection(conn_id); // ECONNRESET etc.
        return false;
    }
}

void
CompileServer::afterFeed(Connection &c)
{
    if (c.parser.state() == HttpRequestParser::State::Error &&
        c.mode == Connection::Mode::Request) {
        ++stats_.bad_requests;
        queueSimpleResponse(c, c.parser.errorStatus(),
                            reasonPhrase(c.parser.errorStatus()),
                            c.parser.errorReason());
        return;
    }
    if (c.mode == Connection::Mode::Request && c.parser.headersDone())
        dispatchRequest(c);
    if (c.mode == Connection::Mode::Compile)
        drainBodyLines(c);
}

void
CompileServer::dispatchRequest(Connection &c)
{
    const std::string &method = c.parser.method();
    const std::string &target = c.parser.target();

    if (target == "/healthz") {
        if (method != "GET") {
            ++stats_.bad_requests;
            queueSimpleResponse(c, 405, reasonPhrase(405),
                                "use GET for /healthz");
            return;
        }
        ++stats_.requests_healthz;
        c.outbuf += httpSimpleResponse(200, "OK", "application/json",
                                       healthzBody());
        c.mode = Connection::Mode::Simple;
        c.response_started = true;
        c.request_done = true;
        c.close_after_flush = true;
        return;
    }

    if (target != "/compile") {
        ++stats_.bad_requests;
        queueSimpleResponse(c, 404, reasonPhrase(404),
                            "unknown endpoint " + target);
        return;
    }
    if (method != "POST") {
        ++stats_.bad_requests;
        queueSimpleResponse(c, 405, reasonPhrase(405),
                            "use POST for /compile");
        return;
    }
    if (draining_) {
        queueSimpleResponse(c, 503, reasonPhrase(503),
                            "server is draining");
        return;
    }
    const std::optional<std::size_t> lane =
        laneFromName(c.parser.header("x-zac-lane"));
    if (!lane) {
        ++stats_.bad_requests;
        queueSimpleResponse(c, 400, reasonPhrase(400),
                            "unknown X-Zac-Lane value '" +
                                c.parser.header("x-zac-lane") + "'");
        return;
    }
    ++stats_.requests_compile;
    c.default_lane = *lane;
    c.mode = Connection::Mode::Compile;
    c.response_started = true;
    c.outbuf += httpResponseHead(
        200, "OK",
        {{"Content-Type", "application/x-ndjson"},
         {"Connection", "close"}});
}

void
CompileServer::drainBodyLines(Connection &c)
{
    std::string line;
    while (c.parser.nextBodyLine(line)) {
        ++c.body_lines;
        if (isBlankLine(line))
            continue;
        handleSubmitLine(c, line);
    }
    if (c.parser.state() == HttpRequestParser::State::Error) {
        // Only nextBodyLine() can error here (a single line past
        // max_body_line); the rest of the body is abandoned.
        ++stats_.bad_requests;
        ++c.body_lines;
        appendLineError(c, service::JobStatus::Failed,
                        c.parser.errorReason());
        c.request_done = true;
    } else if (c.parser.state() ==
               HttpRequestParser::State::Complete) {
        c.request_done = true;
    }
    if (c.request_done)
        maybeFinish(c);
}

void
CompileServer::handleSubmitLine(Connection &c, const std::string &line)
{
    service::CompileService::Submission sub;
    try {
        const json::Value v = json::parse(line);
        sub = service::submissionFromJson(v, target_names_);
        sub.lane = c.default_lane;
        if (v.contains("lane")) {
            const std::optional<std::size_t> l =
                laneFromName(v.at("lane").asString());
            if (!l)
                fatal("unknown lane '" + v.at("lane").asString() +
                      "'");
            sub.lane = *l;
        }
    } catch (const FatalError &e) {
        ++stats_.lines_rejected;
        appendLineError(c, service::JobStatus::Failed, e.what());
        return;
    }
    if (draining_) {
        // The service is draining: nothing more is submitted.
        ++stats_.lines_rejected;
        appendLineError(c, service::JobStatus::Overloaded,
                        "server is draining");
        return;
    }

    sub.client = c.id;
    ++c.pending;
    ++stats_.lines_admitted;
    parsed_.push_back(std::move(sub));
}

void
CompileServer::queueSimpleResponse(Connection &c, int status,
                                   const std::string &reason,
                                   const std::string &message)
{
    if (c.response_started) {
        // Too late for an HTTP status line; drop the connection.
        closeConnection(c.id);
        return;
    }
    json::Object o;
    o["type"] = "error";
    o["status"] = service::jobStatusName(
        status == 503 ? service::JobStatus::Overloaded
                      : service::JobStatus::Failed);
    o["http_status"] = status;
    o["error"] = message;
    c.outbuf += httpSimpleResponse(status, reason,
                                   "application/x-ndjson",
                                   service::toJsonl(o));
    c.mode = Connection::Mode::Simple;
    c.response_started = true;
    c.request_done = true;
    c.close_after_flush = true;
}

void
CompileServer::appendLineError(Connection &c,
                               service::JobStatus status,
                               const std::string &message)
{
    // Inline synthetic record: a body line that never became a job
    // still gets exactly one response record.
    json::Object o;
    o["type"] = "error";
    o["status"] = service::jobStatusName(status);
    o["line"] = static_cast<std::int64_t>(c.body_lines);
    o["error"] = message;
    c.outbuf += service::toJsonl(o);
}

std::string
CompileServer::healthzBody()
{
    const service::CompileService::ServiceStats s =
        service_->serviceStats();
    json::Object o;
    o["status"] = draining_ || s.draining ? "draining" : "ok";
    o["uptime_seconds"] = s.uptime_seconds;
    o["workers"] = s.workers;
    o["queue_depth"] = static_cast<std::int64_t>(s.queue_depth);
    o["pending_jobs"] = static_cast<std::int64_t>(s.pending);
    const std::vector<int> &weights = config_.service.lane_weights;
    o["lanes"] = json::Object{
        {"interactive_depth",
         static_cast<std::int64_t>(s.lane_depths[kLaneInteractive])},
        {"batch_depth",
         static_cast<std::int64_t>(s.lane_depths[kLaneBatch])},
        {"interactive_weight", weights[kLaneInteractive]},
        {"batch_weight", weights[kLaneBatch]},
    };
    const service::CompileService::Stats &j = s.counters;
    o["jobs"] = json::Object{
        {"submitted", static_cast<std::int64_t>(j.submitted)},
        {"delivered", static_cast<std::int64_t>(j.delivered)},
        {"overloaded", static_cast<std::int64_t>(j.overloaded)},
        {"transient_failures",
         static_cast<std::int64_t>(j.transient_failures)},
        {"retries", static_cast<std::int64_t>(j.retries)},
        {"retries_exhausted",
         static_cast<std::int64_t>(j.retries_exhausted)},
        {"coalesced_served",
         static_cast<std::int64_t>(j.coalesced_served)},
        {"coalesced_requeued",
         static_cast<std::int64_t>(j.coalesced_requeued)},
    };
    o["cache"] = json::Object{
        {"hits", static_cast<std::int64_t>(s.cache.hits)},
        {"misses", static_cast<std::int64_t>(s.cache.misses)},
        {"entries", static_cast<std::int64_t>(s.cache.entries)},
        {"insertions", static_cast<std::int64_t>(s.cache.insertions)},
        {"evictions", static_cast<std::int64_t>(s.cache.evictions)},
        {"snapshot_records_loaded",
         static_cast<std::int64_t>(j.snapshot_records_loaded)},
        {"snapshot_records_written",
         static_cast<std::int64_t>(j.snapshot_records_written)},
    };
    o["warm_contexts"] = json::Object{
        {"hits", static_cast<std::int64_t>(s.warm.hits)},
        {"misses", static_cast<std::int64_t>(s.warm.misses)},
        {"evictions", static_cast<std::int64_t>(s.warm.evictions)},
        {"entries", static_cast<std::int64_t>(s.warm.entries)},
        {"build_seconds", s.warm.build_seconds},
    };
    o["connections"] = json::Object{
        {"active", static_cast<std::int64_t>(conns_.size())},
        {"accepted",
         static_cast<std::int64_t>(stats_.connections_accepted)},
        {"rejected_overloaded", static_cast<std::int64_t>(
                                    stats_.connections_rejected_overloaded)},
        {"timed_out",
         static_cast<std::int64_t>(stats_.connections_timed_out)},
    };
    o["requests"] = json::Object{
        {"compile", static_cast<std::int64_t>(stats_.requests_compile)},
        {"healthz", static_cast<std::int64_t>(stats_.requests_healthz)},
        {"bad", static_cast<std::int64_t>(stats_.bad_requests)},
        {"lines_admitted",
         static_cast<std::int64_t>(stats_.lines_admitted)},
        {"lines_rejected",
         static_cast<std::int64_t>(stats_.lines_rejected)},
        {"records_streamed",
         static_cast<std::int64_t>(stats_.records_streamed)},
    };
    return json::Value(o).dump(2) + "\n";
}

void
CompileServer::maybeFinish(Connection &c)
{
    if (c.mode == Connection::Mode::Compile && c.request_done &&
        c.pending == 0)
        c.close_after_flush = true;
}

bool
CompileServer::handleWritable(std::uint64_t conn_id,
                              Clock::time_point now)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return false;
    Connection &c = *it->second;

    while (c.outoff < c.outbuf.size()) {
        const ssize_t w =
            ::send(c.fd.get(), c.outbuf.data() + c.outoff,
                   c.outbuf.size() - c.outoff, MSG_NOSIGNAL);
        if (w > 0) {
            c.outoff += static_cast<std::size_t>(w);
            c.last_write_progress = now;
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (w < 0 && errno == EINTR)
            continue;
        closeConnection(conn_id); // EPIPE/ECONNRESET
        return false;
    }

    if (c.outoff == c.outbuf.size()) {
        c.outbuf.clear();
        c.outoff = 0;
        if (c.close_after_flush) {
            // If the client may still be sending (we errored before
            // reading the full request), half-close and linger so the
            // response is not torn off the wire by an RST.
            const bool unread_possible =
                !c.peer_closed_read &&
                c.parser.state() != HttpRequestParser::State::Complete;
            if (unread_possible && !c.lingering) {
                ::shutdown(c.fd.get(), SHUT_WR);
                c.lingering = true;
                c.last_read = now; // restart the linger clock
            } else if (!unread_possible) {
                closeConnection(conn_id);
                return false;
            }
        }
    } else if (c.outoff > (1u << 16)) {
        c.outbuf.erase(0, c.outoff);
        c.outoff = 0;
    }
    return true;
}

void
CompileServer::closeConnection(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    if (it->second->pending > 0) {
        // Lines parsed in this loop pass are dropped before they are
        // submitted; the rest are cancelled and their records, one per
        // job as always, find no connection.
        std::erase_if(parsed_, [&](const auto &sub) {
            return sub.client == conn_id;
        });
        service_->cancelClient(conn_id);
    }
    conns_.erase(it);
}

void
CompileServer::reapTimeouts(Clock::time_point now)
{
    std::vector<std::uint64_t> stale_read, stale_write;
    for (const auto &[id, cp] : conns_) {
        const Connection &c = *cp;
        if (config_.read_timeout_seconds > 0) {
            const bool awaiting_input =
                c.lingering ||
                (!c.request_done &&
                 c.parser.state() !=
                     HttpRequestParser::State::Complete);
            if (awaiting_input &&
                secondsBetween(c.last_read, now) >
                    config_.read_timeout_seconds)
                stale_read.push_back(id);
        }
        if (config_.write_timeout_seconds > 0 &&
            c.outoff < c.outbuf.size() &&
            secondsBetween(c.last_write_progress, now) >
                config_.write_timeout_seconds)
            stale_write.push_back(id);
    }
    for (std::uint64_t id : stale_read) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Connection &c = *it->second;
        ++stats_.connections_timed_out;
        if (!c.response_started) {
            queueSimpleResponse(c, 408, reasonPhrase(408),
                                "request read timed out");
        } else {
            closeConnection(id);
        }
    }
    for (std::uint64_t id : stale_write) {
        if (conns_.count(id) == 0)
            continue;
        ++stats_.connections_timed_out;
        closeConnection(id);
    }
}

} // namespace zac::net
