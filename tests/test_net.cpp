/**
 * @file
 * Tests for the network layer behind zac_serve: the incremental HTTP
 * request parser (fragmentation-invariance, limit enforcement, clean
 * error statuses) and the CompileServer daemon end to end over real
 * localhost sockets — served records identical to offline compiles,
 * concurrent clients, connection caps, timeout reaping,
 * interactive-lane protection under a batch flood, disconnects, and
 * graceful drain with snapshot persistence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "circuit/generators.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"
#include "zair/serialize.hpp"

namespace zac
{
namespace
{

using net::CompileServer;
using net::HttpRequestParser;
using net::ServerConfig;
using service::CompileTarget;

using State = HttpRequestParser::State;

// ------------------------------------------------------ http parser

std::vector<std::string>
allBodyLines(HttpRequestParser &p)
{
    std::vector<std::string> lines;
    std::string line;
    while (p.nextBodyLine(line))
        lines.push_back(line);
    return lines;
}

TEST(HttpParser, ParsesSimplePostInOneFeed)
{
    const std::string req = "POST /compile HTTP/1.1\r\n"
                            "Host: localhost\r\n"
                            "Content-Type: application/x-ndjson\r\n"
                            "Content-Length: 12\r\n"
                            "\r\n"
                            "{\"a\":1}\nxyz\n";
    HttpRequestParser p;
    p.feed(req.data(), req.size());
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.method(), "POST");
    EXPECT_EQ(p.target(), "/compile");
    EXPECT_EQ(p.header("host"), "localhost");
    EXPECT_EQ(p.header("content-type"), "application/x-ndjson");
    EXPECT_EQ(p.contentLength(), 12u);
    const std::vector<std::string> lines = allBodyLines(p);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"a\":1}");
    EXPECT_EQ(lines[1], "xyz");
}

TEST(HttpParser, FragmentationInvariantByteAtATime)
{
    const std::string req = "GET /healthz HTTP/1.1\r\n"
                            "X-Zac-Lane:  batch \r\n"
                            "\r\n";
    HttpRequestParser whole;
    whole.feed(req.data(), req.size());

    HttpRequestParser bytewise;
    for (char c : req)
        bytewise.feed(&c, 1);

    for (const HttpRequestParser *p : {&whole, &bytewise}) {
        EXPECT_EQ(p->state(), State::Complete);
        EXPECT_EQ(p->method(), "GET");
        EXPECT_EQ(p->target(), "/healthz");
        EXPECT_EQ(p->header("x-zac-lane"), "batch");
    }
}

TEST(HttpParser, BodyLinesSurviveArbitraryFragmentation)
{
    const std::string body = "first line\r\nsecond\nthird no newline";
    const std::string req = "POST /compile HTTP/1.1\r\n"
                            "Content-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" +
                            body;
    for (std::size_t chunk :
         {std::size_t(1), std::size_t(3), std::size_t(7),
          req.size()}) {
        HttpRequestParser p;
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < req.size(); i += chunk) {
            p.feed(req.data() + i, std::min(chunk, req.size() - i));
            for (const std::string &l : allBodyLines(p))
                lines.push_back(l);
        }
        ASSERT_EQ(p.state(), State::Complete) << "chunk " << chunk;
        ASSERT_EQ(lines.size(), 3u) << "chunk " << chunk;
        EXPECT_EQ(lines[0], "first line");
        EXPECT_EQ(lines[1], "second");
        EXPECT_EQ(lines[2], "third no newline");
    }
}

TEST(HttpParser, OversizedRequestLineIs414EvenWithoutNewline)
{
    HttpRequestParser::Limits limits;
    limits.max_request_line = 64;
    HttpRequestParser p(limits);
    const std::string flood(1000, 'A'); // never a newline
    p.feed(flood.data(), flood.size());
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 414);
}

TEST(HttpParser, OversizedHeaderSectionIs431)
{
    HttpRequestParser::Limits limits;
    limits.max_header_bytes = 128;
    HttpRequestParser p(limits);
    std::string req = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 20; ++i)
        req += "X-Pad-" + std::to_string(i) + ": " +
               std::string(32, 'x') + "\r\n";
    p.feed(req.data(), req.size());
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 431);
}

TEST(HttpParser, MalformedInputsGetSpecificStatuses)
{
    struct Case
    {
        const char *wire;
        int status;
    };
    const Case cases[] = {
        {"GARBAGE\r\n\r\n", 400},                      // no URI/version
        {"GET nohash HTTP/1.1\r\n\r\n", 400},          // bad target
        {"GET / HTTP/2.0\r\n\r\n", 505},               // bad version
        {"get / HTTP/1.1\r\n\r\n", 400},               // bad method
        {"POST /compile HTTP/1.1\r\n\r\n", 411},       // no length
        {"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
         "Content-Length: 3\r\n\r\n",
         501},                                          // chunked
        {"POST /c HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
        {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
    };
    for (const Case &c : cases) {
        HttpRequestParser p;
        p.feed(c.wire, std::strlen(c.wire));
        ASSERT_EQ(p.state(), State::Error) << c.wire;
        EXPECT_EQ(p.errorStatus(), c.status) << c.wire;
        EXPECT_FALSE(p.errorReason().empty());
    }
}

TEST(HttpParser, DeclaredBodyOverLimitIs413)
{
    HttpRequestParser::Limits limits;
    limits.max_body_bytes = 100;
    HttpRequestParser p(limits);
    const std::string req =
        "POST /c HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
    p.feed(req.data(), req.size());
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 413);
}

TEST(HttpParser, SingleBodyLineOverLimitIs413)
{
    HttpRequestParser::Limits limits;
    limits.max_body_line = 16;
    HttpRequestParser p(limits);
    const std::string body(64, 'z'); // no newline anywhere
    const std::string req = "POST /c HTTP/1.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" +
                            body.substr(0, 32);
    p.feed(req.data(), req.size());
    ASSERT_EQ(p.state(), State::Body);
    std::string line;
    EXPECT_FALSE(p.nextBodyLine(line));
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 413);
}

TEST(HttpParser, LeadingBlankLinesTolerated)
{
    const std::string req = "\r\n\r\nGET / HTTP/1.1\r\n\r\n";
    HttpRequestParser p;
    p.feed(req.data(), req.size());
    EXPECT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.method(), "GET");
}

// ----------------------------------------------------------- server

/** A CompileServer on an ephemeral port with run() on a thread. */
struct TestServer
{
    std::unique_ptr<CompileServer> server;
    std::thread thread;
    std::uint16_t port = 0;
    bool clean = false;
    bool stopped = false;

    explicit TestServer(ServerConfig cfg)
    {
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        server = std::make_unique<CompileServer>(
            std::vector<CompileTarget>{CompileTarget{
                "ref", presets::referenceZoned(), ZacOptions::full()}},
            cfg);
        port = server->listen();
        thread = std::thread([this] { clean = server->run(); });
    }

    void
    stop()
    {
        if (stopped)
            return;
        stopped = true;
        server->requestDrain();
        thread.join();
    }

    ~TestServer() { stop(); }
};

/** Send @p request, half-close, read the whole response. */
std::string
roundTrip(std::uint16_t port, const std::string &request,
          double timeout = 60.0)
{
    net::Fd fd = net::tcpConnect("127.0.0.1", port, timeout);
    EXPECT_TRUE(net::sendAll(fd.get(), request.data(), request.size()));
    ::shutdown(fd.get(), SHUT_WR);
    std::string raw;
    EXPECT_TRUE(net::recvUntilClose(fd.get(), raw));
    return raw;
}

int
statusOf(const std::string &raw)
{
    if (raw.compare(0, 5, "HTTP/") != 0 || raw.size() < 12)
        return -1;
    return std::atoi(raw.c_str() + 9);
}

std::string
bodyOf(const std::string &raw)
{
    const std::size_t p = raw.find("\r\n\r\n");
    return p == std::string::npos ? std::string() : raw.substr(p + 4);
}

std::string
postRequest(const std::string &body, const std::string &lane = "")
{
    std::string req = "POST /compile HTTP/1.1\r\n"
                      "Host: t\r\n"
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\n";
    if (!lane.empty())
        req += "X-Zac-Lane: " + lane + "\r\n";
    req += "Connection: close\r\n\r\n" + body;
    return req;
}

std::vector<json::Value>
parseRecords(const std::string &body)
{
    std::vector<json::Value> records;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_FALSE(line.empty());
        records.push_back(json::parse(line));
    }
    return records;
}

/** Canonical payload: the record minus wall-clock and scheduling
 *  artifacts (job ids, cache hits and timings legitimately differ
 *  between runs; the compile payload must not). */
std::string
canonicalPayload(const json::Value &record)
{
    json::Object o = record.asObject();
    for (const char *k :
         {"job_id", "attempts", "cache_hit", "queue_seconds",
          "service_seconds", "compile_seconds", "phase_seconds"})
        o.erase(k);
    return json::Value(o).dump();
}

TEST(NetServer, ServedRecordsMatchOfflineCompile)
{
    ServerConfig cfg;
    cfg.service.num_workers = 2;
    TestServer ts(cfg);

    const std::string body = "{\"circuit\": \"ghz_n23\"}\n"
                             "{\"circuit\": \"ghz_n23\"}\n";
    const std::string raw = roundTrip(ts.port, postRequest(body));
    ASSERT_EQ(statusOf(raw), 200);
    std::vector<json::Value> records = parseRecords(bodyOf(raw));
    ASSERT_EQ(records.size(), 2u);

    // Reference compile, same target configuration.
    const ZacCompiler compiler(presets::referenceZoned(),
                               ZacOptions::full());
    const ZacResult expected =
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"));
    std::ostringstream zair;
    streamZairProgram(zair, expected.program, 0);

    bool saw_cache_hit = false;
    for (const json::Value &r : records) {
        EXPECT_EQ(r.at("status").asString(), "done");
        EXPECT_EQ(r.at("circuit").asString(), "ghz_n23");
        EXPECT_EQ(r.at("target").asString(), "ref");
        EXPECT_EQ(r.at("fidelity").asDouble(),
                  expected.fidelity.total);
        EXPECT_EQ(r.at("zair").dump(), zair.str());
        saw_cache_hit = saw_cache_hit || r.at("cache_hit").asBool();
    }
    // Identical submissions: the second is served by cache or
    // coalescing, bit-identical either way (payloads above).
    EXPECT_TRUE(saw_cache_hit);
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, FragmentedRequestServesNormally)
{
    ServerConfig cfg;
    cfg.service.num_workers = 1;
    cfg.include_zair = false;
    TestServer ts(cfg);

    const std::string req =
        postRequest("{\"circuit\": \"ghz_n23\"}\n");
    net::Fd fd = net::tcpConnect("127.0.0.1", ts.port, 30.0);
    for (std::size_t i = 0; i < req.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, req.size() - i);
        ASSERT_TRUE(net::sendAll(fd.get(), req.data() + i, n));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::shutdown(fd.get(), SHUT_WR);
    std::string raw;
    ASSERT_TRUE(net::recvUntilClose(fd.get(), raw));
    ASSERT_EQ(statusOf(raw), 200);
    const std::vector<json::Value> records =
        parseRecords(bodyOf(raw));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].at("status").asString(), "done");
}

TEST(NetServer, MalformedAndOversizedRequestsGetCleanErrors)
{
    ServerConfig cfg;
    cfg.http_limits.max_request_line = 256;
    TestServer ts(cfg);

    {
        const std::string raw =
            roundTrip(ts.port, "THIS IS NOT HTTP AT ALL\r\n\r\n");
        EXPECT_EQ(statusOf(raw), 400);
        const std::vector<json::Value> recs =
            parseRecords(bodyOf(raw));
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].at("type").asString(), "error");
        EXPECT_EQ(recs[0].at("status").asString(), "failed");
    }
    {
        // A request line far past the limit, no newline in sight.
        const std::string raw = roundTrip(
            ts.port, "GET /" + std::string(4096, 'x') + " HTTP/1.1");
        EXPECT_EQ(statusOf(raw), 414);
    }
    {
        const std::string raw =
            roundTrip(ts.port, "GET /nope HTTP/1.1\r\n\r\n");
        EXPECT_EQ(statusOf(raw), 404);
    }
    {
        const std::string raw =
            roundTrip(ts.port, "PUT /compile HTTP/1.1\r\n"
                               "Content-Length: 0\r\n\r\n");
        EXPECT_EQ(statusOf(raw), 405);
    }
    {
        const std::string raw = roundTrip(
            ts.port, postRequest("{\"circuit\": \"ghz_n23\"}\n",
                                 "warp-speed"));
        EXPECT_EQ(statusOf(raw), 400); // unknown lane name
    }
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, InvalidSubmitLinesGetInlineErrorRecords)
{
    ServerConfig cfg;
    cfg.include_zair = false;
    TestServer ts(cfg);

    // Lines 4-6 break the manifest's job rules (one parser reads
    // both): numbers outside their range are rejected, not compiled.
    // Line 7's seed is past the double range; line 8's underflows to
    // seed 0 and compiles.
    const std::string body =
        "this is not json\n"
        "{\"circuit\": \"no_such_benchmark_xyz\"}\n"
        "{\"circuit\": \"ghz_n23\", \"target\": \"nope\"}\n"
        "{\"circuit\": \"ghz_n23\", \"timeout_seconds\": -5}\n"
        "{\"circuit\": \"ghz_n23\", \"target\": 4294967296}\n"
        "{\"circuit\": \"ghz_n23\", \"seed\": 1e30}\n"
        "{\"circuit\": \"ghz_n23\", \"seed\": 1e999}\n"
        "{\"circuit\": \"ghz_n23\", \"seed\": 1e-400}\n"
        "{\"circuit\": \"ghz_n23\"}\n";
    const std::string raw = roundTrip(ts.port, postRequest(body));
    ASSERT_EQ(statusOf(raw), 200);
    const std::vector<json::Value> records =
        parseRecords(bodyOf(raw));
    ASSERT_EQ(records.size(), 9u); // exactly one record per line

    int errors = 0, done = 0;
    std::map<std::int64_t, std::string> error_lines;
    for (const json::Value &r : records) {
        if (r.at("status").asString() == "done") {
            ++done;
        } else {
            ++errors;
            EXPECT_EQ(r.at("type").asString(), "error");
            error_lines[r.at("line").asInt()] = r.at("error").asString();
        }
    }
    EXPECT_EQ(done, 2);
    EXPECT_EQ(errors, 7);
    ASSERT_EQ(error_lines.size(), 7u);
    EXPECT_EQ(error_lines.begin()->first, 1);
    EXPECT_EQ(error_lines.rbegin()->first, 7);
    EXPECT_NE(error_lines[4].find("timeout_seconds"), std::string::npos)
        << error_lines[4];
    EXPECT_NE(error_lines[5].find("target"), std::string::npos)
        << error_lines[5];
    EXPECT_NE(error_lines[6].find("range"), std::string::npos)
        << error_lines[6];
    EXPECT_NE(error_lines[7].find("out of range"), std::string::npos)
        << error_lines[7];

    // The daemon is still serving.
    const std::string again = roundTrip(
        ts.port, postRequest("{\"circuit\": \"ghz_n23\"}\n"));
    ASSERT_EQ(statusOf(again), 200);
    const std::vector<json::Value> last = parseRecords(bodyOf(again));
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].at("status").asString(), "done");
}

TEST(NetServer, UnlabelledQasmLineIsLabelledByItsFileStem)
{
    // As in a manifest (one parser reads both), not by its full path.
    const std::string path = "test_net_bell.qasm";
    {
        std::ofstream f(path);
        f << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
             "h q[0];\ncx q[0],q[1];\n";
    }
    ServerConfig cfg;
    cfg.include_zair = false;
    TestServer ts(cfg);
    const std::string raw = roundTrip(
        ts.port, postRequest("{\"circuit\": \"" + path + "\"}\n"));
    std::remove(path.c_str());
    ASSERT_EQ(statusOf(raw), 200);
    const std::vector<json::Value> records =
        parseRecords(bodyOf(raw));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].at("status").asString(), "done");
    EXPECT_EQ(records[0].at("circuit").asString(), "test_net_bell");
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, HealthzReportsServiceCounters)
{
    ServerConfig cfg;
    cfg.include_zair = false;
    TestServer ts(cfg);

    // Prime one compile so counters move.
    (void)roundTrip(ts.port,
                    postRequest("{\"circuit\": \"ghz_n23\"}\n"));

    // The response streams before the service bumps `delivered`;
    // poll the endpoint briefly instead of racing that counter.
    json::Value h;
    for (int i = 0; i < 100; ++i) {
        const std::string raw = roundTrip(
            ts.port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        ASSERT_EQ(statusOf(raw), 200);
        h = json::parse(bodyOf(raw));
        if (h.at("jobs").at("delivered").asInt() == 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(h.at("status").asString(), "ok");
    EXPECT_GT(h.at("uptime_seconds").asDouble(), 0.0);
    EXPECT_GE(h.at("workers").asInt(), 1);
    EXPECT_GE(h.at("queue_depth").asInt(), 0);
    EXPECT_EQ(h.at("jobs").at("submitted").asInt(), 1);
    EXPECT_EQ(h.at("jobs").at("delivered").asInt(), 1);
    EXPECT_GE(h.at("cache").at("misses").asInt(), 1);
    EXPECT_EQ(h.at("cache").at("hits").asInt(), 0);
    EXPECT_EQ(h.at("requests").at("compile").asInt(), 1);
    EXPECT_EQ(h.at("requests").at("records_streamed").asInt(), 1);
    EXPECT_EQ(h.at("lanes").at("interactive_weight").asInt(), 4);
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, ConcurrentClientsGetBitIdenticalPayloads)
{
    ServerConfig cfg;
    cfg.service.num_workers = 4;
    TestServer ts(cfg);

    constexpr int kClients = 8;
    std::vector<std::string> payloads(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            const std::string raw = roundTrip(
                ts.port,
                postRequest("{\"circuit\": \"ghz_n23\"}\n"));
            ASSERT_EQ(statusOf(raw), 200);
            const std::vector<json::Value> records =
                parseRecords(bodyOf(raw));
            ASSERT_EQ(records.size(), 1u);
            ASSERT_EQ(records[0].at("status").asString(), "done");
            payloads[i] = canonicalPayload(records[0]);
        });
    for (std::thread &t : clients)
        t.join();
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(payloads[i], payloads[0]) << "client " << i;
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, StalledRequestIsReapedWithTimeout)
{
    ServerConfig cfg;
    cfg.read_timeout_seconds = 0.3;
    TestServer ts(cfg);

    net::Fd fd = net::tcpConnect("127.0.0.1", ts.port, 30.0);
    const std::string partial = "POST /compile HTTP/1.1\r\n";
    ASSERT_TRUE(
        net::sendAll(fd.get(), partial.data(), partial.size()));
    // Never finish the request: the server must answer 408 and close
    // without us sending another byte.
    std::string raw;
    ASSERT_TRUE(net::recvUntilClose(fd.get(), raw));
    EXPECT_EQ(statusOf(raw), 408);

    const net::NetStats stats = ts.server->netStats();
    EXPECT_GE(stats.connections_timed_out, 1u);
    ts.stop();
}

TEST(NetServer, ConnectionCapAnswersOverloaded)
{
    ServerConfig cfg;
    cfg.max_connections = 1;
    cfg.read_timeout_seconds = 5.0;
    TestServer ts(cfg);

    // Hold the only slot with a deliberately unfinished request.
    net::Fd holder = net::tcpConnect("127.0.0.1", ts.port, 30.0);
    const std::string partial = "POST /compile HTTP/1.1\r\n";
    ASSERT_TRUE(
        net::sendAll(holder.get(), partial.data(), partial.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const std::string raw = roundTrip(
        ts.port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    ASSERT_EQ(statusOf(raw), 503);
    const std::vector<json::Value> recs = parseRecords(bodyOf(raw));
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].at("status").asString(), "overloaded");

    const net::NetStats stats = ts.server->netStats();
    EXPECT_GE(stats.connections_rejected_overloaded, 1u);
    holder.reset(); // free the slot so the drain is not waiting on it
    ts.stop();
}

TEST(NetServer, InteractiveLaneOutrunsBatchFlood)
{
    // One worker, no cache: almost the whole batch flood is queued
    // when the interactive job arrives, so weighted round-robin is
    // what decides its latency.
    ServerConfig cfg;
    cfg.service.num_workers = 1;
    cfg.service.cache_capacity = 0;
    cfg.include_zair = false;
    TestServer ts(cfg);

    constexpr int kBatchJobs = 32;
    std::string batch_body;
    for (int i = 0; i < kBatchJobs; ++i)
        batch_body += "{\"circuit\": \"ghz_n23\", \"seed\": " +
                      std::to_string(1000 + i) + "}\n";

    std::atomic<bool> batch_sent{false};
    std::chrono::steady_clock::time_point batch_eof, inter_eof;

    std::thread batch([&] {
        net::Fd fd = net::tcpConnect("127.0.0.1", ts.port, 120.0);
        const std::string req = postRequest(batch_body, "batch");
        ASSERT_TRUE(net::sendAll(fd.get(), req.data(), req.size()));
        ::shutdown(fd.get(), SHUT_WR);
        batch_sent.store(true);
        std::string raw;
        ASSERT_TRUE(net::recvUntilClose(fd.get(), raw));
        batch_eof = std::chrono::steady_clock::now();
        ASSERT_EQ(statusOf(raw), 200);
        EXPECT_EQ(parseRecords(bodyOf(raw)).size(),
                  static_cast<std::size_t>(kBatchJobs));
    });

    while (!batch_sent.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const std::string raw = roundTrip(
        ts.port,
        postRequest("{\"circuit\": \"ghz_n23\", \"seed\": 7}\n",
                    "interactive"));
    inter_eof = std::chrono::steady_clock::now();
    ASSERT_EQ(statusOf(raw), 200);
    const std::vector<json::Value> recs = parseRecords(bodyOf(raw));
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].at("status").asString(), "done");

    batch.join();
    // Bounded latency: the interactive job finished while the batch
    // flood was still streaming — it did not wait out the backlog.
    EXPECT_LT(inter_eof.time_since_epoch().count(),
              batch_eof.time_since_epoch().count());
    ts.stop();
}

TEST(NetServer, DisconnectCancelsTheClientsRemainingJobs)
{
    // Every compile stalls 300 ms on the one worker. Client A leaves
    // after its first record: its other five jobs must be cancelled,
    // not compiled, while client B's job still compiles.
    service::FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 300.0;
    ServerConfig cfg;
    cfg.service.num_workers = 1;
    cfg.service.faults = plan;
    cfg.include_zair = false;
    TestServer ts(cfg);

    std::string body;
    for (int i = 0; i < 6; ++i)
        body += "{\"circuit\": \"ghz_n23\", \"seed\": " +
                std::to_string(i) + "}\n";
    {
        net::Fd a = net::tcpConnect("127.0.0.1", ts.port, 30.0);
        const std::string req = postRequest(body);
        ASSERT_TRUE(net::sendAll(a.get(), req.data(), req.size()));
        std::string raw;
        char buf[4096];
        const auto first_record = [&] {
            const std::size_t head = raw.find("\r\n\r\n");
            return head != std::string::npos &&
                   raw.find('\n', head + 4) != std::string::npos;
        };
        while (!first_record()) {
            const ssize_t r = ::recv(a.get(), buf, sizeof(buf), 0);
            ASSERT_GT(r, 0);
            raw.append(buf, static_cast<std::size_t>(r));
        }
        // Reset rather than close, so the server sees the disconnect
        // at once instead of at its next write.
        const linger reset{1, 0};
        ::setsockopt(a.get(), SOL_SOCKET, SO_LINGER, &reset,
                     sizeof(reset));
    }

    const std::string raw = roundTrip(
        ts.port, postRequest("{\"circuit\": \"ghz_n23\", "
                             "\"seed\": 100}\n"));
    ASSERT_EQ(statusOf(raw), 200);
    const std::vector<json::Value> recs = parseRecords(bodyOf(raw));
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].at("status").asString(), "done");

    // B's record streams before the service counts it delivered.
    json::Value h;
    for (int i = 0; i < 200; ++i) {
        h = json::parse(bodyOf(roundTrip(
            ts.port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")));
        if (h.at("jobs").at("delivered").asInt() == 7)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(h.at("jobs").at("submitted").asInt(), 7);
    EXPECT_EQ(h.at("jobs").at("delivered").asInt(), 7);
    // Two compiles: A's first job and B's; A's other five were
    // cancelled, and none of their records was streamed.
    EXPECT_EQ(h.at("cache").at("insertions").asInt(), 2);
    EXPECT_EQ(h.at("requests").at("records_streamed").asInt(), 2);
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, DrainUnderLoadDeliversEveryAdmittedRecord)
{
    ServerConfig cfg;
    cfg.service.num_workers = 2;
    cfg.include_zair = false;
    TestServer ts(cfg);

    std::string body;
    for (int i = 0; i < 4; ++i)
        body += "{\"circuit\": \"ghz_n23\", \"seed\": " +
                std::to_string(i) + "}\n";
    std::thread client([&] {
        const std::string raw = roundTrip(ts.port, postRequest(body));
        ASSERT_EQ(statusOf(raw), 200);
        const std::vector<json::Value> recs =
            parseRecords(bodyOf(raw));
        EXPECT_EQ(recs.size(), 4u);
        for (const json::Value &r : recs) {
            const std::string status = r.at("status").asString();
            EXPECT_TRUE(status == "done" || status == "overloaded")
                << status;
        }
    });
    // Let the request land, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ts.server->requestDrain();
    client.join();
    ts.stop();
    EXPECT_TRUE(ts.clean);
}

TEST(NetServer, DrainFlushesSnapshotForWarmRestart)
{
    const std::string path = "test_net_snapshot.jsonl";
    std::remove(path.c_str());

    ServerConfig cfg;
    cfg.include_zair = false;
    cfg.service.snapshot_path = path;
    {
        TestServer ts(cfg);
        const std::string raw = roundTrip(
            ts.port, postRequest("{\"circuit\": \"ghz_n23\"}\n"));
        ASSERT_EQ(statusOf(raw), 200);
        ts.stop();
        EXPECT_TRUE(ts.clean);
    }
    {
        // A fresh daemon over the same snapshot serves from cache.
        TestServer ts(cfg);
        const std::string raw = roundTrip(
            ts.port, postRequest("{\"circuit\": \"ghz_n23\"}\n"));
        ASSERT_EQ(statusOf(raw), 200);
        const std::vector<json::Value> recs =
            parseRecords(bodyOf(raw));
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].at("status").asString(), "done");
        EXPECT_TRUE(recs[0].at("cache_hit").asBool());
        ts.stop();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace zac
