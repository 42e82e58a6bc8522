/**
 * @file
 * zac_client: a small CLI client for the zac_serve daemon.
 *
 * Two modes:
 *  - submit (default): send JSONL submit records over POST /compile
 *    and print the streamed terminal records. Input is either raw
 *    JSONL (--in file, "-" = stdin) or a zac_batch manifest
 *    (--manifest f: the "jobs" array is expanded into submit lines,
 *    "repeat" included, and sent verbatim — the daemon resolves
 *    circuits and targets exactly like the manifest loader, so
 *    output records match zac_batch on the same manifest);
 *  - --healthz: GET /healthz and print the JSON body.
 *
 *   usage: zac_client [options]
 *     --host H       server host (default 127.0.0.1)
 *     --port P       server port (required)
 *     --healthz      health check instead of submitting
 *     --manifest f   expand a zac_batch manifest into submit lines
 *     --in f         read JSONL submit lines from f ("-" = stdin)
 *     --lane L       X-Zac-Lane header: interactive | batch
 *     --out f        write the response body to f (default stdout)
 *     --timeout S    socket timeout in seconds (default 300)
 *
 * Exit: 0 on HTTP 200 with a cleanly closed stream, 1 on any
 * HTTP/transport error, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: zac_client --port P [--host H] [--healthz]\n"
        "                  [--manifest f | --in f] [--lane L]\n"
        "                  [--out f] [--timeout S]\n");
}

/** Expand a manifest's "jobs" array into JSONL submit lines. */
std::string
manifestToLines(const std::string &path)
{
    const zac::json::Value doc = zac::json::parseFile(path);
    if (!doc.contains("jobs"))
        zac::fatal("zac_client: manifest has no 'jobs' array");
    std::string out;
    for (const zac::json::Value &jv : doc.at("jobs").asArray()) {
        zac::json::Object line = jv.asObject();
        int repeat = 1;
        if (line.count("repeat")) {
            repeat = static_cast<int>(line.at("repeat").asInt());
            line.erase("repeat");
        }
        const std::string text = zac::json::Value(line).dump() + "\n";
        for (int r = 0; r < repeat; ++r)
            out += text;
    }
    return out;
}

std::string
readLines(const std::string &path)
{
    if (path == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        return ss.str();
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        zac::fatal("zac_client: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Split an HTTP response into (status code, body). */
int
splitResponse(const std::string &raw, std::string &body)
{
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos || raw.size() < 12 ||
        raw.compare(0, 5, "HTTP/") != 0)
        return -1;
    const int status = std::atoi(raw.c_str() + 9);
    body = raw.substr(head_end + 4);
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    int port = 0;
    bool healthz = false;
    std::string manifest_path, in_path, lane, out_path;
    double timeout = 300.0;
    const zac::cli::FlagParser flags{"zac_client", usage};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "zac_client: %s needs a value\n",
                             flag);
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--host")
            host = next("--host");
        else if (arg == "--port")
            port = static_cast<int>(
                flags.intFlag("--port", next("--port"), 1, 65535));
        else if (arg == "--healthz")
            healthz = true;
        else if (arg == "--manifest")
            manifest_path = next("--manifest");
        else if (arg == "--in")
            in_path = next("--in");
        else if (arg == "--lane")
            lane = next("--lane");
        else if (arg == "--out")
            out_path = next("--out");
        else if (arg == "--timeout")
            timeout = flags.realFlag("--timeout", next("--timeout"));
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "zac_client: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "zac_client: --port is required\n");
        usage();
        return 2;
    }
    if (!healthz && manifest_path.empty() && in_path.empty()) {
        std::fprintf(stderr,
                     "zac_client: need --manifest, --in, or "
                     "--healthz\n");
        usage();
        return 2;
    }

    try {
        std::string request;
        if (healthz) {
            request = "GET /healthz HTTP/1.1\r\n"
                      "Host: " + host + "\r\n"
                      "Connection: close\r\n\r\n";
        } else {
            const std::string body =
                !manifest_path.empty() ? manifestToLines(manifest_path)
                                       : readLines(in_path);
            request = "POST /compile HTTP/1.1\r\n"
                      "Host: " + host + "\r\n"
                      "Content-Type: application/x-ndjson\r\n"
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\n";
            if (!lane.empty())
                request += "X-Zac-Lane: " + lane + "\r\n";
            request += "Connection: close\r\n\r\n" + body;
        }

        zac::net::Fd fd = zac::net::tcpConnect(
            host, static_cast<std::uint16_t>(port), timeout);
        if (!zac::net::sendAll(fd.get(), request.data(),
                               request.size()))
            zac::fatal("zac_client: send failed: " +
                       std::string(std::strerror(errno)));
        std::string raw;
        if (!zac::net::recvUntilClose(fd.get(), raw))
            zac::fatal("zac_client: receive failed: " +
                       std::string(std::strerror(errno)));

        std::string body;
        const int status = splitResponse(raw, body);
        if (status < 0)
            zac::fatal("zac_client: malformed HTTP response");

        if (out_path.empty()) {
            std::fwrite(body.data(), 1, body.size(), stdout);
        } else {
            std::ofstream out(out_path, std::ios::binary);
            if (!out)
                zac::fatal("zac_client: cannot write " + out_path);
            out << body;
        }
        if (status != 200) {
            std::fprintf(stderr, "zac_client: HTTP %d\n", status);
            return 1;
        }
        return 0;
    } catch (const zac::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // Backstop: never let a raw exception reach std::terminate.
        std::fprintf(stderr, "zac_client: unexpected error: %s\n",
                     e.what());
        return 1;
    }
}
