/**
 * @file
 * zac_serve: the network compile daemon.
 *
 * Serves the CompileService over a minimal HTTP/1.1 subset (see
 * src/net/server.hpp and docs/zac_serve.md):
 *
 *   POST /compile   JSONL submit records in, streamed JSONL terminal
 *                   records out (the zac_batch protocol, bytes and
 *                   all; X-Zac-Lane: interactive|batch picks the
 *                   queue lane)
 *   GET  /healthz   liveness + queue/cache/retry/uptime counters
 *
 * Compile targets come from the same JSON documents zac_batch reads:
 * the "targets" section of a manifest (any "jobs" section is
 * ignored); with no file, one default reference/full target.
 *
 *   usage: zac_serve [targets.json] [options]
 *     --host H            bind address (default 127.0.0.1)
 *     --port P            TCP port; 0 = ephemeral (default 8080)
 *     --workers N         worker threads (default: hw concurrency)
 *     --cache N           result-cache entries, 0 disables
 *     --snapshot f        persist the result cache to f (warm starts)
 *     --retries N         transient-failure retries per job
 *     --backoff-ms X      first retry backoff, doubling per attempt
 *     --admission N       reject past N undelivered jobs (0 = never)
 *     --max-connections N connection cap, over-cap answered 503
 *     --read-timeout S    per-connection request read timeout
 *     --write-timeout S   per-connection response progress timeout
 *     --drain-timeout S   SIGTERM drain deadline (0 = wait)
 *     --interactive-weight N / --batch-weight N   lane WRR weights
 *                         (default 4 and 1)
 *     --no-zair           omit ZAIR programs from result records
 *
 * SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
 * admitted work, flush the cache snapshot, flush responses, exit 0
 * (exit 1 when the drain deadline forced cancellations).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cli_flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "net/server.hpp"
#include "service/manifest.hpp"

namespace
{

zac::net::CompileServer *g_server = nullptr;

extern "C" void
handleSignal(int)
{
    if (g_server != nullptr)
        g_server->requestDrain(); // async-signal-safe
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: zac_serve [targets.json] [--host H] [--port P]\n"
        "                 [--workers N] [--cache N]\n"
        "                 [--snapshot f] [--retries N]\n"
        "                 [--backoff-ms X] [--admission N]\n"
        "                 [--max-connections N] [--read-timeout S]\n"
        "                 [--write-timeout S] [--drain-timeout S]\n"
        "                 [--interactive-weight N] [--batch-weight N]\n"
        "                 [--no-zair]\n");
}

/** Load compile targets from a manifest-style JSON document. */
std::vector<zac::service::CompileTarget>
loadTargets(const std::string &path)
{
    const zac::json::Value doc = zac::json::parseFile(path);
    std::vector<zac::service::CompileTarget> targets;
    if (doc.contains("targets")) {
        for (const zac::json::Value &tv : doc.at("targets").asArray())
            targets.push_back(zac::service::targetFromJson(tv));
        if (targets.empty())
            zac::fatal("zac_serve: 'targets' must not be empty");
    }
    return targets;
}

} // namespace

int
main(int argc, char **argv)
{
    using zac::net::CompileServer;
    using zac::net::ServerConfig;

    std::string targets_path;
    ServerConfig cfg;
    cfg.port = 8080;
    const zac::cli::FlagParser flags{"zac_serve", usage};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "zac_serve: %s needs a value\n",
                             flag);
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--host")
            cfg.host = next("--host");
        else if (arg == "--port")
            cfg.port = static_cast<std::uint16_t>(
                flags.intFlag("--port", next("--port"), 0, 65535));
        else if (arg == "--workers")
            cfg.service.num_workers = static_cast<int>(
                flags.intFlag("--workers", next("--workers"), 1,
                              4096));
        else if (arg == "--cache")
            cfg.service.cache_capacity = static_cast<std::size_t>(
                flags.intFlag("--cache", next("--cache"), 0,
                              1 << 24));
        else if (arg == "--snapshot")
            cfg.service.snapshot_path = next("--snapshot");
        else if (arg == "--retries")
            cfg.service.max_retries = static_cast<int>(
                flags.intFlag("--retries", next("--retries"), 0,
                              1000));
        else if (arg == "--backoff-ms")
            cfg.service.retry_backoff_ms =
                flags.realFlag("--backoff-ms", next("--backoff-ms"));
        else if (arg == "--admission")
            cfg.service.admission_high_water =
                static_cast<std::size_t>(flags.intFlag(
                    "--admission", next("--admission"), 0, 1 << 24));
        else if (arg == "--max-connections")
            cfg.max_connections = static_cast<std::size_t>(
                flags.intFlag("--max-connections",
                              next("--max-connections"), 0, 1 << 24));
        else if (arg == "--read-timeout")
            cfg.read_timeout_seconds = flags.realFlag(
                "--read-timeout", next("--read-timeout"));
        else if (arg == "--write-timeout")
            cfg.write_timeout_seconds = flags.realFlag(
                "--write-timeout", next("--write-timeout"));
        else if (arg == "--drain-timeout")
            cfg.drain_deadline_seconds = flags.realFlag(
                "--drain-timeout", next("--drain-timeout"));
        else if (arg == "--interactive-weight")
            cfg.service.lane_weights[zac::net::kLaneInteractive] =
                static_cast<int>(
                    flags.intFlag("--interactive-weight",
                                  next("--interactive-weight"), 1,
                                  1 << 20));
        else if (arg == "--batch-weight")
            cfg.service.lane_weights[zac::net::kLaneBatch] =
                static_cast<int>(flags.intFlag("--batch-weight",
                                               next("--batch-weight"),
                                               1, 1 << 20));
        else if (arg == "--no-zair")
            cfg.include_zair = false;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "zac_serve: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else if (targets_path.empty()) {
            targets_path = arg;
        } else {
            usage();
            return 2;
        }
    }

    try {
        std::vector<zac::service::CompileTarget> targets;
        if (!targets_path.empty())
            targets = loadTargets(targets_path);
        if (targets.empty()) {
            // Mirrors the manifest loader's default target
            // (reference arch, full preset).
            targets.push_back(zac::service::targetFromJson(
                zac::json::Value(zac::json::Object{})));
        }

        CompileServer server(std::move(targets), cfg);
        const std::uint16_t port = server.listen();

        g_server = &server;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = handleSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);

        // The smoke script and the churn bench parse this line to
        // discover the ephemeral port — keep the format stable.
        std::printf("zac_serve: listening on %s:%u\n",
                    cfg.host.c_str(), static_cast<unsigned>(port));
        std::fflush(stdout);

        const bool clean = server.run();
        g_server = nullptr;

        const zac::net::NetStats stats = server.netStats();
        std::fprintf(stderr,
                     "zac_serve: drained (%s): %llu connections, "
                     "%llu records streamed\n",
                     clean ? "clean" : "deadline forced",
                     static_cast<unsigned long long>(
                         stats.connections_accepted),
                     static_cast<unsigned long long>(
                         stats.records_streamed));
        return clean ? 0 : 1;
    } catch (const zac::FatalError &e) {
        std::fprintf(stderr, "zac_serve: fatal: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        // Backstop: nothing below main() should leak a raw exception
        // (filesystem errors, bad_alloc, ...), but if it does, die
        // with a message instead of std::terminate.
        std::fprintf(stderr, "zac_serve: unexpected error: %s\n",
                     e.what());
        return 2;
    }
}
