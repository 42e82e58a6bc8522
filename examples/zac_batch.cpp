/**
 * @file
 * zac_batch: the batch-compile frontend over the CompileService.
 *
 * Reads a JSON manifest of circuits (QASM paths or built-in paper
 * benchmarks) and compile targets (architecture + option presets),
 * drives the work-queue service, and streams one JSONL record per
 * finished job — results are written as workers complete them, not
 * after the batch ends. See docs/zac_batch.md for the manifest format
 * and protocol.
 *
 *   usage: zac_batch <manifest.json> [options]
 *     --out <file>    write JSONL records to a file (default stdout)
 *     --workers N     worker threads (default: hardware concurrency)
 *     --cache N       result-cache entries, 0 disables (default 1024)
 *     --repeat N      run the whole manifest N times, draining between
 *                     rounds (round 2+ should be served by the cache)
 *     --dedup         drop exact duplicate jobs within a round (same
 *                     circuit content hash, target, seed, timeout)
 *     --no-zair       omit the ZAIR program from result records
 *     --echo-submit   also write a "submit" record per accepted job
 *     --snapshot <f>  persist the result cache to <f> (loaded on
 *                     start, flushed on drain — warm restarts)
 *     --retries N     transient-failure retries per job (default 2)
 *     --backoff-ms X  first retry backoff, doubling per attempt
 *     --admission N   reject submissions past N undelivered jobs with
 *                     an "overloaded" record (0 = never reject)
 *     --drain-timeout S  graceful-stop deadline in seconds; in-flight
 *                     jobs outlasting it are cancelled (0 = wait)
 *     --stats-record  append one "stats" JSONL record after the drain
 *                     (service counters, cache, warm-context pool)
 *
 * When --out is a file, the written JSONL is re-read and verified after
 * the drain: a malformed line or a job without exactly one terminal
 * record is a hard error (exit 2), never a silent skip.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <tuple>

#include "cli_flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "service/manifest.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: zac_batch <manifest.json> [--out file] [--workers N]\n"
        "                 [--cache N] [--repeat N]\n"
        "                 [--dedup] [--no-zair] [--echo-submit]\n"
        "                 [--snapshot file] [--retries N]\n"
        "                 [--backoff-ms X] [--admission N]\n"
        "                 [--drain-timeout S] [--stats-record]\n");
}

/**
 * Re-read the JSONL stream zac_batch just wrote and check the delivery
 * invariant end to end: every line parses, every record type is known,
 * and every submitted job id has EXACTLY ONE terminal (result/error)
 * record. Throws FatalError on the first violation — a half-written
 * results file must fail the batch, not silently under-report.
 */
void
verifyOutputFile(const std::string &path, std::uint64_t expected_jobs)
{
    using zac::json::Value;
    std::ifstream in(path);
    if (!in)
        zac::fatal("zac_batch: cannot re-open " + path +
                   " for verification");
    std::map<std::uint64_t, int> terminal_counts;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            zac::fatal("zac_batch: " + path + ":" +
                       std::to_string(line_no) + ": empty JSONL line");
        Value rec;
        try {
            rec = zac::json::parse(line);
        } catch (const std::exception &e) {
            zac::fatal("zac_batch: " + path + ":" +
                       std::to_string(line_no) +
                       ": malformed JSONL line: " + e.what());
        }
        const std::string &type = rec.at("type").asString();
        if (type == "submit" || type == "stats")
            continue;
        if (type != "result" && type != "error")
            zac::fatal("zac_batch: " + path + ":" +
                       std::to_string(line_no) +
                       ": unknown record type '" + type + "'");
        if (!zac::service::jobStatusFromName(
                rec.at("status").asString()))
            zac::fatal("zac_batch: " + path + ":" +
                       std::to_string(line_no) +
                       ": unknown job status '" +
                       rec.at("status").asString() + "'");
        const std::uint64_t id =
            static_cast<std::uint64_t>(rec.at("job_id").asInt());
        if (++terminal_counts[id] > 1)
            zac::fatal("zac_batch: " + path + ": job " +
                       std::to_string(id) +
                       " has more than one terminal record");
    }
    if (terminal_counts.size() != expected_jobs)
        zac::fatal("zac_batch: " + path + ": expected " +
                   std::to_string(expected_jobs) +
                   " terminal records, found " +
                   std::to_string(terminal_counts.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace zac;
    using namespace zac::service;

    if (argc < 2) {
        usage();
        return 1;
    }
    std::string manifest_path = argv[1];
    std::string out_path;
    int workers = 0;
    std::size_t cache_capacity = 1024;
    int rounds = 1;
    bool dedup = false;
    bool include_zair = true;
    bool echo_submit = false;
    bool stats_record = false;
    std::string snapshot_path;
    int max_retries = 2;
    double backoff_ms = 1.0;
    std::size_t admission = 0;
    double drain_timeout = 0.0;
    const cli::FlagParser flags{"zac_batch", usage};
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--workers" && i + 1 < argc)
            workers = static_cast<int>(
                flags.intFlag("--workers", argv[++i], 1, 4096));
        else if (arg == "--cache" && i + 1 < argc)
            cache_capacity = static_cast<std::size_t>(
                flags.intFlag("--cache", argv[++i], 0, 1 << 24));
        else if (arg == "--repeat" && i + 1 < argc)
            rounds = static_cast<int>(
                flags.intFlag("--repeat", argv[++i], 1, 1 << 24));
        else if (arg == "--snapshot" && i + 1 < argc)
            snapshot_path = argv[++i];
        else if (arg == "--retries" && i + 1 < argc)
            max_retries = static_cast<int>(
                flags.intFlag("--retries", argv[++i], 0, 1000));
        else if (arg == "--backoff-ms" && i + 1 < argc)
            backoff_ms = flags.realFlag("--backoff-ms", argv[++i]);
        else if (arg == "--admission" && i + 1 < argc)
            admission = static_cast<std::size_t>(
                flags.intFlag("--admission", argv[++i], 0, 1 << 24));
        else if (arg == "--drain-timeout" && i + 1 < argc)
            drain_timeout = flags.realFlag("--drain-timeout", argv[++i]);
        else if (arg == "--dedup")
            dedup = true;
        else if (arg == "--no-zair")
            include_zair = false;
        else if (arg == "--echo-submit")
            echo_submit = true;
        else if (arg == "--stats-record")
            stats_record = true;
        else {
            usage();
            return 1;
        }
    }

    try {
        Manifest manifest = loadManifest(manifest_path);

        std::ofstream file;
        if (!out_path.empty()) {
            file.open(out_path);
            if (!file)
                fatal("zac_batch: cannot open output file " + out_path);
        }
        std::ostream &out = out_path.empty() ? std::cout : file;

        std::vector<std::string> target_names;
        for (const CompileTarget &t : manifest.targets)
            target_names.push_back(t.name);

        // Tallies, updated from the sink. The service serializes sink
        // calls against each other, but with --echo-submit the main
        // thread also writes to `out` concurrently, so every write
        // (and tally) goes through this mutex.
        std::mutex out_mutex;
        std::uint64_t n_done = 0, n_failed = 0, n_cancelled = 0;
        std::uint64_t n_timed_out = 0, n_overloaded = 0;
        std::uint64_t n_cache_hits = 0;

        CompileService::Config config;
        config.num_workers = workers;
        config.cache_capacity = cache_capacity;
        config.snapshot_path = snapshot_path;
        config.max_retries = max_retries;
        config.retry_backoff_ms = backoff_ms;
        config.admission_high_water = admission;
        CompileService svc(
            manifest.targets, config,
            [&](const JobRecord &r) {
                std::lock_guard<std::mutex> lock(out_mutex);
                switch (r.status) {
                  case JobStatus::Done: ++n_done; break;
                  case JobStatus::Failed: ++n_failed; break;
                  case JobStatus::Cancelled: ++n_cancelled; break;
                  case JobStatus::TimedOut: ++n_timed_out; break;
                  case JobStatus::Overloaded: ++n_overloaded; break;
                }
                if (r.cache_hit)
                    ++n_cache_hits;
                writeJobRecordJsonl(
                    out, r,
                    target_names[static_cast<std::size_t>(r.target)],
                    include_zair);
                out.flush();
            });

        // Pre-hash each manifest job once: used for dedup and the
        // optional submit records.
        std::vector<std::uint64_t> job_hashes;
        for (const ManifestJob &j : manifest.jobs)
            job_hashes.push_back(j.circuit.contentHash());

        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t submitted = 0, deduped = 0;
        for (int round = 0; round < rounds; ++round) {
            // (hash, target, has-seed, seed, timeout) per round.
            std::set<std::tuple<std::uint64_t, int, bool,
                                std::uint64_t, double>>
                seen;
            for (std::size_t ji = 0; ji < manifest.jobs.size(); ++ji) {
                const ManifestJob &j = manifest.jobs[ji];
                for (int rep = 0; rep < j.repeat; ++rep) {
                    if (dedup) {
                        const auto key = std::make_tuple(
                            job_hashes[ji], j.target,
                            j.seed.has_value(),
                            j.seed.value_or(0),
                            j.timeout_seconds);
                        if (!seen.insert(key).second) {
                            ++deduped;
                            continue;
                        }
                    }
                    // The job minus its repeat count.
                    const std::uint64_t id = svc.submit(j);
                    ++submitted;
                    if (echo_submit) {
                        std::lock_guard<std::mutex> lock(out_mutex);
                        out << toJsonl(makeSubmitRecord(
                            id, j.name,
                            target_names[static_cast<std::size_t>(
                                j.target)],
                            job_hashes[ji]));
                        out.flush();
                    }
                }
            }
            // Drain between rounds so later rounds hit the cache of
            // earlier ones deterministically.
            svc.drain();
        }
        const bool drained_clean = svc.drainAndStop(drain_timeout);
        if (!drained_clean)
            std::fprintf(stderr,
                         "zac_batch: drain deadline (%.3f s) expired; "
                         "remaining jobs were cancelled\n",
                         drain_timeout);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        if (stats_record) {
            // After the drain every sink call has completed, so the
            // counters are final; still take the mutex for the write.
            std::lock_guard<std::mutex> lock(out_mutex);
            out << toJsonl(makeStatsRecord(svc.serviceStats()));
            out.flush();
        }

        const ResultCache::Stats cs = svc.cacheStats();
        const CompileService::Stats ss = svc.stats();
        std::fprintf(
            stderr,
            "zac_batch: %llu jobs (%d round%s, %llu deduped) on %d "
            "workers in %.3f s = %.2f jobs/s\n"
            "           done %llu, failed %llu, cancelled %llu, "
            "timed out %llu, overloaded %llu; cache hits %llu "
            "(rate %.2f, %zu entries)\n"
            "           retries %llu (exhausted %llu), coalesced "
            "%llu served + %llu requeued; snapshot %llu loaded / "
            "%llu skipped / %llu written\n",
            static_cast<unsigned long long>(submitted), rounds,
            rounds == 1 ? "" : "s",
            static_cast<unsigned long long>(deduped),
            svc.numWorkers(), wall,
            wall > 0.0 ? static_cast<double>(submitted) / wall : 0.0,
            static_cast<unsigned long long>(n_done),
            static_cast<unsigned long long>(n_failed),
            static_cast<unsigned long long>(n_cancelled),
            static_cast<unsigned long long>(n_timed_out),
            static_cast<unsigned long long>(n_overloaded),
            static_cast<unsigned long long>(n_cache_hits),
            cs.hitRate(), cs.entries,
            static_cast<unsigned long long>(ss.retries),
            static_cast<unsigned long long>(ss.retries_exhausted),
            static_cast<unsigned long long>(ss.coalesced_served),
            static_cast<unsigned long long>(ss.coalesced_requeued),
            static_cast<unsigned long long>(
                ss.snapshot_records_loaded),
            static_cast<unsigned long long>(
                ss.snapshot_records_skipped),
            static_cast<unsigned long long>(
                ss.snapshot_records_written));

        if (!out_path.empty()) {
            out.flush();
            file.close();
            verifyOutputFile(out_path, submitted);
        }
        return n_failed == 0 ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "zac_batch: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        // Backstop: never let a raw exception reach std::terminate.
        std::fprintf(stderr, "zac_batch: unexpected error: %s\n",
                     e.what());
        return 2;
    }
}
