/**
 * @file
 * Throughput and fault-tolerance harness for the batch compile service
 * (ISSUE 3, extended by ISSUEs 6 and 9).
 *
 * Measurements, on the reference zoned architecture and the 17 paper
 * benchmark circuits:
 *  - sequential baseline: single-threaded ZacCompiler::compileStreamed
 *    with one reused CompileScratch over the whole job list, the same
 *    work a service worker does per job (the denominator for every
 *    scaling figure);
 *  - jobs/sec vs. worker count (cache disabled, so every job is a real
 *    compile) with queue-wait latency percentiles per worker count;
 *  - cache round-trip: the job list submitted twice with the cache
 *    enabled — the second round must be served entirely from the cache;
 *  - output identity: every service result (every worker count, and
 *    every cache-served result) must be bit-identical to the DOM
 *    reference (one untimed ZacCompiler::compile per circuit), compared
 *    by serialized ZAIR program and the fidelity bit pattern;
 *  - chaos soak: the job list run under a deterministic FaultPlan
 *    (injected transient throws, mid-compile cancels, slow-worker
 *    stalls) with retry, in-flight dedup, and a persistent cache
 *    snapshot. Asserts the delivery invariant (every job EXACTLY ONE
 *    terminal record), that every Done record is bit-identical to the
 *    reference, that a restarted service warm-starts from the snapshot
 *    (every snapshot record served as a cache hit, bit-identical), and
 *    that every snapshot-corruption mode is tolerated by the loader;
 *  - client churn (ISSUE 8): an in-process zac_serve daemon under
 *    waves of concurrent short-lived HTTP clients (>= 200 per wave),
 *    each opening a TCP connection, POSTing one submit line, and
 *    reading its streamed JSONL record to EOF. Asserts that every
 *    connection receives EXACTLY ONE terminal record and that every
 *    record is byte-identical to the offline service output for the
 *    same submission once the wall-clock timing fields and per-run
 *    identifiers are stripped, then drains the daemon under SIGTERM
 *    semantics (requestDrain) and asserts a clean verdict. Reports
 *    end-to-end latency percentiles and `latency_p99_normalized` —
 *    p99 over the mean sequential per-job compile time — as the
 *    machine-independent CI gate.
 *  - streamed vs DOM: every circuit compiled through the zero-DOM
 *    streaming path (compileStreamed with verify_with_dom on, reusing
 *    one CompileScratch across jobs) must be byte-identical to the DOM
 *    reference.
 *
 * Results are written as machine-readable JSON (schema
 * zac.perf_service.v4, documented in bench/README.md). The CI gate
 * reads `scaling_overhead` — parallel seconds at the largest worker
 * count, normalized by the ideal-scaling expectation
 * sequential/min(workers, cores), the median over interleaved repeats
 * of both runs on a job list that takes at least 0.5 s sequentially —
 * plus the chaos-soak, churn, and streamed-identity invariant flags.
 *
 * Usage: perf_service [output.json] [--fast] [--chaos]
 *   --fast   CI smoke mode: fewer repeat rounds per measurement.
 *   --chaos  longer, more hostile chaos soak (more rounds, higher
 *            fault rates); the soak itself always runs.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/cache_store.hpp"
#include "service/fault_injection.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "zair/serialize.hpp"

using namespace zac;
using namespace zac::bench;
using namespace zac::service;

namespace
{

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Canonical byte string of one compile result (for identity checks). */
std::string
resultSignature(const ZacResult &r)
{
    std::ostringstream ss;
    streamZairProgram(ss, r.program, /*indent=*/0);
    ss << '|' << std::bit_cast<std::uint64_t>(r.fidelity.total);
    return ss.str();
}

/** Streamed-result overload: same shape, so streamed service output
 *  is compared against the sequential DOM reference byte for byte. */
std::string
resultSignature(const ZacStreamedResult &r)
{
    std::ostringstream ss;
    ss << r.program_json << '|'
       << std::bit_cast<std::uint64_t>(r.fidelity.total);
    return ss.str();
}

/**
 * Shortest sequential run of one scaling-overhead repeat: enough jobs
 * that scheduler noise and the last job's tail stay small next to it.
 */
constexpr double kMinSequentialRegionSeconds = 0.5;

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/**
 * Worker count for the fixed-parallelism rounds (cache, chaos soak,
 * warm start, churn): every available core, never fewer than two so a
 * single-core CI runner still exercises cross-worker paths.
 */
int
defaultWorkers(unsigned hw)
{
    return static_cast<int>(std::max(2u, hw));
}

/**
 * Canonical payload of one JSONL record: the parsed object with the
 * wall-clock timing fields and the per-run identifiers removed,
 * re-dumped. Two records are "byte-identical modulo timing" exactly
 * when their canonical payloads compare equal.
 */
std::string
canonicalRecord(const std::string &line)
{
    json::Object obj = json::parse(line).asObject();
    for (const char *key :
         {"queue_seconds", "service_seconds", "compile_seconds",
          "phase_seconds", "job_id", "attempts", "cache_hit"})
        obj.erase(key);
    return json::Value(std::move(obj)).dump();
}

/** Copy @p src over @p dst (binary, truncating). */
void
copyFile(const std::string &src, const std::string &dst)
{
    std::ifstream in(src, std::ios::binary);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    if (!in || !out)
        fatal("perf_service: cannot copy " + src + " -> " + dst);
    out << in.rdbuf();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_service.json";
    bool fast = false;
    bool chaos_mode = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            fast = true;
        else if (std::strcmp(argv[i], "--chaos") == 0)
            chaos_mode = true;
        else
            out_path = argv[i];
    }

    banner("perf_service",
           "batch compile service: jobs/sec scaling, queue latency, "
           "cache, chaos soak");

    const Architecture arch = presets::referenceZoned();
    const ZacOptions opts = defaultZacOptions();
    const int rounds = fast ? 2 : 6;

    // The job list: every paper circuit, `rounds` times over.
    std::vector<Circuit> circuits;
    for (const std::string &name : circuitNames())
        circuits.push_back(bench_circuits::paperBenchmark(name));
    const int jobs_per_round = static_cast<int>(circuits.size());
    const int total_jobs = jobs_per_round * rounds;

    // ------------------------------------------- sequential baseline
    // The DOM reference signatures are computed untimed; the timed
    // loop does what one service worker does per job.
    const ZacCompiler compiler(arch, opts);
    std::map<std::string, std::string> reference; // name -> signature
    for (const Circuit &c : circuits)
        reference[c.name()] = resultSignature(compiler.compile(c));
    CompileScratch seq_scratch;
    auto sequentialRound = [&](int passes) {
        const double t0 = nowSeconds();
        for (int pass = 0; pass < passes; ++pass)
            for (const Circuit &c : circuits)
                (void)compiler.compileStreamed(c, {}, &seq_scratch);
        return nowSeconds() - t0;
    };
    const double sequential_seconds = sequentialRound(rounds);
    const double sequential_jps =
        static_cast<double>(total_jobs) / sequential_seconds;
    std::printf("sequential: %d jobs in %.3f s = %.2f jobs/s\n\n",
                total_jobs, sequential_seconds, sequential_jps);

    // -------------------------------------- streamed-vs-DOM identity
    // The zero-DOM path must produce byte-identical serialized output
    // (and the identical fidelity bit pattern) for every circuit.
    // verify_with_dom additionally makes the compiler itself tee a DOM
    // and panic on any byte divergence mid-run.
    bool streamed_vs_dom_identical = true;
    {
        CompileScratch scratch; // reused across circuits, like a worker
        for (const Circuit &c : circuits) {
            const ZacStreamedResult s = compiler.compileStreamed(
                c, CompileControl{}, &scratch,
                /*verify_with_dom=*/true);
            if (resultSignature(s) != reference[c.name()])
                streamed_vs_dom_identical = false;
        }
    }
    std::printf("streamed vs DOM: %d circuits, outputs %s\n\n",
                jobs_per_round,
                streamed_vs_dom_identical ? "bit-identical"
                                          : "MISMATCHED");

    // --------------------------------------- jobs/sec vs worker count
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<int> worker_counts{1, 2, 4};
    if (hw > 4)
        worker_counts.push_back(static_cast<int>(hw));

    bool outputs_identical = true;
    // One service run over `passes` copies of the job list, cache
    // disabled (raw compile throughput); returns its wall seconds.
    auto serviceRound = [&](int workers, int passes,
                            std::vector<double> &queue_waits,
                            std::uint64_t &mismatches) {
        CompileService::Config config;
        config.num_workers = workers;
        config.cache_capacity = 0;
        CompileService svc(
            {CompileTarget{"ref-full", arch, opts}}, config,
            [&](const JobRecord &rec) {
                queue_waits.push_back(rec.queue_seconds);
                if (rec.status != JobStatus::Done ||
                    resultSignature(*rec.result) !=
                        reference[rec.name])
                    ++mismatches;
            });
        const double t0 = nowSeconds();
        for (int pass = 0; pass < passes; ++pass)
            for (const Circuit &c : circuits)
                svc.submit({c.name(), c, 0, {}, 0.0});
        svc.drain();
        const double seconds = nowSeconds() - t0;
        svc.shutdown();
        return seconds;
    };
    json::Array scaling_rows;
    double parallel_seconds_at_max = sequential_seconds;
    int max_workers = 1;
    std::printf("%8s %10s %12s %9s %12s %12s  (scaling)\n", "workers",
                "seconds", "jobs/s", "speedup", "queue p50", "queue p99");
    for (int workers : worker_counts) {
        std::vector<double> queue_waits;
        std::uint64_t mismatches = 0;
        const double seconds =
            serviceRound(workers, rounds, queue_waits, mismatches);
        if (mismatches > 0)
            outputs_identical = false;
        const double jps = static_cast<double>(total_jobs) / seconds;
        const double speedup = sequential_seconds / seconds;
        std::sort(queue_waits.begin(), queue_waits.end());
        const double p50 = percentile(queue_waits, 0.50);
        const double p90 = percentile(queue_waits, 0.90);
        const double p99 = percentile(queue_waits, 0.99);
        const double pmax =
            queue_waits.empty() ? 0.0 : queue_waits.back();
        std::printf("%8d %10.3f %12.2f %8.2fx %10.3fms %10.3fms%s\n",
                    workers, seconds, jps, speedup, p50 * 1e3,
                    p99 * 1e3,
                    mismatches ? "  OUTPUT MISMATCH" : "");

        json::Object row;
        row["workers"] = workers;
        row["jobs"] = total_jobs;
        row["seconds"] = seconds;
        row["jobs_per_second"] = jps;
        row["speedup_vs_sequential"] = speedup;
        row["queue_p50_seconds"] = p50;
        row["queue_p90_seconds"] = p90;
        row["queue_p99_seconds"] = p99;
        row["queue_max_seconds"] = pmax;
        row["output_mismatches"] =
            static_cast<std::int64_t>(mismatches);
        scaling_rows.push_back(std::move(row));

        if (workers >= max_workers) {
            max_workers = workers;
            parallel_seconds_at_max = seconds;
        }
    }
    // The gated figure. One round of each kind above is too short to
    // time (34 jobs, ~0.1 s in --fast), so the sequential and the
    // max-worker runs alternate over a longer job list, each repeat
    // gives one ratio under the load of its moment, and the median
    // ratio is the figure.
    const double effective_cores = static_cast<double>(
        std::min<unsigned>(static_cast<unsigned>(max_workers), hw));
    const int overhead_repeats = 7;
    const int overhead_passes = std::max(
        rounds, static_cast<int>(std::ceil(kMinSequentialRegionSeconds *
                                           rounds / sequential_seconds)));
    std::vector<double> overhead_ratios;
    for (int repeat = 0; repeat < overhead_repeats; ++repeat) {
        const double seq = sequentialRound(overhead_passes);
        std::vector<double> queue_waits;
        std::uint64_t mismatches = 0;
        const double par = serviceRound(max_workers, overhead_passes,
                                        queue_waits, mismatches);
        if (mismatches > 0)
            outputs_identical = false;
        overhead_ratios.push_back(par * effective_cores / seq);
    }
    std::vector<double> sorted_ratios = overhead_ratios;
    std::sort(sorted_ratios.begin(), sorted_ratios.end());
    const double scaling_overhead = percentile(sorted_ratios, 0.5);
    std::printf("\nscaling overhead at %d workers (1.0 = ideal on %u "
                "cores): %.3f, median of %d repeats of %d jobs each way "
                "(",
                max_workers, hw, scaling_overhead, overhead_repeats,
                overhead_passes * jobs_per_round);
    for (std::size_t i = 0; i < overhead_ratios.size(); ++i)
        std::printf("%s%.3f", i > 0 ? " " : "", overhead_ratios[i]);
    std::printf(")\n\n");

    // -------------------------------------------------- cache round
    std::uint64_t cache_mismatches = 0;
    std::uint64_t second_round_hits = 0, second_round_jobs = 0;
    bool in_second_round = false;
    ResultCache::Stats cache_stats;
    CompileService::Config cache_config;
    cache_config.num_workers = defaultWorkers(hw);
    cache_config.cache_capacity = 1024;
    {
        CompileService svc(
            {CompileTarget{"ref-full", arch, opts}}, cache_config,
            [&](const JobRecord &rec) {
                if (rec.status != JobStatus::Done ||
                    resultSignature(*rec.result) !=
                        reference[rec.name]) {
                    ++cache_mismatches;
                    return;
                }
                if (in_second_round) {
                    ++second_round_jobs;
                    if (rec.cache_hit)
                        ++second_round_hits;
                }
            });
        for (const Circuit &c : circuits)
            svc.submit({c.name(), c, 0, {}, 0.0});
        svc.drain();
        in_second_round = true;
        for (const Circuit &c : circuits)
            svc.submit({c.name(), c, 0, {}, 0.0});
        svc.drain();
        cache_stats = svc.cacheStats();
        svc.shutdown();
    }
    if (cache_mismatches > 0)
        outputs_identical = false;
    const bool second_all_hits =
        second_round_jobs ==
            static_cast<std::uint64_t>(jobs_per_round) &&
        second_round_hits == second_round_jobs;
    std::printf("cache: %llu/%llu second-round hits (rate %.2f, "
                "%zu entries), results %s\n\n",
                static_cast<unsigned long long>(second_round_hits),
                static_cast<unsigned long long>(second_round_jobs),
                cache_stats.hitRate(), cache_stats.entries,
                cache_mismatches ? "MISMATCHED" : "bit-identical");

    // --------------------------------------------------- chaos soak
    // Deterministic fault plan: the same seed replays the same faults
    // regardless of how jobs land on workers, so invariant checks are
    // exact, not probabilistic.
    FaultPlan plan;
    plan.seed = 0x5eedc0de;
    plan.throw_rate = chaos_mode ? 0.35 : 0.20;
    plan.cancel_rate = chaos_mode ? 0.20 : 0.10;
    plan.stall_rate = chaos_mode ? 0.15 : 0.05;
    plan.stall_ms = 1.0;
    const int soak_rounds =
        chaos_mode ? (fast ? 8 : 16) : (fast ? 3 : 6);
    const std::string snapshot_path = out_path + ".chaos-snapshot";
    std::remove(snapshot_path.c_str()); // cold start

    std::map<std::uint64_t, int> terminal_counts;
    std::uint64_t chaos_mismatches = 0;
    std::uint64_t n_done = 0, n_cancelled = 0, n_failed = 0,
                  n_timed_out = 0, n_overloaded = 0;
    std::vector<std::uint64_t> soak_ids;
    CompileService::Stats soak_stats;
    {
        CompileService::Config config;
        config.num_workers = defaultWorkers(hw);
        config.cache_capacity = 1024;
        config.max_retries = 2;
        config.retry_backoff_ms = 0.1;
        config.retry_backoff_max_ms = 2.0;
        config.snapshot_path = snapshot_path;
        config.faults = plan;
        CompileService svc(
            {CompileTarget{"ref-full", arch, opts}}, config,
            [&](const JobRecord &rec) {
                ++terminal_counts[rec.job_id];
                switch (rec.status) {
                  case JobStatus::Done:
                    ++n_done;
                    if (resultSignature(*rec.result) !=
                        reference[rec.name])
                        ++chaos_mismatches;
                    break;
                  case JobStatus::Cancelled: ++n_cancelled; break;
                  case JobStatus::TimedOut: ++n_timed_out; break;
                  case JobStatus::Failed: ++n_failed; break;
                  case JobStatus::Overloaded: ++n_overloaded; break;
                }
            });
        for (int round = 0; round < soak_rounds; ++round)
            for (const Circuit &c : circuits)
                soak_ids.push_back(
                    svc.submit({c.name(), c, 0, {}, 0.0}));
        svc.drainAndStop();
        soak_stats = svc.stats();
    }
    bool exactly_once = terminal_counts.size() == soak_ids.size();
    for (const std::uint64_t id : soak_ids) {
        const auto it = terminal_counts.find(id);
        if (it == terminal_counts.end() || it->second != 1)
            exactly_once = false;
    }
    const bool chaos_identical = chaos_mismatches == 0;
    std::printf(
        "chaos: %zu jobs over %d rounds (throw %.2f, cancel %.2f, "
        "stall %.2f)\n"
        "       done %llu, cancelled %llu, timed out %llu, failed "
        "%llu, overloaded %llu\n"
        "       transient %llu, retries %llu (exhausted %llu), "
        "coalesced %llu+%llu\n"
        "       terminal records exactly once: %s; outputs %s\n",
        soak_ids.size(), soak_rounds, plan.throw_rate,
        plan.cancel_rate, plan.stall_rate,
        static_cast<unsigned long long>(n_done),
        static_cast<unsigned long long>(n_cancelled),
        static_cast<unsigned long long>(n_timed_out),
        static_cast<unsigned long long>(n_failed),
        static_cast<unsigned long long>(n_overloaded),
        static_cast<unsigned long long>(soak_stats.transient_failures),
        static_cast<unsigned long long>(soak_stats.retries),
        static_cast<unsigned long long>(soak_stats.retries_exhausted),
        static_cast<unsigned long long>(soak_stats.coalesced_served),
        static_cast<unsigned long long>(soak_stats.coalesced_requeued),
        exactly_once ? "yes" : "NO",
        chaos_identical ? "bit-identical" : "MISMATCHED");

    // Warm start: a restarted service must reload the snapshot and
    // serve every persisted record as a cache hit, bit-identical.
    std::uint64_t warm_hits = 0, warm_done = 0;
    std::uint64_t warm_mismatches = 0;
    SnapshotLoadStats warm_load;
    {
        CompileService::Config config;
        config.num_workers = defaultWorkers(hw);
        config.cache_capacity = 1024;
        config.snapshot_path = snapshot_path;
        config.faults = FaultPlan{}; // no faults on the warm run
        CompileService svc(
            {CompileTarget{"ref-full", arch, opts}}, config,
            [&](const JobRecord &rec) {
                if (rec.status != JobStatus::Done ||
                    resultSignature(*rec.result) !=
                        reference[rec.name]) {
                    ++warm_mismatches;
                    return;
                }
                ++warm_done;
                if (rec.cache_hit)
                    ++warm_hits;
            });
        warm_load = svc.snapshotLoadStats();
        for (const Circuit &c : circuits)
            svc.submit({c.name(), c, 0, {}, 0.0});
        svc.drainAndStop();
    }
    const bool warm_served_from_snapshot =
        warm_load.file_found && warm_load.header_ok &&
        warm_load.skippedTotal() == 0 &&
        soak_stats.snapshot_records_written ==
            warm_load.records_loaded &&
        warm_hits >= warm_load.records_loaded &&
        warm_done == static_cast<std::uint64_t>(jobs_per_round) &&
        warm_mismatches == 0;
    std::printf("       warm start: %llu records loaded, %llu/%d "
                "served as hits, outputs %s\n",
                static_cast<unsigned long long>(
                    warm_load.records_loaded),
                static_cast<unsigned long long>(warm_hits),
                jobs_per_round,
                warm_mismatches ? "MISMATCHED" : "bit-identical");

    // Corruption recovery: every damage mode must load without an
    // exception, skipping (and counting) only what is damaged.
    const struct
    {
        const char *name;
        SnapshotCorruption mode;
    } corruptions[] = {
        {"truncate", SnapshotCorruption::Truncate},
        {"flip_byte", SnapshotCorruption::FlipByte},
        {"wrong_version", SnapshotCorruption::WrongVersion},
        {"empty", SnapshotCorruption::Empty},
    };
    bool corruption_tolerated = true;
    json::Object corruption_rows;
    for (const auto &c : corruptions) {
        const std::string damaged =
            snapshot_path + "." + c.name;
        bool ok = true;
        SnapshotLoadStats st;
        try {
            copyFile(snapshot_path, damaged);
            corruptSnapshotFile(damaged, c.mode, /*seed=*/7);
            ResultCache scratch(1024);
            st = loadCacheSnapshot(damaged, scratch);
            // Damage must cost records, never correctness: loaded
            // records plus skips must not exceed what was written,
            // and damaged modes other than Truncate lose >= 1 record
            // (Empty loses the header too).
            if (st.records_loaded > warm_load.records_loaded)
                ok = false;
            if (c.mode != SnapshotCorruption::Truncate &&
                warm_load.records_loaded > 0 &&
                st.records_loaded >= warm_load.records_loaded)
                ok = false;
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "chaos: corruption mode %s threw: %s\n",
                         c.name, e.what());
            ok = false;
        }
        std::remove(damaged.c_str());
        if (!ok)
            corruption_tolerated = false;
        corruption_rows[c.name] = json::Object{
            {"loaded", static_cast<std::int64_t>(st.records_loaded)},
            {"skipped_checksum",
             static_cast<std::int64_t>(st.skipped_checksum)},
            {"skipped_corrupt",
             static_cast<std::int64_t>(st.skipped_corrupt)},
            {"skipped_version",
             static_cast<std::int64_t>(st.skipped_version)},
            {"tolerated", ok},
        };
        std::printf("       corruption %-13s loaded %zu, skipped "
                    "%zu%s\n",
                    c.name, st.records_loaded, st.skippedTotal(),
                    ok ? "" : "  NOT TOLERATED");
    }
    std::remove(snapshot_path.c_str());

    const bool chaos_ok = exactly_once && chaos_identical &&
                          warm_served_from_snapshot &&
                          corruption_tolerated;
    if (chaos_mismatches || warm_mismatches)
        outputs_identical = false;

    // ------------------------------------------------- client churn
    // Offline reference payloads: the exact serialized record the
    // offline service (zac_batch's engine) produces per circuit, in
    // canonical form. The daemon must serve the same payload.
    std::map<std::string, std::string> offline_canonical;
    {
        std::mutex sink_mu;
        CompileService::Config config;
        config.num_workers = defaultWorkers(hw);
        config.cache_capacity = 0;
        CompileService svc(
            {CompileTarget{"ref-full", arch, opts}}, config,
            [&](const JobRecord &rec) {
                std::ostringstream ss;
                writeJobRecordJsonl(ss, rec, "ref-full",
                                    /*include_zair=*/true);
                const std::lock_guard<std::mutex> lock(sink_mu);
                offline_canonical[rec.name] =
                    canonicalRecord(ss.str());
            });
        for (const Circuit &c : circuits)
            svc.submit({c.name(), c, 0, {}, 0.0});
        svc.drainAndStop();
    }

    const int wave_size = 200; // concurrent clients per wave
    const int churn_waves = fast ? 2 : 3;
    const int churn_clients = wave_size * churn_waves;

    net::ServerConfig server_config;
    server_config.backlog = 256;
    server_config.max_connections =
        static_cast<std::size_t>(wave_size) * 2;
    server_config.service.num_workers = defaultWorkers(hw);
    server_config.service.cache_capacity = 1024;
    net::CompileServer server(
        {CompileTarget{"ref-full", arch, opts}}, server_config);
    const std::uint16_t churn_port = server.listen();
    bool churn_drained_clean = false;
    std::thread server_thread(
        [&] { churn_drained_clean = server.run(); });

    // Per-client slots (disjoint indices, no locking needed).
    std::vector<double> client_latency(churn_clients, 0.0);
    std::vector<int> client_records(churn_clients, 0);
    std::vector<unsigned char> client_http_ok(churn_clients, 0);
    std::vector<unsigned char> client_identical(churn_clients, 0);
    std::atomic<std::uint64_t> churn_cache_hits{0};

    auto client = [&](int idx) {
        const Circuit &c = circuits[static_cast<std::size_t>(idx) %
                                    circuits.size()];
        json::Object line;
        line["circuit"] = c.name();
        line["lane"] = (idx % 2 == 0) ? "interactive" : "batch";
        const std::string body =
            json::Value(std::move(line)).dump() + "\n";
        const std::string request =
            "POST /compile HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
        try {
            const double t0 = nowSeconds();
            net::Fd fd =
                net::tcpConnect("127.0.0.1", churn_port, 120.0);
            if (!net::sendAll(fd.get(), request.data(),
                              request.size()))
                return;
            std::string raw;
            if (!net::recvUntilClose(fd.get(), raw))
                return;
            client_latency[idx] = nowSeconds() - t0;
            const std::size_t head_end = raw.find("\r\n\r\n");
            if (head_end == std::string::npos || raw.size() < 12 ||
                raw.compare(0, 5, "HTTP/") != 0 ||
                std::atoi(raw.c_str() + 9) != 200)
                return;
            client_http_ok[idx] = 1;
            const std::string rest = raw.substr(head_end + 4);
            bool identical = true;
            std::size_t pos = 0;
            while (pos < rest.size()) {
                std::size_t nl = rest.find('\n', pos);
                if (nl == std::string::npos)
                    nl = rest.size();
                const std::string record = rest.substr(pos, nl - pos);
                pos = nl + 1;
                if (record.empty())
                    continue;
                ++client_records[idx];
                const json::Value v = json::parse(record);
                if (v.contains("cache_hit") &&
                    v.at("cache_hit").asBool())
                    ++churn_cache_hits;
                if (canonicalRecord(record) !=
                    offline_canonical.at(c.name()))
                    identical = false;
            }
            if (identical && client_records[idx] > 0)
                client_identical[idx] = 1;
        } catch (const std::exception &) {
            // transport failure: client_http_ok stays 0
        }
    };

    const double churn_t0 = nowSeconds();
    for (int wave = 0; wave < churn_waves; ++wave) {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(wave_size));
        for (int j = 0; j < wave_size; ++j)
            threads.emplace_back(client, wave * wave_size + j);
        for (std::thread &t : threads)
            t.join();
    }
    const double churn_seconds = nowSeconds() - churn_t0;

    // Drain exactly as SIGTERM would (the handler calls
    // requestDrain); run() must come back with a clean verdict.
    server.requestDrain();
    server_thread.join();
    const net::NetStats churn_net = server.netStats();

    int churn_failures = 0;
    bool exactly_once_per_conn = true;
    bool churn_identical_all = true;
    std::vector<double> churn_latencies;
    for (int i = 0; i < churn_clients; ++i) {
        if (!client_http_ok[i]) {
            ++churn_failures;
            exactly_once_per_conn = false;
            continue;
        }
        if (client_records[i] != 1)
            exactly_once_per_conn = false;
        if (!client_identical[i])
            churn_identical_all = false;
        churn_latencies.push_back(client_latency[i]);
    }
    std::sort(churn_latencies.begin(), churn_latencies.end());
    const double churn_p50 = percentile(churn_latencies, 0.50);
    const double churn_p90 = percentile(churn_latencies, 0.90);
    const double churn_p99 = percentile(churn_latencies, 0.99);
    const double churn_pmax =
        churn_latencies.empty() ? 0.0 : churn_latencies.back();
    // Machine-independent latency gate: p99 end-to-end client time
    // over the mean sequential per-job compile time.
    const double churn_p99_normalized =
        churn_p99 /
        (sequential_seconds / static_cast<double>(total_jobs));
    const bool churn_ok = churn_failures == 0 &&
                          exactly_once_per_conn &&
                          churn_identical_all && churn_drained_clean;
    if (!churn_identical_all)
        outputs_identical = false;
    std::printf(
        "\nchurn: %d clients (%d waves x %d), %.3f s, %llu cache "
        "hits\n"
        "       latency p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms "
        "(p99 normalized %.3f)\n"
        "       failures %d; one record per connection: %s; outputs "
        "%s; drain %s\n",
        churn_clients, churn_waves, wave_size, churn_seconds,
        static_cast<unsigned long long>(churn_cache_hits.load()),
        churn_p50 * 1e3, churn_p90 * 1e3, churn_p99 * 1e3,
        churn_pmax * 1e3, churn_p99_normalized, churn_failures,
        exactly_once_per_conn ? "yes" : "NO",
        churn_identical_all ? "identical to offline" : "MISMATCHED",
        churn_drained_clean ? "clean" : "FORCED");

    // ------------------------------------------------- JSON dump
    json::Object doc;
    doc["schema"] = "zac.perf_service.v4";
    doc["arch"] = arch.name();
    doc["fast_mode"] = fast;
    doc["chaos_mode"] = chaos_mode;
    doc["hardware_concurrency"] = static_cast<std::int64_t>(hw);
    doc["rounds"] = rounds;
    doc["jobs_per_round"] = jobs_per_round;
    doc["total_jobs"] = total_jobs;
    doc["sequential_seconds"] = sequential_seconds;
    doc["sequential_jobs_per_second"] = sequential_jps;
    doc["scaling"] = std::move(scaling_rows);
    doc["max_workers"] = max_workers;
    doc["parallel_seconds_at_max"] = parallel_seconds_at_max;
    doc["scaling_overhead"] = scaling_overhead;
    json::Array ratio_rows;
    for (double r : overhead_ratios)
        ratio_rows.push_back(r);
    doc["scaling_overhead_repeats"] = json::Object{
        {"jobs", overhead_passes * jobs_per_round},
        {"ratios", std::move(ratio_rows)},
    };
    doc["streamed_vs_dom"] = json::Object{
        {"circuits", jobs_per_round},
        {"identical", streamed_vs_dom_identical},
    };
    doc["cache"] = json::Object{
        {"submitted", static_cast<std::int64_t>(cache_stats.hits +
                                                cache_stats.misses)},
        {"hits", static_cast<std::int64_t>(cache_stats.hits)},
        {"misses", static_cast<std::int64_t>(cache_stats.misses)},
        {"hit_rate", cache_stats.hitRate()},
        {"entries", cache_stats.entries},
        {"second_round_all_hits", second_all_hits},
    };
    doc["chaos"] = json::Object{
        {"soak_rounds", soak_rounds},
        {"jobs", static_cast<std::int64_t>(soak_ids.size())},
        {"fault_plan",
         json::Object{
             {"seed", static_cast<std::int64_t>(plan.seed)},
             {"throw_rate", plan.throw_rate},
             {"cancel_rate", plan.cancel_rate},
             {"stall_rate", plan.stall_rate},
         }},
        {"done", static_cast<std::int64_t>(n_done)},
        {"cancelled", static_cast<std::int64_t>(n_cancelled)},
        {"timed_out", static_cast<std::int64_t>(n_timed_out)},
        {"failed", static_cast<std::int64_t>(n_failed)},
        {"overloaded", static_cast<std::int64_t>(n_overloaded)},
        {"transient_failures",
         static_cast<std::int64_t>(soak_stats.transient_failures)},
        {"retries", static_cast<std::int64_t>(soak_stats.retries)},
        {"retries_exhausted",
         static_cast<std::int64_t>(soak_stats.retries_exhausted)},
        {"coalesced_served",
         static_cast<std::int64_t>(soak_stats.coalesced_served)},
        {"coalesced_requeued",
         static_cast<std::int64_t>(soak_stats.coalesced_requeued)},
        {"snapshot_records_written",
         static_cast<std::int64_t>(
             soak_stats.snapshot_records_written)},
        {"snapshot_records_loaded",
         static_cast<std::int64_t>(warm_load.records_loaded)},
        {"warm_cache_hits", static_cast<std::int64_t>(warm_hits)},
        {"terminal_records_exactly_once", exactly_once},
        {"outputs_identical", chaos_identical &&
                                  warm_mismatches == 0},
        {"warm_start_served_from_snapshot",
         warm_served_from_snapshot},
        {"corruption_tolerated", corruption_tolerated},
        {"corruption", std::move(corruption_rows)},
    };
    doc["churn"] = json::Object{
        {"clients", churn_clients},
        {"waves", churn_waves},
        {"wave_size", wave_size},
        {"seconds", churn_seconds},
        {"failures", churn_failures},
        {"connections_accepted",
         static_cast<std::int64_t>(churn_net.connections_accepted)},
        {"records_streamed",
         static_cast<std::int64_t>(churn_net.records_streamed)},
        {"cache_hits",
         static_cast<std::int64_t>(churn_cache_hits.load())},
        {"latency_p50_seconds", churn_p50},
        {"latency_p90_seconds", churn_p90},
        {"latency_p99_seconds", churn_p99},
        {"latency_max_seconds", churn_pmax},
        {"latency_p99_normalized", churn_p99_normalized},
        {"exactly_once_per_connection", exactly_once_per_conn},
        {"outputs_identical_offline", churn_identical_all},
        {"drained_clean", churn_drained_clean},
    };
    doc["outputs_identical"] = outputs_identical;
    try {
        json::writeFile(out_path, json::Value(std::move(doc)));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());

    return (outputs_identical && streamed_vs_dom_identical &&
            second_all_hits && chaos_ok && churn_ok)
               ? 0
               : 1;
}
