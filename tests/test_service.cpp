/**
 * @file
 * Unit and end-to-end tests for the batch compile service: the
 * weighted-lane job queue, the content-addressed result cache and its
 * key components, the streaming ZAIR writer, the JSONL protocol, the
 * batch manifest, and the CompileService engine itself (sharding,
 * cache hits, cancellation, timeout, determinism).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "arch/serialize.hpp"
#include "circuit/generators.hpp"
#include "common/logging.hpp"
#include "service/cache_store.hpp"
#include "service/fault_injection.hpp"
#include "service/lanes.hpp"
#include "service/manifest.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "zair/serialize.hpp"

namespace zac
{
namespace
{

using service::CacheKey;
using service::CompileService;
using service::CompileTarget;
using service::FaultPlan;
using service::JobRecord;
using service::JobStatus;
using service::ResultCache;
using service::SnapshotCorruption;
using service::SnapshotLoadStats;
using service::WeightedLaneQueue;

// ------------------------------------------------------- job queue

TEST(LaneQueue, WeightedRoundRobinAcrossLanes)
{
    // Lane 0 weight 2, lane 1 weight 1: the drain pattern over full
    // lanes must serve two from lane 0 per one from lane 1.
    WeightedLaneQueue<int> q({2, 1});
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(q.push(0, /*client=*/1, 100 + i));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.push(1, /*client=*/2, 200 + i));

    std::vector<int> order;
    while (auto v = q.tryPop())
        order.push_back(*v);
    const std::vector<int> expected{100, 101, 200, 102, 103,
                                    201, 104, 105, 202};
    EXPECT_EQ(order, expected);
}

TEST(LaneQueue, RoundRobinAcrossClientsWithinLane)
{
    WeightedLaneQueue<int> q({1});
    // Client 7 floods first; client 8 arrives later with two items.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.push(0, 7, i));
    ASSERT_TRUE(q.push(0, 8, 100));
    ASSERT_TRUE(q.push(0, 8, 101));

    std::vector<int> order;
    while (auto v = q.tryPop())
        order.push_back(*v);
    // One item per client per turn: 7, 8 alternate until 8 runs dry.
    const std::vector<int> expected{0, 100, 1, 101, 2, 3};
    EXPECT_EQ(order, expected);
}

TEST(LaneQueue, CloseDrainsRemainingItemsThenSignalsEnd)
{
    WeightedLaneQueue<int> q({1});
    q.push(0, 1, 1);
    q.push(0, 1, 2);
    q.close();
    EXPECT_FALSE(q.push(0, 1, 3)); // rejected after close
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(LaneQueue, BlockingPopWakesOnPush)
{
    WeightedLaneQueue<int> q({1});
    std::atomic<int> got{0};
    std::thread consumer([&] {
        const std::optional<int> v = q.pop();
        got.store(v.value_or(-1));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(0, 1, 42);
    consumer.join();
    EXPECT_EQ(got.load(), 42);
}

// ----------------------------------------------- cache key components

TEST(CacheKeyComponents, ArchitectureFingerprintIsStable)
{
    const Architecture a = presets::referenceZoned();
    const Architecture b = presets::referenceZoned();
    EXPECT_EQ(architectureFingerprint(a), architectureFingerprint(b));
    EXPECT_NE(architectureFingerprint(a),
              architectureFingerprint(presets::multiZoneArch1()));
    EXPECT_NE(architectureFingerprint(presets::referenceZoned(1)),
              architectureFingerprint(presets::referenceZoned(2)));
}

TEST(CacheKeyComponents, OptionsDigestCoversEveryKnob)
{
    const ZacOptions base;
    EXPECT_EQ(base.digest(), ZacOptions().digest());
    EXPECT_NE(base.digest(), ZacOptions::vanilla().digest());
    EXPECT_NE(ZacOptions::dynPlace().digest(),
              ZacOptions::dynPlaceReuse().digest());
    ZacOptions seeded;
    seeded.seed = 2;
    EXPECT_NE(base.digest(), seeded.digest());
    ZacOptions iters;
    iters.sa_iterations = 999;
    EXPECT_NE(base.digest(), iters.digest());
    ZacOptions alpha;
    alpha.lookahead_alpha = 0.2;
    EXPECT_NE(base.digest(), alpha.digest());
    ZacOptions direct;
    direct.use_direct_reuse = true;
    EXPECT_NE(base.digest(), direct.digest());
    ZacOptions khop;
    khop.candidate_k = 3;
    EXPECT_NE(base.digest(), khop.digest());
    ZacOptions seeds;
    seeds.sa_num_seeds = 4;
    EXPECT_NE(base.digest(), seeds.digest());
    // The SA worker count never changes the chosen placement, so it
    // must NOT split cache entries.
    ZacOptions threads;
    threads.sa_threads = 3;
    EXPECT_EQ(base.digest(), threads.digest());
}

// ---------------------------------------------------- result cache

std::shared_ptr<const ZacStreamedResult>
dummyResult(double marker)
{
    // Minimal but internally consistent: the snapshot loader validates
    // the circuit-name byte span against the serialized bytes, so even
    // a dummy needs real ones.
    auto r = std::make_shared<ZacStreamedResult>();
    r->compile_seconds = marker;
    r->circuit_name = "dummy";
    r->arch_name = "arch";
    ZairProgram p;
    p.circuit_name = r->circuit_name;
    p.arch_name = r->arch_name;
    r->program_json = zairProgramToJson(p).dump();
    const ZairNameSpan span =
        zairCompactNameSpan(r->circuit_name, r->arch_name);
    r->name_off = span.offset;
    r->name_len = span.length;
    return r;
}

TEST(ResultCacheTest, InsertFindAndStats)
{
    ResultCache cache(8, 2);
    const CacheKey k{1, 2, 3};
    EXPECT_EQ(cache.find(k), nullptr);
    cache.insert(k, dummyResult(1.0));
    auto hit = cache.find(k);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->compile_seconds, 1.0);
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ResultCacheTest, FirstInsertWinsOnRace)
{
    ResultCache cache(8, 1);
    const CacheKey k{9, 9, 9};
    auto first = cache.insert(k, dummyResult(1.0));
    auto second = cache.insert(k, dummyResult(2.0));
    EXPECT_EQ(first.get(), second.get()); // incumbent kept
    EXPECT_EQ(second->compile_seconds, 1.0);
}

TEST(ResultCacheTest, LruEvictionAtCapacity)
{
    ResultCache cache(2, 1); // one shard, two entries
    const CacheKey a{1, 0, 0}, b{2, 0, 0}, c{3, 0, 0};
    cache.insert(a, dummyResult(1.0));
    cache.insert(b, dummyResult(2.0));
    ASSERT_NE(cache.find(a), nullptr); // refresh a: b is now LRU
    cache.insert(c, dummyResult(3.0)); // evicts b
    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisables)
{
    ResultCache cache(0);
    EXPECT_FALSE(cache.enabled());
    const CacheKey k{1, 2, 3};
    cache.insert(k, dummyResult(1.0));
    EXPECT_EQ(cache.find(k), nullptr);
    EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------- streaming ZAIR writer

/**
 * A hand-built program no compile produces: every instruction and
 * machine kind, each vector field empty somewhere, negative ids and
 * coordinates, and the numbers whose formatting is easiest to get
 * wrong (-0.0, the 9e15 integer cutoff, repeating fractions,
 * subnormals, huge magnitudes).
 */
ZairProgram
edgeCaseProgram()
{
    const double edge[] = {-0.0,    9e15 - 1, 9e15,    9e15 + 1,
                           -9e15,   0.1,      1.0 / 3, 5e-324,
                           1e-320,  1e300,    -2.5,    123456789.0};
    const std::vector<double> some(std::begin(edge), std::end(edge));
    const std::vector<int> ids = {0, -1, 7, 2147483647, -2147483647};
    const std::vector<QLoc> locs = {{0, 0, 0, 0}, {-1, -1, -3, -4},
                                    {2147483647, 1, 99, 19}};

    ZairProgram p;
    p.circuit_name = "edge \"case\"\n\t";
    p.arch_name = "arch\\zoned";
    p.num_qubits = 3;
    const auto add = [&](ZairKind kind, double t0, double t1) {
        ZairInstr in;
        in.kind = kind;
        in.begin_time_us = t0;
        in.end_time_us = t1;
        p.instrs.push_back(in);
        return &p.instrs.back();
    };
    add(ZairKind::Init, 0.0, -0.0)->init_locs = locs;
    add(ZairKind::Init, 5e-324, 1e-320);
    ZairInstr *g = add(ZairKind::OneQGate, 0.1, 1.0 / 3);
    g->unitary = {-0.0, 1.0 / 3, 5e-324};
    g->locs = locs;
    add(ZairKind::OneQGate, 9e15 - 1, 9e15 + 1)->unitary = {0.1, 1e300,
                                                            -1e-320};
    ZairInstr *r = add(ZairKind::Rydberg, 9e15, 1e300);
    r->zone_id = -3;
    r->gate_qubits = ids;
    add(ZairKind::Rydberg, -2.5, 2.5)->zone_id = 2147483647;
    add(ZairKind::RearrangeJob, -9e15, 0.0)->aod_id = -1;
    ZairInstr *job = add(ZairKind::RearrangeJob, 1e-320, 9e15);
    job->aod_id = 4;
    job->begin_locs = locs;
    job->end_locs = {locs[1]};
    for (MachineKind kind : {MachineKind::Activate, MachineKind::Move,
                             MachineKind::Deactivate}) {
        MachineInstr full;
        full.kind = kind;
        full.row_id = ids;
        full.col_id = {ids[1]};
        full.row_y = some;
        full.col_x = {-0.0, -1e300};
        full.row_y_begin = some;
        full.row_y_end = {-9e15 + 1};
        full.col_x_begin = {0.1, -0.1};
        full.col_x_end = some;
        full.duration_us = 1.0 / 3;
        job->insts.push_back(full);
        MachineInstr empty;
        empty.kind = kind;
        empty.duration_us = -0.0;
        job->insts.push_back(empty);
    }
    return p;
}

TEST(ZairStreamWriterTest, ByteIdenticalToDomDump)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"));
    for (const ZairProgram &p : {r.program, edgeCaseProgram()}) {
        for (int indent : {0, 2, 4}) {
            std::ostringstream streamed;
            streamZairProgram(streamed, p, indent);
            EXPECT_EQ(streamed.str(), zairProgramToJson(p).dump(indent))
                << p.circuit_name << " indent=" << indent;
        }
    }
}

TEST(ZairStreamWriterTest, EmptyProgramMatchesDomDump)
{
    ZairProgram p;
    p.circuit_name = "empty";
    p.arch_name = "none";
    p.num_qubits = 0;
    for (int indent : {0, 2}) {
        std::ostringstream streamed;
        streamZairProgram(streamed, p, indent);
        EXPECT_EQ(streamed.str(), zairProgramToJson(p).dump(indent));
    }
}

TEST(ZairStreamWriterTest, StreamedOutputRoundTrips)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"));
    std::ostringstream streamed;
    streamZairProgram(streamed, r.program, 0);
    const ZairProgram loaded =
        zairProgramFromJson(json::parse(streamed.str()));
    EXPECT_EQ(loaded.num_qubits, r.program.num_qubits);
    EXPECT_EQ(loaded.instrs.size(), r.program.instrs.size());
    EXPECT_DOUBLE_EQ(loaded.makespanUs(), r.program.makespanUs());
}

// ------------------------------------------------------- protocol

TEST(Protocol, ResultRecordShape)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    JobRecord rec;
    rec.job_id = 42;
    rec.name = "ghz_n23";
    rec.status = JobStatus::Done;
    rec.cache_hit = true;
    rec.circuit_hash = 0xdeadbeefull;
    rec.result = std::make_shared<const ZacStreamedResult>(
        compiler.compileStreamed(bench_circuits::paperBenchmark("ghz_n23")));

    const std::string line =
        service::toJsonl(service::makeJobRecord(rec, "ref", true));
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1); // one line
    const json::Value v = json::parse(line);
    EXPECT_EQ(v.at("type").asString(), "result");
    EXPECT_EQ(v.at("job_id").asInt(), 42);
    EXPECT_EQ(v.at("status").asString(), "done");
    EXPECT_TRUE(v.at("cache_hit").asBool());
    EXPECT_EQ(v.at("circuit_hash").asString(), "0x00000000deadbeef");
    EXPECT_TRUE(v.contains("phase_seconds"));
    EXPECT_TRUE(v.contains("stats"));
    EXPECT_TRUE(v.contains("zair"));
    // The embedded program must parse back.
    const ZairProgram p = zairProgramFromJson(v.at("zair"));
    EXPECT_EQ(p.num_qubits, rec.result->num_qubits);

    // The streaming emitter produces the identical line without
    // copying the program into a DOM.
    for (bool with_zair : {true, false}) {
        std::ostringstream streamed;
        service::writeJobRecordJsonl(streamed, rec, "ref", with_zair);
        EXPECT_EQ(streamed.str(),
                  service::toJsonl(service::makeJobRecord(
                      rec, "ref", with_zair)))
            << "with_zair=" << with_zair;
    }
}

TEST(Protocol, ErrorRecordShape)
{
    JobRecord rec;
    rec.job_id = 7;
    rec.name = "bad";
    rec.status = JobStatus::TimedOut;
    const json::Value v =
        json::parse(service::toJsonl(service::makeJobRecord(
            rec, "ref", true)));
    EXPECT_EQ(v.at("type").asString(), "error");
    EXPECT_EQ(v.at("status").asString(), "timed_out");
    EXPECT_FALSE(v.contains("zair"));
}

// ------------------------------------------------------- manifest

TEST(ManifestTest, ParsesTargetsAndJobs)
{
    const std::string doc = R"({
      "targets": [
        {"name": "a", "arch": "reference", "preset": "full", "seed": 3,
         "sa_num_seeds": 3, "sa_threads": 2},
        {"name": "b", "arch": "arch1", "preset": "vanilla"}
      ],
      "jobs": [
        {"circuit": "ghz_n23", "target": "b", "repeat": 2,
         "timeout_seconds": 1.5, "seed": 11},
        {"circuit": "qft_n18"}
      ]
    })";
    const service::Manifest m =
        service::manifestFromJson(json::parse(doc));
    ASSERT_EQ(m.targets.size(), 2u);
    EXPECT_EQ(m.targets[0].opts.seed, 3u);
    EXPECT_EQ(m.targets[0].opts.sa_num_seeds, 3);
    EXPECT_EQ(m.targets[0].opts.sa_threads, 2);
    EXPECT_FALSE(m.targets[1].opts.use_sa_init);
    // Inside the service the SA seed batch defaults to one thread
    // (the job workers already saturate the cores).
    EXPECT_EQ(m.targets[1].opts.sa_threads, 1);
    ASSERT_EQ(m.jobs.size(), 2u);
    EXPECT_EQ(m.jobs[0].target, 1);
    EXPECT_EQ(m.jobs[0].repeat, 2);
    EXPECT_DOUBLE_EQ(m.jobs[0].timeout_seconds, 1.5);
    ASSERT_TRUE(m.jobs[0].seed.has_value());
    EXPECT_EQ(*m.jobs[0].seed, 11u);
    EXPECT_EQ(m.jobs[1].target, 0);
    EXPECT_EQ(m.jobs[1].circuit.name(), "qft_n18");
}

TEST(ManifestTest, DefaultTargetAndErrors)
{
    const service::Manifest m = service::manifestFromJson(
        json::parse(R"({"jobs": [{"circuit": "ghz_n23"}]})"));
    ASSERT_EQ(m.targets.size(), 1u);
    EXPECT_EQ(m.targets[0].name, "default");

    EXPECT_THROW(service::manifestFromJson(json::parse("{}")),
                 FatalError);
    EXPECT_THROW(
        service::manifestFromJson(json::parse(
            R"({"jobs": [{"circuit": "ghz_n23", "target": "nope"}]})")),
        FatalError);
    EXPECT_THROW(service::manifestFromJson(json::parse(
                     R"({"jobs": [{"circuit": "no_such_bench"}]})")),
                 FatalError);
}

// --------------------------------------------- compile control hooks

TEST(CompileControlTest, PreCancelledCompileThrows)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    std::atomic<bool> cancel{true};
    CompileControl control;
    control.cancel = &cancel;
    EXPECT_THROW(compiler.compile(
                     bench_circuits::paperBenchmark("ghz_n23"),
                     control),
                 CompileCancelled);
}

TEST(CompileControlTest, ExpiredDeadlineThrowsTimedOut)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    CompileControl control;
    control.deadline = CompileControl::Clock::now() -
                       std::chrono::milliseconds(1);
    try {
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"),
                         control);
        FAIL() << "expected CompileCancelled";
    } catch (const CompileCancelled &e) {
        EXPECT_TRUE(e.timedOut());
    }
}

TEST(CompileControlTest, PhaseHookSeesPipelineOrder)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    std::vector<std::string> phases;
    CompileControl control;
    control.on_phase = [&](const char *p) { phases.push_back(p); };
    (void)compiler.compile(bench_circuits::paperBenchmark("ghz_n23"),
                           control);
    const std::vector<std::string> expected{
        "preprocess", "sa", "placement", "scheduling", "fidelity"};
    EXPECT_EQ(phases, expected);
}

// --------------------------------------------------- compile service

/** Collect all records, keyed by job id. */
struct RecordCollector
{
    std::map<std::uint64_t, JobRecord> records;

    CompileService::ResultSink
    sink()
    {
        // The service serializes sink calls; no locking needed.
        return [this](const JobRecord &r) { records[r.job_id] = r; };
    }
};

std::string
signatureOf(const ZacResult &r)
{
    std::ostringstream ss;
    streamZairProgram(ss, r.program, 0);
    return ss.str();
}

/** The streamed result IS its compact bytes (name included). */
std::string
signatureOf(const ZacStreamedResult &r)
{
    return r.program_json;
}

TEST(CompileServiceTest, ShardedResultsMatchSequential)
{
    const Architecture arch = presets::referenceZoned();
    const ZacOptions opts = ZacOptions::full();
    const std::vector<std::string> names{"ghz_n23", "qft_n18",
                                         "ising_n42", "wstate_n27"};

    const ZacCompiler sequential(arch, opts);
    std::map<std::string, std::string> expected;
    std::map<std::string, double> expected_fid;
    for (const std::string &n : names) {
        const ZacResult r =
            sequential.compile(bench_circuits::paperBenchmark(n));
        expected[n] = signatureOf(r);
        expected_fid[n] = r.fidelity.total;
    }

    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 4;
    config.cache_capacity = 0;
    CompileService svc({CompileTarget{"ref", arch, opts}}, config,
                       collector.sink());
    for (int rep = 0; rep < 3; ++rep)
        for (const std::string &n : names)
            svc.submit({n, bench_circuits::paperBenchmark(n), 0, {},
                        0.0});
    svc.drain();
    svc.shutdown();

    ASSERT_EQ(collector.records.size(), names.size() * 3);
    for (const auto &[id, rec] : collector.records) {
        ASSERT_EQ(rec.status, JobStatus::Done) << rec.error;
        EXPECT_FALSE(rec.cache_hit);
        ASSERT_NE(rec.result, nullptr);
        EXPECT_EQ(signatureOf(*rec.result), expected[rec.name]);
        EXPECT_EQ(rec.result->fidelity.total, expected_fid[rec.name]);
        EXPECT_GE(rec.queue_seconds, 0.0);
        EXPECT_GE(rec.service_seconds, rec.queue_seconds);
    }
}

TEST(CompileServiceTest, ResubmissionHitsCacheWithIdenticalResult)
{
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    config.cache_capacity = 64;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());

    const std::uint64_t first =
        svc.submit({"ghz", bench_circuits::paperBenchmark("ghz_n23"),
                    0, {}, 0.0});
    svc.drain();
    const std::uint64_t second =
        svc.submit({"ghz", bench_circuits::paperBenchmark("ghz_n23"),
                    0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    const JobRecord &a = collector.records.at(first);
    const JobRecord &b = collector.records.at(second);
    EXPECT_FALSE(a.cache_hit);
    EXPECT_TRUE(b.cache_hit);
    // The cache serves the exact same immutable object.
    EXPECT_EQ(a.result.get(), b.result.get());
    EXPECT_EQ(a.circuit_hash, b.circuit_hash);

    const ResultCache::Stats stats = svc.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(CompileServiceTest, CacheHitUnderDifferentNameRebindsMetadata)
{
    // contentHash() is name-blind, so a content-equal circuit under a
    // new name hits the cache — but the served result must still be
    // bit-identical to a fresh compile of *this* submission,
    // including the name metadata embedded in the ZAIR program.
    const Architecture arch = presets::referenceZoned();
    Circuit renamed = bench_circuits::paperBenchmark("ghz_n23");
    renamed.setName("ghz_n23_alias");

    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 16;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const std::uint64_t original = svc.submit(
        {"", bench_circuits::paperBenchmark("ghz_n23"), 0, {}, 0.0});
    svc.drain();
    const std::uint64_t alias = svc.submit({"", renamed, 0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    const JobRecord &a = collector.records.at(original);
    const JobRecord &b = collector.records.at(alias);
    ASSERT_TRUE(b.cache_hit);
    EXPECT_EQ(a.circuit_hash, b.circuit_hash);
    EXPECT_EQ(b.result->circuit_name, "ghz_n23_alias");
    // Everything — the spliced name literal included — matches a
    // fresh compile byte for byte (signatureOf compares the full
    // serialized bytes, name and all).
    const ZacCompiler sequential(arch, ZacOptions::full());
    const ZacResult fresh = sequential.compile(renamed);
    EXPECT_EQ(signatureOf(*b.result), signatureOf(fresh));
    EXPECT_EQ(b.result->fidelity.total, fresh.fidelity.total);
}

TEST(CompileServiceTest, SeedOverrideChangesKeyDeterministically)
{
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    config.cache_capacity = 64;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());

    // Drain between submissions so every cache expectation below is
    // deterministic (concurrent equal-key jobs may legitimately race
    // for which one misses).
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t base = svc.submit({"a", c, 0, {}, 0.0});
    svc.drain();
    const std::uint64_t seeded =
        svc.submit({"b", c, 0, std::uint64_t{99}, 0.0});
    svc.drain();
    // A different seed must not be served from the base entry...
    EXPECT_FALSE(collector.records.at(seeded).cache_hit);
    // ...but resubmitting the same seed hits.
    const std::uint64_t seeded_again =
        svc.submit({"c", c, 0, std::uint64_t{99}, 0.0});
    svc.drain();
    EXPECT_TRUE(collector.records.at(seeded_again).cache_hit);
    // Seeded results are deterministic: identical across submissions.
    EXPECT_EQ(signatureOf(*collector.records.at(seeded).result),
              signatureOf(*collector.records.at(seeded_again).result));
    // ...and equal to an offline compile whose options carry the seed.
    ZacOptions seeded_opts = ZacOptions::full();
    seeded_opts.seed = 99;
    EXPECT_EQ(signatureOf(*collector.records.at(seeded).result),
              ZacCompiler(arch, seeded_opts).compileStreamed(c).program_json);
    // And the base (unseeded) result was not disturbed.
    EXPECT_EQ(collector.records.at(base).status, JobStatus::Done);
    svc.shutdown();
}

TEST(CompileServiceTest, CancelBeforePickupDeliversCancelled)
{
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());

    // Occupy the single worker, then cancel a queued job before it is
    // picked up.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(svc.submit(
            {"job" + std::to_string(i),
             bench_circuits::paperBenchmark("qft_n18"), 0, {}, 0.0}));
    const bool accepted = svc.cancel(ids.back());
    svc.drain();
    svc.shutdown();

    // cancel() raced the worker: either it landed (Cancelled) or the
    // job finished first (cancel returned false).
    const JobRecord &last = collector.records.at(ids.back());
    if (accepted && last.status == JobStatus::Cancelled) {
        EXPECT_EQ(last.result, nullptr);
    } else {
        EXPECT_EQ(last.status, JobStatus::Done);
    }
    EXPECT_FALSE(svc.cancel(ids.front())); // long gone
}

TEST(CompileServiceTest, ZeroTimeoutTimesOut)
{
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const std::uint64_t id = svc.submit(
        {"t", bench_circuits::paperBenchmark("qft_n18"), 0, {},
         1e-9});
    svc.drain();
    svc.shutdown();
    EXPECT_EQ(collector.records.at(id).status, JobStatus::TimedOut);
}

TEST(CompileServiceTest, TimeoutPastTheClockRangeMeansNoDeadline)
{
    // submit time + 1e10 s overflows the clock's int64 nanoseconds; a
    // deadline the clock cannot represent is no deadline at all.
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n40");
    const std::uint64_t id = svc.submit({"t", c, 0, {}, 1e10});
    const std::uint64_t far = svc.submit({"u", c, 0, {}, 1e300});
    svc.drain();
    svc.shutdown();
    EXPECT_EQ(collector.records.at(id).status, JobStatus::Done)
        << collector.records.at(id).error;
    EXPECT_EQ(collector.records.at(far).status, JobStatus::Done)
        << collector.records.at(far).error;
}

TEST(CompileServiceTest, OversizedCircuitFailsCleanly)
{
    // More qubits than the reference arch has storage traps: the
    // compile fatals, the service reports Failed and keeps running.
    const Architecture arch = presets::multiZoneArch1(); // 120 traps
    Circuit big(121, "too_big");
    for (int q = 1; q < 121; ++q)
        big.cx(0, q);

    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    CompileService svc(
        {CompileTarget{"a1", arch, ZacOptions::full()}}, config,
        collector.sink());
    const std::uint64_t bad = svc.submit({"big", big, 0, {}, 0.0});
    const std::uint64_t good = svc.submit(
        {"ok", bench_circuits::paperBenchmark("ghz_n23"), 0, {}, 0.0});
    svc.drain();
    svc.shutdown();
    EXPECT_EQ(collector.records.at(bad).status, JobStatus::Failed);
    EXPECT_FALSE(collector.records.at(bad).error.empty());
    EXPECT_EQ(collector.records.at(good).status, JobStatus::Done);
}

TEST(CompileServiceTest, SubmitAfterShutdownThrows)
{
    const Architecture arch = presets::referenceZoned();
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, {},
        nullptr);
    svc.shutdown();
    EXPECT_THROW(svc.submit({"x",
                             bench_circuits::paperBenchmark("ghz_n23"),
                             0, {}, 0.0}),
                 FatalError);
}

TEST(CompileServiceTest, InvalidTargetRejected)
{
    const Architecture arch = presets::referenceZoned();
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, {},
        nullptr);
    EXPECT_THROW(svc.submit({"x",
                             bench_circuits::paperBenchmark("ghz_n23"),
                             1, {}, 0.0}),
                 FatalError);
    svc.shutdown();
}

// ------------------------------------------- job status & protocol

TEST(Protocol, JobStatusNamesRoundTrip)
{
    const JobStatus all[] = {JobStatus::Done, JobStatus::Cancelled,
                             JobStatus::TimedOut, JobStatus::Failed,
                             JobStatus::Overloaded};
    for (const JobStatus s : all) {
        const char *name = service::jobStatusName(s);
        const auto back = service::jobStatusFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, s) << name;
    }
    EXPECT_STREQ(service::jobStatusName(JobStatus::Overloaded),
                 "overloaded");
    EXPECT_FALSE(service::jobStatusFromName("bogus").has_value());
    EXPECT_FALSE(service::jobStatusFromName("").has_value());
}

TEST(Protocol, EveryStatusAndAttemptsSurviveSerialization)
{
    const JobStatus all[] = {JobStatus::Done, JobStatus::Cancelled,
                             JobStatus::TimedOut, JobStatus::Failed,
                             JobStatus::Overloaded};
    for (const JobStatus s : all) {
        JobRecord rec;
        rec.job_id = 9;
        rec.name = "x";
        rec.status = s;
        rec.attempts = 3;
        if (s == JobStatus::Done)
            rec.result = std::make_shared<const ZacStreamedResult>();
        const json::Value v = json::parse(service::toJsonl(
            service::makeJobRecord(rec, "t", /*with_zair=*/false)));
        EXPECT_EQ(v.at("type").asString(),
                  s == JobStatus::Done ? "result" : "error");
        EXPECT_EQ(v.at("status").asString(),
                  service::jobStatusName(s));
        EXPECT_EQ(service::jobStatusFromName(
                      v.at("status").asString()),
                  s);
        EXPECT_EQ(v.at("attempts").asInt(), 3);
    }
}

// ------------------------------------------------- fault injection

TEST(FaultPlanTest, DecisionsAreDeterministicAndSeeded)
{
    FaultPlan a;
    a.seed = 42;
    a.throw_rate = 0.5;
    a.cancel_rate = 0.5;
    a.stall_rate = 0.5;
    FaultPlan b = a;
    FaultPlan other = a;
    other.seed = 43;
    int differs = 0;
    for (std::uint64_t job = 1; job <= 64; ++job) {
        for (int attempt = 1; attempt <= 3; ++attempt) {
            EXPECT_EQ(a.shouldThrow(job, attempt),
                      b.shouldThrow(job, attempt));
            EXPECT_EQ(a.shouldCancel(job, attempt),
                      b.shouldCancel(job, attempt));
            EXPECT_EQ(a.shouldStall(job, attempt),
                      b.shouldStall(job, attempt));
            EXPECT_EQ(a.cancelPhase(job, attempt),
                      b.cancelPhase(job, attempt));
            EXPECT_GE(a.cancelPhase(job, attempt), 0);
            EXPECT_LT(a.cancelPhase(job, attempt), 5);
            if (a.shouldThrow(job, attempt) !=
                other.shouldThrow(job, attempt))
                ++differs;
        }
    }
    EXPECT_GT(differs, 0); // a different seed is a different plan

    FaultPlan off; // all rates zero
    EXPECT_FALSE(off.enabled());
    FaultPlan certain;
    certain.throw_rate = 1.0;
    certain.cancel_rate = 1.0;
    certain.stall_rate = 1.0;
    EXPECT_TRUE(certain.enabled());
    for (std::uint64_t job = 1; job <= 16; ++job) {
        EXPECT_FALSE(off.shouldThrow(job, 1));
        EXPECT_FALSE(off.shouldCancel(job, 1));
        EXPECT_FALSE(off.shouldStall(job, 1));
        EXPECT_TRUE(certain.shouldThrow(job, 1));
        EXPECT_TRUE(certain.shouldCancel(job, 1));
        EXPECT_TRUE(certain.shouldStall(job, 1));
    }
}

TEST(FaultPlanTest, FromEnvReadsAndClearsCleanly)
{
    const char *vars[] = {
        "ZAC_SERVICE_FAULT_SEED", "ZAC_SERVICE_FAULT_THROW_RATE",
        "ZAC_SERVICE_FAULT_CANCEL_RATE",
        "ZAC_SERVICE_FAULT_STALL_RATE", "ZAC_SERVICE_FAULT_STALL_MS"};
    for (const char *v : vars)
        ::unsetenv(v);
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());

    ::setenv("ZAC_SERVICE_FAULT_SEED", "123", 1);
    ::setenv("ZAC_SERVICE_FAULT_THROW_RATE", "0.25", 1);
    const auto plan = FaultPlan::fromEnv();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->seed, 123u);
    EXPECT_DOUBLE_EQ(plan->throw_rate, 0.25);
    EXPECT_DOUBLE_EQ(plan->cancel_rate, 0.0);
    EXPECT_DOUBLE_EQ(plan->stall_rate, 0.0);

    for (const char *v : vars)
        ::unsetenv(v);
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());
}

// -------------------------------------------------- retry/backoff

TEST(CompileServiceTest, TransientFailureRetriesThenSucceeds)
{
    // Brute-force a plan seed whose first job throws on attempt 1 but
    // not on attempt 2: the retry must recover and deliver Done.
    FaultPlan plan;
    plan.throw_rate = 0.5;
    bool found = false;
    for (std::uint64_t seed = 0; seed < 10000; ++seed) {
        plan.seed = seed;
        if (plan.shouldThrow(1, 1) && !plan.shouldThrow(1, 2)) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    config.max_retries = 2;
    config.retry_backoff_ms = 0.1;
    config.retry_backoff_max_ms = 1.0;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const std::uint64_t id = svc.submit(
        {"r", bench_circuits::paperBenchmark("ghz_n23"), 0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    const JobRecord &rec = collector.records.at(id);
    EXPECT_EQ(rec.status, JobStatus::Done) << rec.error;
    EXPECT_EQ(rec.attempts, 2); // one throw, one clean compile
    const CompileService::Stats stats = svc.stats();
    EXPECT_EQ(stats.transient_failures, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.retries_exhausted, 0u);
}

TEST(CompileServiceTest, RetriesExhaustedFailsWithAttemptCount)
{
    FaultPlan plan;
    plan.throw_rate = 1.0; // every attempt throws

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    config.max_retries = 2;
    config.retry_backoff_ms = 0.1;
    config.retry_backoff_max_ms = 1.0;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const std::uint64_t id = svc.submit(
        {"r", bench_circuits::paperBenchmark("ghz_n23"), 0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    const JobRecord &rec = collector.records.at(id);
    EXPECT_EQ(rec.status, JobStatus::Failed);
    EXPECT_EQ(rec.attempts, 3); // 1 + max_retries
    EXPECT_NE(rec.error.find("transient"), std::string::npos)
        << rec.error;
    const CompileService::Stats stats = svc.stats();
    EXPECT_EQ(stats.transient_failures, 3u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.retries_exhausted, 1u);
}

// ------------------------------------------------ in-flight dedup

TEST(CompileServiceTest, IdenticalInFlightJobsCoalesceOntoOneCompile)
{
    // A stalled leader holds its key in flight long enough for an
    // identical submission to park behind it: one compile, two Done
    // records, bit-identical bytes.
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 400.0;

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    config.cache_capacity = 16;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t leader = svc.submit({"dup", c, 0, {}, 0.0});
    // Let the leader reach the worker (and the stall) first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t waiter = svc.submit({"dup", c, 0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    const JobRecord &a = collector.records.at(leader);
    const JobRecord &b = collector.records.at(waiter);
    ASSERT_EQ(a.status, JobStatus::Done) << a.error;
    ASSERT_EQ(b.status, JobStatus::Done) << b.error;
    EXPECT_FALSE(a.cache_hit);
    EXPECT_TRUE(b.cache_hit); // served from the leader's compile
    EXPECT_EQ(b.attempts, 0); // no compile of its own
    EXPECT_EQ(signatureOf(*a.result), signatureOf(*b.result));
    EXPECT_EQ(svc.cacheStats().insertions, 1u);
    EXPECT_EQ(svc.stats().coalesced_served, 1u);
}

TEST(CompileServiceTest, WaiterIsRequeuedWhenLeaderIsCancelled)
{
    // Cancelling the leader must not leak its outcome onto a coalesced
    // waiter: the waiter is re-enqueued and compiles on its own.
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 400.0;

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    config.cache_capacity = 16;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t leader = svc.submit({"dup", c, 0, {}, 0.0});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t waiter = svc.submit({"dup", c, 0, {}, 0.0});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(svc.cancel(leader)); // lands mid-stall
    svc.drain();
    svc.shutdown();

    const JobRecord &a = collector.records.at(leader);
    const JobRecord &b = collector.records.at(waiter);
    EXPECT_EQ(a.status, JobStatus::Cancelled);
    ASSERT_EQ(b.status, JobStatus::Done) << b.error;
    EXPECT_FALSE(b.cache_hit); // compiled itself after the requeue
    EXPECT_EQ(svc.stats().coalesced_requeued, 1u);
    EXPECT_EQ(svc.stats().coalesced_served, 0u);
}

TEST(CompileServiceTest, CancelClientCancelsOnlyThatClientsJobs)
{
    // One stalled worker: client A has one job running and three
    // queued when it is cancelled; client B's job still compiles.
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 400.0;

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    constexpr std::uint64_t kClientA = 1, kClientB = 2;
    std::vector<std::uint64_t> a_jobs;
    for (int i = 0; i < 4; ++i)
        a_jobs.push_back(
            svc.submit({"a", c, 0, {}, 0.0, 0, kClientA}));
    const std::uint64_t b_job =
        svc.submit({"b", c, 0, {}, 0.0, 0, kClientB});
    // Let the first of A's jobs reach the worker (and the stall).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(svc.cancelClient(kClientA), 4u);
    svc.drain();
    svc.shutdown();

    for (std::uint64_t id : a_jobs) {
        const JobRecord &r = collector.records.at(id);
        EXPECT_EQ(r.status, JobStatus::Cancelled) << id;
        EXPECT_EQ(r.client, kClientA);
        EXPECT_EQ(r.result, nullptr);
    }
    const JobRecord &b = collector.records.at(b_job);
    EXPECT_EQ(b.status, JobStatus::Done) << b.error;
    EXPECT_EQ(b.client, kClientB);
    EXPECT_EQ(collector.records.size(), 5u);
    EXPECT_EQ(svc.stats().submitted, svc.stats().delivered);
    EXPECT_EQ(svc.cancelClient(kClientA), 0u); // nothing left to cancel
}

// ---------------------------------------------- admission control

TEST(CompileServiceTest, AdmissionHighWaterRejectsAsOverloaded)
{
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 400.0; // keep the first job undelivered

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    config.admission_high_water = 1;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t first = svc.submit({"a", c, 0, {}, 0.0});
    const std::uint64_t second = svc.submit({"b", c, 0, {}, 0.0});
    svc.drain();
    svc.shutdown();

    EXPECT_EQ(collector.records.at(first).status, JobStatus::Done);
    const JobRecord &rejected = collector.records.at(second);
    EXPECT_EQ(rejected.status, JobStatus::Overloaded);
    EXPECT_EQ(rejected.attempts, 0);
    EXPECT_EQ(rejected.result, nullptr);
    EXPECT_NE(rejected.error.find("overloaded"), std::string::npos)
        << rejected.error;
    EXPECT_EQ(svc.stats().overloaded, 1u);
    EXPECT_EQ(svc.stats().submitted, svc.stats().delivered);
}

// --------------------------------------------------- graceful drain

TEST(CompileServiceTest, DrainAndStopHonorsDeadlineByCancelling)
{
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 400.0;

    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 1;
    config.cache_capacity = 0;
    config.faults = plan;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t running = svc.submit({"a", c, 0, {}, 0.0});
    const std::uint64_t queued = svc.submit({"b", c, 0, {}, 0.0});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // The 50 ms deadline expires inside the 400 ms stall: the drain
    // must cancel cooperatively, still deliver every record, and
    // report the forced stop.
    EXPECT_FALSE(svc.drainAndStop(0.05));
    EXPECT_EQ(collector.records.size(), 2u);
    EXPECT_EQ(collector.records.at(running).status,
              JobStatus::Cancelled);
    EXPECT_EQ(collector.records.at(queued).status,
              JobStatus::Cancelled);
    EXPECT_EQ(svc.stats().submitted, svc.stats().delivered);
    // Stopped is stopped: later submissions are refused loudly...
    EXPECT_THROW(svc.submit({"x", c, 0, {}, 0.0}), FatalError);
    // ...and stopping again is an idempotent success.
    EXPECT_TRUE(svc.drainAndStop(0.05));
}

TEST(CompileServiceTest, DrainAndStopCleanFinishesEverything)
{
    const Architecture arch = presets::referenceZoned();
    RecordCollector collector;
    CompileService::Config config;
    config.num_workers = 2;
    CompileService svc(
        {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
        collector.sink());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::uint64_t id = svc.submit({"a", c, 0, {}, 0.0});
    EXPECT_TRUE(svc.drainAndStop());
    EXPECT_EQ(collector.records.at(id).status, JobStatus::Done);
}

// ---------------------------------------------- cache persistence

TEST(CompileServiceTest, SnapshotWarmStartServesBitIdenticalHits)
{
    const std::string path = "test_service_snapshot.jsonl";
    std::remove(path.c_str());
    const Architecture arch = presets::referenceZoned();
    const Circuit ghz = bench_circuits::paperBenchmark("ghz_n23");
    const Circuit qft = bench_circuits::paperBenchmark("qft_n18");

    RecordCollector cold;
    std::uint64_t cold_ghz, cold_qft;
    {
        CompileService::Config config;
        config.num_workers = 2;
        config.cache_capacity = 64;
        config.snapshot_path = path;
        CompileService svc(
            {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
            cold.sink());
        EXPECT_FALSE(svc.snapshotLoadStats().file_found);
        cold_ghz = svc.submit({"ghz", ghz, 0, {}, 0.0});
        cold_qft = svc.submit({"qft", qft, 0, {}, 0.0});
        EXPECT_TRUE(svc.drainAndStop());
        EXPECT_EQ(svc.stats().snapshot_records_written, 2u);
    }

    RecordCollector warm;
    {
        CompileService::Config config;
        config.num_workers = 2;
        config.cache_capacity = 64;
        config.snapshot_path = path;
        CompileService svc(
            {CompileTarget{"ref", arch, ZacOptions::full()}}, config,
            warm.sink());
        const SnapshotLoadStats &load = svc.snapshotLoadStats();
        EXPECT_TRUE(load.file_found);
        EXPECT_TRUE(load.header_ok);
        EXPECT_EQ(load.records_loaded, 2u);
        EXPECT_EQ(load.skippedTotal(), 0u);
        EXPECT_EQ(svc.stats().snapshot_records_loaded, 2u);
        const std::uint64_t warm_ghz =
            svc.submit({"ghz", ghz, 0, {}, 0.0});
        const std::uint64_t warm_qft =
            svc.submit({"qft", qft, 0, {}, 0.0});
        EXPECT_TRUE(svc.drainAndStop());
        // Every job is served from the reloaded snapshot, and the
        // served bytes match the original compiles exactly.
        EXPECT_TRUE(warm.records.at(warm_ghz).cache_hit);
        EXPECT_TRUE(warm.records.at(warm_qft).cache_hit);
        EXPECT_EQ(signatureOf(*warm.records.at(warm_ghz).result),
                  signatureOf(*cold.records.at(cold_ghz).result));
        EXPECT_EQ(signatureOf(*warm.records.at(warm_qft).result),
                  signatureOf(*cold.records.at(cold_qft).result));
        EXPECT_EQ(
            warm.records.at(warm_ghz).result->fidelity.total,
            cold.records.at(cold_ghz).result->fidelity.total);
    }
    std::remove(path.c_str());
}

// ------------------------------------------- snapshot corruption

/** Binary file copy for the corruption matrix. */
void
copyFileBytes(const std::string &src, const std::string &dst)
{
    std::ifstream in(src, std::ios::binary);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(in && out) << src << " -> " << dst;
    out << in.rdbuf();
}

TEST(CacheStoreTest, LoaderSurvivesEveryCorruptionMode)
{
    const std::string path = "test_cache_corruption.jsonl";
    const std::string damaged = path + ".damaged";
    const CacheKey k1{0x123456789abcdef0ull, 0x0fedcba987654321ull,
                      0x5555aaaa5555aaaaull};
    const CacheKey k2{0x1111222233334444ull, 0x9999888877776666ull,
                      0xdeadbeefcafef00dull};
    const CacheKey k3{0xabcdef0123456789ull, 0x13579bdf2468ace0ull,
                      0x0f1e2d3c4b5a6978ull};
    ResultCache source(8);
    source.insert(k1, dummyResult(1.0));
    source.insert(k2, dummyResult(2.0));
    source.insert(k3, dummyResult(3.0));
    EXPECT_EQ(service::saveCacheSnapshot(path, source), 3u);

    { // pristine snapshot: everything loads, payloads intact
        ResultCache cache(8);
        const SnapshotLoadStats st =
            service::loadCacheSnapshot(path, cache);
        EXPECT_TRUE(st.file_found);
        EXPECT_TRUE(st.header_ok);
        EXPECT_EQ(st.records_loaded, 3u);
        EXPECT_EQ(st.skippedTotal(), 0u);
        auto hit = cache.find(k2);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->compile_seconds, 2.0);
    }

    { // missing file: found=false, nothing else set
        ResultCache cache(8);
        const SnapshotLoadStats st = service::loadCacheSnapshot(
            "test_cache_no_such_file.jsonl", cache);
        EXPECT_FALSE(st.file_found);
        EXPECT_FALSE(st.header_ok);
        EXPECT_EQ(st.records_loaded, 0u);
    }

    { // truncated mid-record (crash mid-write): header survives,
      // the cut tail is skipped, never thrown
        copyFileBytes(path, damaged);
        service::corruptSnapshotFile(damaged,
                                     SnapshotCorruption::Truncate);
        ResultCache cache(8);
        const SnapshotLoadStats st =
            service::loadCacheSnapshot(damaged, cache);
        EXPECT_TRUE(st.file_found);
        EXPECT_TRUE(st.header_ok);
        EXPECT_LT(st.records_loaded, 3u);
    }

    // One flipped byte (bit rot): exactly one record is lost — to the
    // checksum when the line still parses, to the parser when it does
    // not — and the other two load. Several seeds, so the flip lands
    // on keys, checksums, payload numbers, and structural bytes.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        copyFileBytes(path, damaged);
        service::corruptSnapshotFile(
            damaged, SnapshotCorruption::FlipByte, seed);
        ResultCache cache(8);
        const SnapshotLoadStats st =
            service::loadCacheSnapshot(damaged, cache);
        EXPECT_TRUE(st.header_ok) << "seed " << seed;
        EXPECT_EQ(st.records_loaded, 2u) << "seed " << seed;
        EXPECT_EQ(st.skippedTotal(), 1u) << "seed " << seed;
    }

    { // unknown header version: no record can be trusted
        copyFileBytes(path, damaged);
        service::corruptSnapshotFile(
            damaged, SnapshotCorruption::WrongVersion);
        ResultCache cache(8);
        const SnapshotLoadStats st =
            service::loadCacheSnapshot(damaged, cache);
        EXPECT_TRUE(st.file_found);
        EXPECT_FALSE(st.header_ok);
        EXPECT_EQ(st.records_loaded, 0u);
        EXPECT_EQ(st.skipped_version, 3u);
    }

    { // zero-byte file (crash before the first write)
        copyFileBytes(path, damaged);
        service::corruptSnapshotFile(damaged,
                                     SnapshotCorruption::Empty);
        ResultCache cache(8);
        const SnapshotLoadStats st =
            service::loadCacheSnapshot(damaged, cache);
        EXPECT_TRUE(st.file_found);
        EXPECT_FALSE(st.header_ok);
        EXPECT_EQ(st.records_loaded, 0u);
        EXPECT_EQ(st.skippedTotal(), 0u);
    }

    std::remove(damaged.c_str());
    std::remove(path.c_str());
}

// ------------------------------------------- manifest hardening

/** The FatalError message @p doc dies with (empty = no throw). */
std::string
manifestFatalMessage(const std::string &doc)
{
    try {
        (void)service::manifestFromJson(json::parse(doc));
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(ManifestTest, RejectsOutOfRangeNumericsNamingTheCulprit)
{
    const std::string zero_seeds = manifestFatalMessage(R"({
      "targets": [{"name": "a", "arch": "reference",
                   "sa_num_seeds": 0}],
      "jobs": [{"circuit": "ghz_n23"}]
    })");
    EXPECT_NE(zero_seeds.find("sa_num_seeds"), std::string::npos)
        << zero_seeds;
    EXPECT_NE(zero_seeds.find("'a'"), std::string::npos) << zero_seeds;

    const std::string huge_seeds = manifestFatalMessage(R"({
      "targets": [{"name": "a", "arch": "reference",
                   "sa_num_seeds": 300}],
      "jobs": [{"circuit": "ghz_n23"}]
    })");
    EXPECT_NE(huge_seeds.find("sa_num_seeds"), std::string::npos)
        << huge_seeds;

    const std::string bad_timeout = manifestFatalMessage(R"({
      "jobs": [{"circuit": "ghz_n23", "timeout_seconds": -1.0}]
    })");
    EXPECT_NE(bad_timeout.find("timeout_seconds"), std::string::npos)
        << bad_timeout;

    // Integers past their range are rejected, not narrowed or wrapped.
    const std::string huge_target = manifestFatalMessage(R"({
      "jobs": [{"circuit": "ghz_n23", "target": 4294967296}]
    })");
    EXPECT_NE(huge_target.find("target"), std::string::npos)
        << huge_target;
    const std::string huge_seed = manifestFatalMessage(R"({
      "jobs": [{"circuit": "ghz_n23", "seed": 1e30}]
    })");
    EXPECT_NE(huge_seed.find("range"), std::string::npos) << huge_seed;

    // Integers a loader keeps in an int are neither truncated, wrapped
    // nor cast from past int's range: each is an error naming its key.
    const struct
    {
        bool in_target; // else the key belongs to the job
        std::string key;
        const char *value;
    } narrowed[] = {
        {true, "aods", "2.7"},
        {true, "aods", "1e20"},
        {true, "sa_num_seeds", "4294967297"},
        {true, "sa_iterations", "-2147483649"},
        {true, "sa_threads", "1.5"},
        {false, "repeat", "2.5"},
        {false, "repeat", "1e20"},
    };
    for (const auto &c : narrowed) {
        const std::string member = ", \"" + c.key + "\": " + c.value;
        const std::string msg = manifestFatalMessage(
            R"({"targets": [{"name": "a", "arch": "reference")" +
            (c.in_target ? member : "") +
            R"(}], "jobs": [{"circuit": "ghz_n23")" +
            (c.in_target ? "" : member) + "}]}");
        EXPECT_NE(msg.find("'" + c.key + "'"), std::string::npos)
            << c.key << "=" << c.value << ": " << msg;
    }

    // An AOD count is bounded before the reference architecture builds
    // one AOD per count.
    for (const char *aods : {"0", "-1", "17", "2000000000"}) {
        const std::string msg = manifestFatalMessage(
            std::string(R"({"targets": [{"name": "a", "arch": "reference",
                                        "aods": )") +
            aods + R"(}], "jobs": [{"circuit": "ghz_n23"}]})");
        EXPECT_NE(msg.find("aods " + std::string(aods) + " out of range"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'a'"), std::string::npos) << msg;
    }

    // The boundary values stay legal.
    EXPECT_EQ(manifestFatalMessage(R"({
      "targets": [{"name": "a", "arch": "reference",
                   "sa_num_seeds": 1}],
      "jobs": [{"circuit": "ghz_n23", "timeout_seconds": 0.0}]
    })"),
              "");
    const service::Manifest m = service::manifestFromJson(json::parse(R"({
      "targets": [{"name": "a", "arch": "reference", "aods": 1,
                   "sa_iterations": 2147483647, "sa_threads": 1}],
      "jobs": [{"circuit": "ghz_n23", "repeat": 2147483647},
               {"circuit": "ghz_n23", "repeat": 1}]
    })"));
    EXPECT_EQ(m.targets[0].opts.sa_iterations, 2147483647);
    EXPECT_EQ(m.targets[0].arch.aods().size(), 1u);
    EXPECT_EQ(service::manifestFromJson(
                  json::parse(R"({"targets": [{"arch": "reference",
                                               "aods": 16}],
                                  "jobs": [{"circuit": "ghz_n23"}]})"))
                  .targets[0]
                  .arch.aods()
                  .size(),
              16u);
    EXPECT_EQ(m.jobs[0].repeat, 2147483647);
    EXPECT_EQ(m.jobs[1].repeat, 1);
}

TEST(ManifestTest, UnlabelledQasmJobIsLabelledByItsFileStem)
{
    const std::string path = "test_service_bell.qasm";
    {
        std::ofstream f(path);
        f << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
             "h q[0];\ncx q[0],q[1];\n";
    }
    const service::Manifest m = service::manifestFromJson(json::parse(
        R"({"jobs": [{"circuit": ")" + path + R"("}]})"));
    std::remove(path.c_str());
    ASSERT_EQ(m.jobs.size(), 1u);
    EXPECT_EQ(m.jobs[0].name, "test_service_bell");
}

TEST(ManifestTest, UnknownKeysWarnButParse)
{
    // Misspelled knobs must not silently change behavior — they warn
    // (naming the key) and the rest of the manifest still parses.
    const service::Manifest m = service::manifestFromJson(json::parse(R"({
      "comment": "top-level stray",
      "targets": [{"name": "a", "arch": "reference",
                   "bogus_knob": 7}],
      "jobs": [{"circuit": "ghz_n23", "not_a_field": true}]
    })"));
    ASSERT_EQ(m.targets.size(), 1u);
    EXPECT_EQ(m.targets[0].name, "a");
    ASSERT_EQ(m.jobs.size(), 1u);
    EXPECT_EQ(m.jobs[0].circuit.name(), "ghz_n23");
}

} // namespace
} // namespace zac
