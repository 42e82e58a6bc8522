/**
 * @file
 * Tests for the zero-DOM streaming compile path and the warm
 * per-architecture context pool: streamed-vs-DOM byte identity per
 * circuit and across option presets, multi-seed SA under streaming,
 * scratch-buffer reuse determinism, WarmContextPool
 * eviction/refcount/counter behavior, concurrent compiles sharing one
 * warm context (exercised under TSan in CI), and the service's warm
 * counters in its stats record.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "arch/scaling.hpp"
#include "arch/serialize.hpp"
#include "circuit/generators.hpp"
#include "circuit/scaling.hpp"
#include "common/logging.hpp"
#include "core/compiler.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/warm_context_pool.hpp"
#include "zair/serialize.hpp"

namespace zac
{
namespace
{

using service::CompileService;
using service::CompileTarget;
using service::JobRecord;
using service::WarmContextPool;

/** Compact DOM dump — the byte-identity reference for streaming. */
std::string
domBytes(const ZacResult &r)
{
    std::ostringstream ss;
    streamZairProgram(ss, r.program, 0);
    return ss.str();
}

// ------------------------------------------- streamed vs DOM identity

TEST(StreamedCompile, BytesMatchDomDumpPerCircuit)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    CompileScratch scratch; // deliberately reused across circuits
    for (const char *name : {"ghz_n23", "qft_n18", "ising_n42"}) {
        const Circuit c = bench_circuits::paperBenchmark(name);
        const ZacResult dom = compiler.compile(c);
        const ZacStreamedResult s =
            compiler.compileStreamed(c, CompileControl{}, &scratch);
        EXPECT_EQ(s.program_json, domBytes(dom)) << name;
        EXPECT_EQ(s.program_json, zairProgramToJson(dom.program).dump())
            << name;
        EXPECT_EQ(s.fidelity.total, dom.fidelity.total) << name;
        EXPECT_EQ(s.circuit_name, c.name());
        EXPECT_EQ(s.num_qubits, c.numQubits());
        // The recorded name span must cover exactly the quoted
        // circuit-name literal inside the compact bytes.
        EXPECT_EQ(s.program_json.substr(s.name_off, s.name_len),
                  json::Value(c.name()).dump())
            << name;
    }
}

TEST(StreamedCompile, VerifyWithDomModeAccepts)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    // verify_with_dom builds the DOM alongside and panics on any byte
    // divergence — completing without a throw IS the assertion.
    const ZacStreamedResult s = compiler.compileStreamed(
        c, CompileControl{}, nullptr, /*verify_with_dom=*/true);
    EXPECT_FALSE(s.program_json.empty());
}

TEST(StreamedCompile, BytesMatchDomAcrossAllPresets)
{
    const Architecture arch = presets::referenceZoned();
    const Circuit c = bench_circuits::paperBenchmark("qft_n18");
    const std::map<std::string, ZacOptions> presets{
        {"vanilla", ZacOptions::vanilla()},
        {"dynPlace", ZacOptions::dynPlace()},
        {"dynPlaceReuse", ZacOptions::dynPlaceReuse()},
        {"full", ZacOptions::full()},
    };
    CompileScratch scratch;
    for (const auto &[name, opts] : presets) {
        const ZacCompiler compiler(arch, opts);
        const ZacResult dom = compiler.compile(c);
        const ZacStreamedResult s =
            compiler.compileStreamed(c, CompileControl{}, &scratch);
        EXPECT_EQ(s.program_json, domBytes(dom)) << name;
        EXPECT_EQ(s.fidelity.total, dom.fidelity.total) << name;
    }
}

TEST(StreamedCompile, MultiSeedSaMatchesDom)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts = ZacOptions::full();
    opts.sa_num_seeds = 4;
    opts.sa_threads = 1; // the service's saturated-pool setting
    const ZacCompiler compiler(arch, opts);
    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const ZacResult dom = compiler.compile(c);
    CompileScratch scratch;
    const ZacStreamedResult s =
        compiler.compileStreamed(c, CompileControl{}, &scratch);
    EXPECT_EQ(s.program_json, domBytes(dom));
    EXPECT_EQ(s.fidelity.total, dom.fidelity.total);
}

TEST(StreamedCompile, ScratchReuseIsDeterministic)
{
    const Architecture arch = presets::referenceZoned();
    const ZacCompiler compiler(arch, ZacOptions::full());
    const Circuit a = bench_circuits::paperBenchmark("ghz_n23");
    const Circuit b = bench_circuits::paperBenchmark("ising_n42");

    // Fresh scratch per compile...
    CompileScratch fresh;
    const std::string ref =
        compiler.compileStreamed(a, CompileControl{}, &fresh)
            .program_json;

    // ...vs. scratch dirtied first by a larger compile, whose storage
    // placement expands and whose windows grow, then by a different
    // circuit: reuse must never leak state between jobs.
    CompileScratch reused;
    const ZacStreamedResult big =
        ZacCompiler(scaledZoned(256), ZacOptions::full())
            .compileStreamed(
                scaling::generate(scaling::Family::Qaoa, 256, 1),
                CompileControl{}, &reused);
    EXPECT_GT(big.phases.placement.qubit_placer.expanded_solves, 0);
    EXPECT_GT(big.phases.placement.qubit_placer.window_growths, 0);
    EXPECT_GT(big.phases.placement.gate_placer.window_growths, 0);
    (void)compiler.compileStreamed(b, CompileControl{}, &reused);
    EXPECT_EQ(
        compiler.compileStreamed(a, CompileControl{}, &reused)
            .program_json,
        ref);
    // And a null scratch (caller-owned buffers disabled) agrees too.
    EXPECT_EQ(
        compiler.compileStreamed(a, CompileControl{}, nullptr)
            .program_json,
        ref);
}

TEST(StreamedCompile, CircuitWiderThanStorageFailsBeforePreprocessing)
{
    // Both entry points reject a circuit wider than storage before
    // preprocessing allocates per-qubit state for it.
    const ZacCompiler compiler(presets::referenceZoned(),
                               ZacOptions::full());
    Circuit wide(2000000000, "wide");
    wide.cz(0, 1);
    EXPECT_THROW(compiler.compile(wide), FatalError);
    EXPECT_THROW(compiler.compileStreamed(wide), FatalError);
}

// --------------------------------------------- warm context pool

TEST(WarmContextPoolTest, HitMissAndBuildCounters)
{
    WarmContextPool pool(4);
    const Architecture arch = presets::referenceZoned();
    const auto a = pool.acquire(arch);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->fingerprint, architectureFingerprint(arch));
    EXPECT_EQ(pool.stats().misses, 1u);
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_GE(pool.stats().build_seconds, 0.0);

    const auto b = pool.acquire(arch);
    EXPECT_EQ(a.get(), b.get()) << "same fingerprint must share";
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(pool.stats().misses, 1u);
    EXPECT_EQ(pool.stats().entries, 1u);
}

TEST(WarmContextPoolTest, EvictionDropsPoolReferenceOnly)
{
    WarmContextPool pool(1);
    const auto first = pool.acquire(presets::referenceZoned());
    const auto second = pool.acquire(presets::multiZoneArch1());
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.stats().entries, 1u);

    // The evicted context stays alive through our shared_ptr and is
    // still fully usable for compiles.
    ASSERT_NE(first, nullptr);
    const ZacCompiler compiler(first, ZacOptions::full());
    const ZacStreamedResult r = compiler.compileStreamed(
        bench_circuits::paperBenchmark("ghz_n23"), CompileControl{});
    EXPECT_FALSE(r.program_json.empty());

    // Re-acquiring the evicted architecture is a fresh miss (build),
    // and evicts the other entry in turn.
    const auto rebuilt = pool.acquire(presets::referenceZoned());
    EXPECT_EQ(pool.stats().misses, 3u);
    EXPECT_EQ(pool.stats().evictions, 2u);
    EXPECT_EQ(rebuilt->fingerprint, first->fingerprint);
    EXPECT_NE(rebuilt.get(), first.get());
    (void)second;
}

TEST(WarmContextPoolTest, LruKeepsRecentlyUsedEntries)
{
    WarmContextPool pool(2);
    const auto a = pool.acquire(presets::referenceZoned(1));
    const auto b = pool.acquire(presets::referenceZoned(2));
    // Touch `a` so `b` becomes the LRU victim.
    (void)pool.acquire(presets::referenceZoned(1));
    (void)pool.acquire(presets::multiZoneArch1()); // evicts b's slot
    EXPECT_EQ(pool.stats().evictions, 1u);
    // `a` must still be pooled...
    const auto a2 = pool.acquire(presets::referenceZoned(1));
    EXPECT_EQ(a2.get(), a.get());
    // ...while `b` was evicted and rebuilds.
    const auto b2 = pool.acquire(presets::referenceZoned(2));
    EXPECT_NE(b2.get(), b.get());
}

TEST(WarmContextPoolTest, WarmAndColdCompilersAgreeByteForByte)
{
    const Architecture arch = presets::referenceZoned();
    const ZacOptions opts = ZacOptions::full();
    const Circuit c = bench_circuits::paperBenchmark("qft_n18");

    const ZacCompiler cold(arch, opts); // private context build
    WarmContextPool pool(2);
    const ZacCompiler warm(pool.acquire(arch), opts);

    const ZacResult cold_dom = cold.compile(c);
    const ZacStreamedResult warm_streamed =
        warm.compileStreamed(c, CompileControl{});
    EXPECT_EQ(warm_streamed.program_json, domBytes(cold_dom));
    EXPECT_EQ(warm_streamed.fidelity.total, cold_dom.fidelity.total);
}

TEST(WarmContextPoolTest, ConcurrentCompilesShareOneContext)
{
    const Architecture arch = presets::referenceZoned();
    const ZacOptions opts = ZacOptions::full();
    WarmContextPool pool(2);
    const auto context = pool.acquire(arch);

    const Circuit c = bench_circuits::paperBenchmark("ghz_n23");
    const std::string ref =
        ZacCompiler(context, opts)
            .compileStreamed(c, CompileControl{})
            .program_json;

    // All threads read the same ArchContext concurrently (the TSan CI
    // leg runs this test); each has its own compiler and scratch.
    constexpr int kThreads = 4;
    std::vector<std::string> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const ZacCompiler compiler(context, opts);
            CompileScratch scratch;
            for (int rep = 0; rep < 2; ++rep)
                results[static_cast<std::size_t>(t)] =
                    compiler
                        .compileStreamed(c, CompileControl{}, &scratch)
                        .program_json;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &r : results)
        EXPECT_EQ(r, ref);
}

// ------------------------------------------------ service stats

TEST(StreamedServiceTest, ServiceStatsSurfaceWarmCounters)
{
    const Architecture arch = presets::referenceZoned();
    CompileService::Config config;
    config.num_workers = 1;
    CompileService svc({CompileTarget{"ref", arch, ZacOptions::full()}},
                       config, [](const JobRecord &) {});
    const CompileService::ServiceStats stats = svc.serviceStats();
    // The global pool served this service's target context, so it has
    // seen at least one acquire (hit or miss, depending on what other
    // tests already pooled).
    EXPECT_GE(stats.warm.hits + stats.warm.misses, 1u);
    EXPECT_GE(stats.warm.entries, 1u);

    const json::Value rec = service::makeStatsRecord(stats);
    EXPECT_EQ(rec.at("type").asString(), "stats");
    EXPECT_TRUE(rec.contains("counters"));
    EXPECT_TRUE(rec.contains("cache"));
    ASSERT_TRUE(rec.contains("warm_contexts"));
    const json::Value &warm = rec.at("warm_contexts");
    EXPECT_TRUE(warm.contains("hits"));
    EXPECT_TRUE(warm.contains("misses"));
    EXPECT_TRUE(warm.contains("evictions"));
    EXPECT_TRUE(warm.contains("entries"));
    EXPECT_TRUE(warm.contains("build_seconds"));
    EXPECT_EQ(rec.at("workers").asInt(), 1);
    svc.shutdown();
}

} // namespace
} // namespace zac
