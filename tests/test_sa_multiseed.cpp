/**
 * @file
 * Lockdown suite for the incremental multi-seed SA engine (ISSUE 5):
 *
 *  - the propose/commit/revert delta evaluator must replay the exact
 *    accepted-move sequence of the pre-index annealer — pinned by golden
 *    digests (golden.hpp) of its outputs over an iteration-budget sweep
 *    and randomized circuits;
 *  - num_seeds = 1 must reproduce the classic single-seed output
 *    bit-identically (same TrapRefs as the default API and the golden
 *    digest);
 *  - num_seeds = N must return bit-identical placements and reports
 *    regardless of worker count or interleaving, and never lose to the
 *    seed-0 stream on exact Eq. 2 cost;
 *  - the checkpoint hook must fire per seed and propagate exceptions
 *    (the compiler's cancellation path).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "arch/presets.hpp"
#include "circuit/generators.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/sa_placer.hpp"
#include "transpile/optimize.hpp"

#include "golden.hpp"

namespace zac
{
namespace
{

using golden::expectGolden;
using golden::trapsDigest;

StagedCircuit
stagedBenchmark(const Architecture &arch, const std::string &name)
{
    const Circuit pre = preprocess(bench_circuits::paperBenchmark(name));
    return scheduleStages(pre, arch.numSites());
}

/** A random {CZ, U3} circuit with layered structure. */
Circuit
randomCircuit(Rng &rng, int num_qubits)
{
    Circuit c(num_qubits, "random_sa");
    const int layers = 3 + static_cast<int>(rng.nextBelow(4));
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < num_qubits; ++q)
            if (rng.nextBool(0.3))
                c.u3(q, rng.nextDouble(), rng.nextDouble(),
                     rng.nextDouble());
        std::vector<int> perm(static_cast<std::size_t>(num_qubits));
        for (int q = 0; q < num_qubits; ++q)
            perm[static_cast<std::size_t>(q)] = q;
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.nextBelow(i)]);
        for (int i = 0; i + 1 < num_qubits; i += 2)
            if (rng.nextBool(0.7))
                c.cz(perm[static_cast<std::size_t>(i)],
                     perm[static_cast<std::size_t>(i + 1)]);
    }
    return c;
}

// ------------------------------------------------- move-sequence pin

/**
 * The output at every iteration budget from 1 to 48 is pinned, so a
 * changed accept/reject decision fails at the first budget whose
 * output it moves, and the key names that budget. wstate_n27 keeps its
 * initial placement at every budget of the sweep; knn_n31's output
 * changes 12 times over it.
 */
TEST(SaMultiSeed, IterationBudgetSweepPinsAcceptedMoveSequence)
{
    const Architecture arch = presets::referenceZoned();
    for (const char *name : {"wstate_n27", "knn_n31"}) {
        const StagedCircuit staged = stagedBenchmark(arch, name);
        for (int iters = 1; iters <= 48; ++iters) {
            SaOptions opts;
            opts.max_iterations = iters;
            opts.seed = 17;
            char key[64];
            std::snprintf(key, sizeof key,
                          "sa/reference/%s/seed17/budget%02d/traps",
                          name, iters);
            expectGolden(key,
                         trapsDigest(saInitialPlacement(arch, staged, opts)));
        }
    }
}

TEST(SaMultiSeed, RandomCircuitsMatchLegacyPerSeed)
{
    const Architecture arch = presets::referenceZoned();
    Rng rng(20260728);
    for (int round = 0; round < 6; ++round) {
        const int nq = 6 + static_cast<int>(rng.nextBelow(20));
        const Circuit circ = randomCircuit(rng, nq);
        const StagedCircuit staged =
            scheduleStages(preprocess(circ), arch.numSites());
        SaOptions opts;
        opts.max_iterations = 400;
        opts.seed = rng.next();
        expectGolden("sa/reference/random/round" +
                         std::to_string(round) + "/traps",
                     trapsDigest(saInitialPlacement(arch, staged, opts)));
    }
}

// --------------------------------------------- single-seed reproduction

TEST(SaMultiSeed, NumSeeds1ReproducesSingleSeedExactly)
{
    const Architecture arch = presets::referenceZoned();
    for (const char *name : {"bv_n14", "qft_n18"}) {
        const StagedCircuit staged = stagedBenchmark(arch, name);
        for (std::uint64_t seed : {1ull, 99ull}) {
            SaOptions single;
            single.seed = seed;
            SaOptions batched = single;
            batched.num_seeds = 1;
            batched.num_threads = 4;
            const auto classic =
                saInitialPlacement(arch, staged, single);
            EXPECT_EQ(saInitialPlacement(arch, staged, batched),
                      classic);
            expectGolden(std::string("sa/reference/") + name + "/seed" +
                             std::to_string(seed) + "/traps",
                         trapsDigest(classic));
        }
    }
}

// --------------------------------------------- worker-count invariance

TEST(SaMultiSeed, BitIdenticalAcrossWorkerCounts)
{
    const Architecture arch = presets::referenceZoned();
    for (const char *name : {"ghz_n23", "ising_n42"}) {
        const StagedCircuit staged = stagedBenchmark(arch, name);
        SaOptions opts;
        opts.max_iterations = 300;
        opts.seed = 7;
        opts.num_seeds = 5;

        opts.num_threads = 1;
        SaSeedReport ref_report;
        const auto reference =
            saInitialPlacement(arch, staged, opts, {}, &ref_report);
        ASSERT_EQ(ref_report.seed_costs.size(), 5u);

        for (int workers : {2, 3, 8}) {
            opts.num_threads = workers;
            SaSeedReport report;
            EXPECT_EQ(
                saInitialPlacement(arch, staged, opts, {}, &report),
                reference)
                << name << " with " << workers << " workers";
            EXPECT_EQ(report.seed_costs, ref_report.seed_costs);
            EXPECT_EQ(report.best_seed, ref_report.best_seed);
        }
    }
}

TEST(SaMultiSeed, RepeatedCallsAreDeterministic)
{
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = stagedBenchmark(arch, "qft_n18");
    SaOptions opts;
    opts.max_iterations = 250;
    opts.seed = 3;
    opts.num_seeds = 4;
    opts.num_threads = 0; // hardware concurrency
    const auto a = saInitialPlacement(arch, staged, opts);
    const auto b = saInitialPlacement(arch, staged, opts);
    EXPECT_EQ(a, b);
}

// -------------------------------------------------- best-of-N quality

TEST(SaMultiSeed, BestOfNNeverWorseThanSeed0AndReportConsistent)
{
    const Architecture arch = presets::referenceZoned();
    for (const char *name : {"wstate_n27", "knn_n31"}) {
        const StagedCircuit staged = stagedBenchmark(arch, name);
        SaOptions opts;
        opts.seed = 5;
        opts.num_seeds = 6;
        SaSeedReport report;
        const auto best =
            saInitialPlacement(arch, staged, opts, {}, &report);

        ASSERT_EQ(report.seed_costs.size(), 6u);
        // best_seed is the argmin with the lowest-index tie-break.
        for (int s = 0; s < 6; ++s) {
            EXPECT_GE(report.seed_costs[static_cast<std::size_t>(s)],
                      report.seed_costs[static_cast<std::size_t>(
                          report.best_seed)]);
            if (report.seed_costs[static_cast<std::size_t>(s)] ==
                report.seed_costs[static_cast<std::size_t>(
                    report.best_seed)]) {
                EXPECT_GE(s, report.best_seed);
            }
        }
        // Never worse than the single-seed (stream 0) result.
        EXPECT_LE(
            report.seed_costs[static_cast<std::size_t>(
                report.best_seed)],
            report.seed_costs[0]);
        // The returned placement really is the winning stream's: its
        // exact Eq. 2 cost matches the reported winning cost.
        EXPECT_DOUBLE_EQ(
            initialPlacementCost(arch, staged, best),
            report.seed_costs[static_cast<std::size_t>(
                report.best_seed)]);
        // Placements stay a permutation of distinct traps.
        const std::set<TrapRef> seen(best.begin(), best.end());
        EXPECT_EQ(seen.size(), best.size());
    }
}

TEST(SaMultiSeed, SeedStreamsAreDecorrelated)
{
    // Different streams should genuinely explore differently: at
    // least two distinct final costs must appear (a correlated
    // derivation would collapse them all). qft_n18 has enough
    // frustration that streams land in different local optima; some
    // circuits (e.g. wstate) legitimately collapse to one optimum.
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = stagedBenchmark(arch, "qft_n18");
    SaOptions opts;
    opts.seed = 1;
    opts.num_seeds = 6;
    SaSeedReport report;
    (void)saInitialPlacement(arch, staged, opts, {}, &report);
    const std::set<double> distinct(report.seed_costs.begin(),
                                    report.seed_costs.end());
    EXPECT_GT(distinct.size(), 1u);
}

// ------------------------------------------------- checkpoint plumbing

TEST(SaMultiSeed, CheckpointFiresPerSequentialSeed)
{
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = stagedBenchmark(arch, "bv_n14");
    SaOptions opts;
    opts.max_iterations = 50;
    opts.num_seeds = 3;
    opts.num_threads = 1;
    int calls = 0;
    (void)saInitialPlacement(arch, staged, opts, [&] { ++calls; });
    EXPECT_EQ(calls, 3);
}

TEST(SaMultiSeed, CheckpointExceptionAbortsPlacement)
{
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = stagedBenchmark(arch, "bv_n14");
    SaOptions opts;
    opts.max_iterations = 50;
    opts.num_seeds = 3;
    opts.num_threads = 1;
    int calls = 0;
    EXPECT_THROW(
        (void)saInitialPlacement(arch, staged, opts,
                                 [&] {
                                     if (++calls == 2)
                                         throw std::runtime_error(
                                             "stop");
                                 }),
        std::runtime_error);
    EXPECT_EQ(calls, 2);
}

TEST(SaMultiSeed, ParallelBatchCheckpointFiresPerSeedAndPropagates)
{
    // In a parallel batch the checkpoint runs on worker threads before
    // every seed after the first (it must be thread-safe there); an
    // exception from any worker aborts the placement.
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = stagedBenchmark(arch, "bv_n14");
    SaOptions opts;
    opts.max_iterations = 50;
    opts.num_seeds = 6;
    opts.num_threads = 3;
    std::atomic<int> calls{0};
    (void)saInitialPlacement(arch, staged, opts, [&] { ++calls; });
    EXPECT_EQ(calls.load(), 6);

    std::atomic<bool> cancelled{false};
    EXPECT_THROW(
        (void)saInitialPlacement(
            arch, staged, opts,
            [&] {
                if (cancelled.exchange(true))
                    throw std::runtime_error("stop");
            }),
        std::runtime_error);
}

TEST(SaMultiSeed, CompileCancelStopsBetweenSeeds)
{
    // A cancel flag raised at the SA phase announcement must abort
    // out of the per-seed poll() inside the seed batch, without the
    // phase hook ever firing twice for "sa".
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_num_seeds = 4;
    opts.sa_threads = 1;
    const ZacCompiler compiler(arch, opts);
    std::atomic<bool> cancel{false};
    CompileControl control;
    control.cancel = &cancel;
    int sa_announcements = 0;
    control.on_phase = [&](const char *phase) {
        if (std::string(phase) == "sa") {
            ++sa_announcements;
            cancel.store(true);
        }
    };
    EXPECT_THROW((void)compiler.compile(
                     bench_circuits::paperBenchmark("bv_n14"), control),
                 CompileCancelled);
    EXPECT_EQ(sa_announcements, 1);
}

// ------------------------------------------------ compiler integration

TEST(SaMultiSeed, CompilerMultiSeedFidelityNeverWorseInCost)
{
    // Through ZacCompiler: a multi-seed compile must be deterministic
    // and its SA placement cost must be <= the single-seed one.
    const Architecture arch = presets::referenceZoned();
    const Circuit circ = bench_circuits::paperBenchmark("qft_n18");
    const StagedCircuit staged =
        scheduleStages(preprocess(circ), arch.numSites());

    ZacOptions single;
    ZacOptions multi;
    multi.sa_num_seeds = 4;
    SaOptions sa_single;
    sa_single.seed = single.seed;
    SaOptions sa_multi = sa_single;
    sa_multi.num_seeds = 4;

    const auto p1 = saInitialPlacement(arch, staged, sa_single);
    const auto pn = saInitialPlacement(arch, staged, sa_multi);
    EXPECT_LE(initialPlacementCost(arch, staged, pn),
              initialPlacementCost(arch, staged, p1) + 1e-12);

    const ZacCompiler a(arch, multi);
    const ZacCompiler b(arch, multi);
    const ZacResult ra = a.compile(circ);
    const ZacResult rb = b.compile(circ);
    EXPECT_EQ(ra.fidelity.total, rb.fidelity.total);
    EXPECT_EQ(ra.program.instrs.size(), rb.program.instrs.size());
}

} // namespace
} // namespace zac
