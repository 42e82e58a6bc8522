/**
 * @file
 * Bit-identity gates of the scheduler:
 *
 *  - scheduleProgram() must emit programs whose golden digests
 *    (golden.hpp: the JSON bytes plus every scheduled field, job phase
 *    markers included) match the committed table on the 17 paper
 *    circuits and on seeded random circuits over every preset
 *    architecture (single- and multi-AOD), and so must the fidelity of
 *    the random programs;
 *  - directed coverage for the two paths the randomized pipeline
 *    rarely forces: intra-group trap dependencies (a job occupying a
 *    trap another job of the same transition vacates) and the
 *    dependency-cycle fallback (jobs exchanging traps);
 *  - directed checks of the 1Q unitary grouping and the per-zone
 *    Rydberg grouping the sorted scratch replaced std::map with.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/presets.hpp"
#include "circuit/generators.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/movement.hpp"
#include "core/sa_placer.hpp"
#include "core/scheduler.hpp"
#include "fidelity/model.hpp"
#include "transpile/optimize.hpp"

#include "golden.hpp"

namespace zac
{
namespace
{

using golden::expectGolden;
using golden::fidelityDigest;
using golden::programDigest;

// ------------------------------------ paper circuits, golden digests

class SchedulerEquivPaper : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SchedulerEquivPaper, BitIdenticalToLegacy)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 300;
    const Circuit pre =
        preprocess(bench_circuits::paperBenchmark(GetParam()));
    const StagedCircuit staged = scheduleStages(pre, arch.numSites());
    SaOptions sa;
    sa.max_iterations = opts.sa_iterations;
    sa.seed = opts.seed;
    const std::vector<TrapRef> initial =
        saInitialPlacement(arch, staged, sa);
    const PlacementPlan plan =
        runDynamicPlacement(arch, staged, initial, opts);

    const ZairProgram fresh = scheduleProgram(arch, staged, plan);
    expectGolden("paper/sa300/" + GetParam() + "/program",
                 programDigest(fresh));
}

std::vector<std::string>
paperCircuitNames()
{
    std::vector<std::string> names;
    for (const auto &rec : bench_circuits::paperBenchmarkRecords())
        names.push_back(rec.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, SchedulerEquivPaper,
                         ::testing::ValuesIn(paperCircuitNames()),
                         [](const auto &info) { return info.param; });

// ------------------------------------ randomized circuits, all presets

/** A random {CZ, U3} circuit with layered structure. */
Circuit
randomCircuit(Rng &rng, int num_qubits)
{
    Circuit c(num_qubits, "random");
    const int layers = 2 + static_cast<int>(rng.nextBelow(5));
    for (int l = 0; l < layers; ++l) {
        // Random partial pairing for CZs.
        std::vector<int> qubits(static_cast<std::size_t>(num_qubits));
        for (int q = 0; q < num_qubits; ++q)
            qubits[static_cast<std::size_t>(q)] = q;
        for (std::size_t i = qubits.size(); i > 1; --i)
            std::swap(qubits[i - 1], qubits[rng.nextBelow(i)]);
        const std::size_t pairs = rng.nextBelow(qubits.size() / 2) + 1;
        for (std::size_t p = 0; p + 1 < 2 * pairs; p += 2)
            c.cz(qubits[p], qubits[p + 1]);
        // A sprinkle of U3s, some sharing angles so grouping kicks in.
        const int u3s = static_cast<int>(rng.nextBelow(
            static_cast<std::uint64_t>(num_qubits) + 1));
        for (int k = 0; k < u3s; ++k) {
            const int q = static_cast<int>(rng.nextBelow(
                static_cast<std::uint64_t>(num_qubits)));
            if (rng.nextBool(0.4))
                c.u3(q, 0.25, 0.5, 0.75); // shared angles
            else
                c.u3(q, rng.nextDouble(), rng.nextDouble(),
                     rng.nextDouble());
        }
    }
    return c;
}

struct RandomPreset
{
    const char *label;
    Architecture arch;
};

TEST(SchedulerEquivRandom, MatchesLegacyOnSeededCircuitsAllPresets)
{
    std::vector<RandomPreset> presets;
    presets.push_back({"reference", presets::referenceZoned()});
    presets.push_back({"reference_2aod", presets::referenceZoned(2)});
    presets.push_back({"reference_4aod", presets::referenceZoned(4)});
    presets.push_back({"arch1", presets::multiZoneArch1()});
    presets.push_back({"arch2", presets::multiZoneArch2()});
    presets.push_back({"logical", presets::logicalBlockArch()});

    Rng rng(20260728);
    for (const RandomPreset &p : presets) {
        for (int round = 0; round < 6; ++round) {
            const int max_q =
                std::min(24, std::min(p.arch.numStorageTraps(),
                                      2 * p.arch.numSites()));
            const int nq =
                4 + static_cast<int>(rng.nextBelow(
                        static_cast<std::uint64_t>(max_q - 3)));
            const Circuit circ = randomCircuit(rng, nq);
            const Circuit pre = preprocess(circ);
            const StagedCircuit staged =
                scheduleStages(pre, p.arch.numSites());
            const std::vector<TrapRef> initial =
                trivialInitialPlacement(p.arch, staged.numQubits);
            ZacOptions opts = ZacOptions::full();
            // Direct in-zone reuse is the path that actually creates
            // intra-group trap dependencies; exercise it half the time.
            opts.use_direct_reuse = (round % 2 == 1);
            const PlacementPlan plan = runDynamicPlacement(
                p.arch, staged, initial, opts);

            const ZairProgram fresh =
                scheduleProgram(p.arch, staged, plan);
            const std::string key = std::string("random/") + p.label +
                                    "/round" + std::to_string(round);
            expectGolden(key + "/program", programDigest(fresh));
            expectGolden(key + "/fidelity",
                         fidelityDigest(evaluateFidelity(fresh, p.arch)));
        }
    }
}

// ----------------------------------------------------- directed tests

/** Staged circuit with @p stages Rydberg stages and no 1Q ops. */
StagedCircuit
bareStaged(int num_qubits, int stages)
{
    StagedCircuit staged;
    staged.numQubits = num_qubits;
    staged.name = "directed";
    staged.rydberg.resize(static_cast<std::size_t>(stages));
    staged.oneQ.resize(static_cast<std::size_t>(stages) + 1);
    return staged;
}

const ZairInstr *
jobEndingAt(const ZairProgram &p, TrapRef trap)
{
    for (const ZairInstr &in : p.instrs) {
        if (in.kind != ZairKind::RearrangeJob)
            continue;
        for (const QLoc &l : in.end_locs)
            if (l.trap() == trap)
                return &in;
    }
    return nullptr;
}

const ZairInstr *
jobBeginningAt(const ZairProgram &p, TrapRef trap)
{
    for (const ZairInstr &in : p.instrs) {
        if (in.kind != ZairKind::RearrangeJob)
            continue;
        for (const QLoc &l : in.begin_locs)
            if (l.trap() == trap)
                return &in;
    }
    return nullptr;
}

/**
 * A move_in transition whose movements split into two jobs where one
 * job drops a qubit onto the trap the other vacates: the dependent
 * job's arrival (begin + move_done) must wait for the vacating job's
 * pickup end, and with two AODs the wait is visible as a delayed
 * start.
 */
TEST(SchedulerDirected, IntraGroupTrapDependencyDelaysOccupyingJob)
{
    const Architecture arch = presets::referenceZoned(2);
    StagedCircuit staged = bareStaged(6, 1);
    staged.rydberg[0].gates = {{0, 0, 1}};

    PlacementPlan plan;
    plan.initial = {{1, 0, 0},  {2, 0, 0},  {0, 99, 1},
                    {0, 99, 0}, {0, 98, 2}, {0, 90, 0}};
    plan.gate_sites = {{0}};
    plan.transitions.resize(1);
    const TrapRef trap_b{0, 99, 1};
    // Vacating job V: q2 and q4 move down together (two AOD rows, so
    // its pickup phase is long); dependent job D: q3 moves along the
    // top row onto q2's vacated trap. D conflicts with q2's movement
    // (column merge), so the split must put D in its own job.
    plan.transitions[0].move_in = {
        {2, trap_b, {0, 95, 1}},
        {4, {0, 98, 2}, {0, 94, 2}},
        {3, {0, 99, 0}, trap_b},
    };

    const ZairProgram program = scheduleProgram(arch, staged, plan);
    program.checkInvariants();
    expectGolden("directed/intra-group-dependency/program",
                 programDigest(program));

    const ZairInstr *dependent = jobEndingAt(program, trap_b);
    const ZairInstr *vacating = jobBeginningAt(program, trap_b);
    ASSERT_NE(dependent, nullptr);
    ASSERT_NE(vacating, nullptr);
    ASSERT_NE(dependent, vacating);
    EXPECT_EQ(dependent->begin_locs.size(), 1u);
    EXPECT_EQ(vacating->begin_locs.size(), 2u);
    // Distinct AODs: nothing but the trap dependency serializes them.
    EXPECT_NE(dependent->aod_id, vacating->aod_id);
    const double vacate_end =
        vacating->begin_time_us + vacating->pickup_done_us;
    EXPECT_GE(dependent->begin_time_us + dependent->move_done_us,
              vacate_end - 1e-9);
    // The constraint binds: D's short move cannot cover V's two-row
    // pickup, so D cannot start at time zero.
    EXPECT_GT(dependent->begin_time_us, 0.0);
}

/**
 * Two jobs exchanging traps form a dependency cycle; the scheduler
 * must fall back to the longest-first order and still satisfy the
 * vacate constraint for the later job.
 */
TEST(SchedulerDirected, TrapExchangeCycleFallsBackAndCompletes)
{
    const Architecture arch = presets::referenceZoned(2);
    StagedCircuit staged = bareStaged(4, 1);
    staged.rydberg[0].gates = {{0, 0, 1}};

    PlacementPlan plan;
    plan.initial = {{1, 0, 0}, {2, 0, 0}, {0, 99, 0}, {0, 99, 1}};
    plan.gate_sites = {{0}};
    plan.transitions.resize(1);
    const TrapRef trap_a{0, 99, 0};
    const TrapRef trap_b{0, 99, 1};
    // Order reversal along the row: q2 and q3 swap traps, which one
    // AOD cannot execute, so the split yields two jobs that each end
    // on the trap the other vacates.
    plan.transitions[0].move_out = {
        {2, trap_a, trap_b},
        {3, trap_b, trap_a},
    };

    const ZairProgram program = scheduleProgram(arch, staged, plan);
    program.checkInvariants();
    expectGolden("directed/trap-exchange-cycle/program",
                 programDigest(program));

    int jobs = 0;
    const ZairInstr *first = nullptr, *second = nullptr;
    for (const ZairInstr &in : program.instrs) {
        if (in.kind != ZairKind::RearrangeJob)
            continue;
        (jobs == 0 ? first : second) = &in;
        ++jobs;
    }
    ASSERT_EQ(jobs, 2);
    // The forced (first-emitted) job starts unconstrained; the second
    // job arrives on the first job's vacated trap no earlier than that
    // trap's pickup end.
    EXPECT_EQ(first->begin_time_us, 0.0);
    EXPECT_GE(second->begin_time_us + second->move_done_us,
              first->begin_time_us + first->pickup_done_us - 1e-9);
}

TEST(SchedulerDirected, OneQGroupingMergesEqualUnitaries)
{
    const Architecture arch = presets::referenceZoned();
    StagedCircuit staged = bareStaged(4, 0);
    // Interleaved equal angles: {q0, q2} share a unitary, {q1, q3}
    // share another with a smaller rounded key.
    staged.oneQ[0].ops = {{0, {0.7, 0.0, 0.0}},
                          {1, {0.5, 0.0, 0.0}},
                          {2, {0.7, 0.0, 0.0}},
                          {3, {0.5, 0.0, 0.0}}};

    PlacementPlan plan;
    plan.initial = {{0, 99, 0}, {0, 99, 1}, {0, 99, 2}, {0, 99, 3}};

    const ZairProgram program = scheduleProgram(arch, staged, plan);
    expectGolden("directed/1q-grouping/program", programDigest(program));

    ASSERT_EQ(program.instrs.size(), 3u); // init + two grouped 1qGates
    const ZairInstr &g1 = program.instrs[1];
    const ZairInstr &g2 = program.instrs[2];
    // Groups come out in ascending rounded-key order (0.5 before 0.7),
    // members in encounter order.
    EXPECT_EQ(g1.unitary.theta, 0.5);
    ASSERT_EQ(g1.locs.size(), 2u);
    EXPECT_EQ(g1.locs[0].q, 1);
    EXPECT_EQ(g1.locs[1].q, 3);
    EXPECT_EQ(g2.unitary.theta, 0.7);
    ASSERT_EQ(g2.locs.size(), 2u);
    EXPECT_EQ(g2.locs[0].q, 0);
    EXPECT_EQ(g2.locs[1].q, 2);
    // The Raman laser is sequential: one group after the other, each
    // lasting ops * t_1q.
    const double t1q = arch.params().t_1q_us;
    EXPECT_EQ(g1.begin_time_us, 0.0);
    EXPECT_EQ(g1.end_time_us, 2.0 * t1q);
    EXPECT_EQ(g2.begin_time_us, g1.end_time_us);
    EXPECT_EQ(g2.end_time_us, g1.end_time_us + 2.0 * t1q);
}

TEST(SchedulerDirected, RydbergPulsesSplitPerZoneAscending)
{
    const Architecture arch = presets::multiZoneArch2();
    ASSERT_EQ(arch.entanglementZones().size(), 2u);
    StagedCircuit staged = bareStaged(4, 1);
    staged.rydberg[0].gates = {{0, 0, 1}, {1, 2, 3}};

    // Gate 0 deliberately sits in the higher-numbered zone so the
    // emission order must come from zone sorting, not gate order.
    const int site_z1 = arch.siteIndex(1, 0, 0);
    const int site_z0 = arch.siteIndex(0, 0, 0);
    PlacementPlan plan;
    plan.initial = {arch.site(site_z1).left, arch.site(site_z1).right,
                    arch.site(site_z0).left, arch.site(site_z0).right};
    plan.gate_sites = {{site_z1, site_z0}};
    plan.transitions.resize(1);

    const ZairProgram program = scheduleProgram(arch, staged, plan);
    expectGolden("directed/zone-grouping/program", programDigest(program));

    std::vector<const ZairInstr *> pulses;
    for (const ZairInstr &in : program.instrs)
        if (in.kind == ZairKind::Rydberg)
            pulses.push_back(&in);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_EQ(pulses[0]->zone_id, 0);
    EXPECT_EQ(pulses[0]->gate_qubits, (std::vector<int>{2, 3}));
    EXPECT_EQ(pulses[1]->zone_id, 1);
    EXPECT_EQ(pulses[1]->gate_qubits, (std::vector<int>{0, 1}));
}

TEST(SchedulerDirected, MultiAodSchedulingBalancesJobs)
{
    const Architecture arch = presets::referenceZoned(4);
    ZacOptions opts;
    opts.sa_iterations = 100;
    const ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ising_n42"));

    std::set<int> aods_used;
    for (const ZairInstr &in : r.program.instrs)
        if (in.kind == ZairKind::RearrangeJob) {
            EXPECT_GE(in.aod_id, 0);
            EXPECT_LT(in.aod_id, 4);
            aods_used.insert(in.aod_id);
        }
    // The parallel Ising transitions must actually spread over AODs.
    EXPECT_GE(aods_used.size(), 2u);

    expectGolden("reference_4aod/sa100/ising_n42/program",
                 programDigest(r.program));
}

} // namespace
} // namespace zac
