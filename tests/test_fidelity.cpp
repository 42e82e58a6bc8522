/**
 * @file
 * Unit tests for the five-term fidelity model and the ideal bounds of
 * the optimality study (Fig. 13).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "circuit/generators.hpp"
#include "core/compiler.hpp"
#include "fidelity/ideal.hpp"
#include "fidelity/model.hpp"
#include "fidelity/params.hpp"
#include "zair/machine.hpp"

#include "golden.hpp"

namespace zac
{
namespace
{

using golden::expectGolden;
using golden::fidelityDigest;

/** Hand-built program: one job in, one pulse, with a third idle qubit
 *  parked inside/outside the zone depending on @p idler_in_zone. */
ZairProgram
handProgram(const Architecture &arch, bool idler_in_zone)
{
    ZairProgram p;
    p.num_qubits = 3;
    p.circuit_name = "hand";
    p.arch_name = arch.name();

    ZairInstr init;
    init.kind = ZairKind::Init;
    init.init_locs = {{0, 0, 99, 0}, {1, 0, 99, 1}};
    if (idler_in_zone)
        init.init_locs.push_back({2, 1, 3, 3}); // inside zone 0
    else
        init.init_locs.push_back({2, 0, 99, 2});
    p.instrs.push_back(init);

    ZairInstr job;
    job.kind = ZairKind::RearrangeJob;
    job.begin_locs = {{0, 0, 99, 0}, {1, 0, 99, 1}};
    job.end_locs = {{0, 1, 0, 0}, {1, 2, 0, 0}};
    const JobPhases phases = lowerRearrangeJob(job, arch);
    job.begin_time_us = 0.0;
    job.end_time_us = phases.total();
    p.instrs.push_back(job);

    ZairInstr ryd;
    ryd.kind = ZairKind::Rydberg;
    ryd.zone_id = 0;
    ryd.gate_qubits = {0, 1};
    ryd.begin_time_us = job.end_time_us;
    ryd.end_time_us = job.end_time_us + arch.params().t_rydberg_us;
    p.instrs.push_back(ryd);
    return p;
}

TEST(FidelityModel, CountsTermsExactly)
{
    const Architecture arch = presets::referenceZoned();
    const NaHardwareParams &hw = arch.params();
    const FidelityBreakdown f =
        evaluateFidelity(handProgram(arch, false), arch);
    EXPECT_EQ(f.g1, 0);
    EXPECT_EQ(f.g2, 1);
    EXPECT_EQ(f.n_excitation, 0);
    EXPECT_EQ(f.n_transfer, 4);
    EXPECT_DOUBLE_EQ(f.f_2q_gates, hw.f_2q);
    EXPECT_DOUBLE_EQ(f.f_transfer, std::pow(hw.f_transfer, 4));
    EXPECT_DOUBLE_EQ(f.f_excitation, 1.0);
    // Decoherence: three qubits idle for most of the makespan.
    EXPECT_LT(f.f_decoherence, 1.0);
    EXPECT_GT(f.f_decoherence, 0.999); // ~140 us of 1.5 s
    EXPECT_NEAR(f.total,
                f.f_1q * f.f_2q * f.f_transfer * f.f_decoherence,
                1e-12);
}

TEST(FidelityModel, ExcitationChargesInZoneIdlers)
{
    const Architecture arch = presets::referenceZoned();
    const FidelityBreakdown in_zone =
        evaluateFidelity(handProgram(arch, true), arch);
    const FidelityBreakdown outside =
        evaluateFidelity(handProgram(arch, false), arch);
    EXPECT_EQ(in_zone.n_excitation, 1);
    EXPECT_EQ(outside.n_excitation, 0);
    EXPECT_DOUBLE_EQ(in_zone.f_excitation, arch.params().f_exc);
    EXPECT_LT(in_zone.total, outside.total);
}

TEST(FidelityModel, DecoherenceScalesWithDuration)
{
    const Architecture arch = presets::referenceZoned();
    ZairProgram p = handProgram(arch, false);
    const FidelityBreakdown base = evaluateFidelity(p, arch);
    // Stretch the makespan by a fake long instruction.
    ZairInstr wait;
    wait.kind = ZairKind::OneQGate;
    wait.unitary = {0.1, 0.0, 0.0};
    wait.locs = {{0, 1, 0, 0}};
    wait.begin_time_us = 1e5;
    wait.end_time_us = 1e5 + arch.params().t_1q_us;
    p.instrs.push_back(wait);
    const FidelityBreakdown slow = evaluateFidelity(p, arch);
    EXPECT_LT(slow.f_decoherence, base.f_decoherence);
    EXPECT_GT(slow.duration_us, base.duration_us);
}

TEST(FidelityModel, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geometricMean({0.1, 0.1, 0.1}), 0.1, 1e-12);
    EXPECT_DOUBLE_EQ(geometricMean({0.0, 1.0}), 0.0);
    EXPECT_THROW(geometricMean(std::vector<double>{}), FatalError);
}

TEST(FidelityModel, ZacProgramsHaveZeroExcitation)
{
    // The defining property of the zoned flow: idle qubits are never
    // inside a pulsed zone.
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 100;
    ZacCompiler compiler(arch, opts);
    for (const char *name : {"bv_n14", "ising_n42", "wstate_n27"}) {
        const ZacResult r =
            compiler.compile(bench_circuits::paperBenchmark(name));
        EXPECT_EQ(r.fidelity.n_excitation, 0) << name;
    }
}

TEST(FidelityModel, GoldenBreakdownOnHandProgram)
{
    // Every term of the five-factor model reproduced from first
    // principles on the in-zone-idler hand program.
    const Architecture arch = presets::referenceZoned();
    const NaHardwareParams &hw = arch.params();
    const ZairProgram p = handProgram(arch, true);
    const FidelityBreakdown f = evaluateFidelity(p, arch);

    EXPECT_EQ(f.g1, 0);
    EXPECT_EQ(f.g2, 1);
    EXPECT_EQ(f.n_excitation, 1);
    EXPECT_EQ(f.n_transfer, 4);
    EXPECT_DOUBLE_EQ(f.duration_us, p.makespanUs());

    EXPECT_DOUBLE_EQ(f.f_1q, 1.0);
    EXPECT_DOUBLE_EQ(f.f_2q_gates, hw.f_2q);
    EXPECT_DOUBLE_EQ(f.f_excitation, hw.f_exc);
    EXPECT_DOUBLE_EQ(f.f_2q, hw.f_2q * hw.f_exc);
    EXPECT_DOUBLE_EQ(f.f_transfer, std::pow(hw.f_transfer, 4));

    // Busy time: q0/q1 get two transfers plus the pulse, q2 idles the
    // whole makespan.
    const double busy01 = 2.0 * hw.t_transfer_us + hw.t_rydberg_us;
    const double dec01 = 1.0 - (f.duration_us - busy01) / hw.t2_us;
    const double dec2 = 1.0 - f.duration_us / hw.t2_us;
    EXPECT_DOUBLE_EQ(f.f_decoherence, dec01 * dec01 * dec2);
    EXPECT_DOUBLE_EQ(f.total, f.f_1q * f.f_2q * f.f_transfer *
                                  f.f_decoherence);
}

TEST(FidelityModel, UnplacedQubitIsNeverExcited)
{
    // A qubit that the init never places has no position, so it cannot
    // be charged an excitation, whatever zone is pulsed.
    const Architecture arch = presets::referenceZoned();
    ZairProgram p = handProgram(arch, false);
    p.instrs[0].init_locs.pop_back(); // q2 now has no position
    const FidelityBreakdown f = evaluateFidelity(p, arch);
    EXPECT_EQ(f.n_excitation, 0);
}

TEST(FidelityModel, ExcitationRequiresThePulsedZone)
{
    // On a two-zone architecture an idler parked in zone 0 is excited
    // by a zone-0 pulse but not by a zone-1 pulse.
    const Architecture arch = presets::multiZoneArch2();
    ASSERT_EQ(arch.entanglementZones().size(), 2u);
    for (int pulsed_zone : {0, 1}) {
        ZairProgram p;
        p.num_qubits = 3;
        ZairInstr init;
        init.kind = ZairKind::Init;
        const int site0 = arch.siteIndex(0, 0, 0); // zone 0
        const int gate_site =
            arch.siteIndex(pulsed_zone, 0, 3); // pulsed zone
        init.init_locs = {
            {0, arch.site(gate_site).left.slm,
             arch.site(gate_site).left.r, arch.site(gate_site).left.c},
            {1, arch.site(gate_site).right.slm,
             arch.site(gate_site).right.r,
             arch.site(gate_site).right.c},
            {2, arch.site(site0).left.slm, arch.site(site0).left.r,
             arch.site(site0).left.c + 1}, // zone-0 idler
        };
        p.instrs.push_back(init);
        ZairInstr ryd;
        ryd.kind = ZairKind::Rydberg;
        ryd.zone_id = pulsed_zone;
        ryd.gate_qubits = {0, 1};
        ryd.end_time_us = arch.params().t_rydberg_us;
        p.instrs.push_back(ryd);

        const FidelityBreakdown f = evaluateFidelity(p, arch);
        EXPECT_EQ(f.n_excitation, pulsed_zone == 0 ? 1 : 0)
            << "pulsed zone " << pulsed_zone;
        const std::string key = "hand/arch2/pulsed-zone" +
                                std::to_string(pulsed_zone) + "/fidelity";
        expectGolden(key, fidelityDigest(f));
    }
}

TEST(FidelityModel, DecoherenceClampsToZero)
{
    // Idle time beyond T2 must clamp f_decoherence (and the total) to
    // exactly zero rather than going negative.
    Architecture arch = presets::referenceZoned();
    arch.params().t2_us = 10.0; // far below the ~140 us makespan
    const FidelityBreakdown f =
        evaluateFidelity(handProgram(arch, false), arch);
    EXPECT_EQ(f.f_decoherence, 0.0);
    EXPECT_EQ(f.total, 0.0);
    expectGolden("hand/reference_t2_10us/idler-outside/fidelity",
                 fidelityDigest(f));
}

TEST(FidelityModel, UniformBeforeInitPanics)
{
    // Every instruction kind before init panics, not only Rydberg.
    const Architecture arch = presets::referenceZoned();

    ZairProgram ryd_first;
    ryd_first.num_qubits = 2;
    ZairInstr ryd;
    ryd.kind = ZairKind::Rydberg;
    ryd.gate_qubits = {0, 1};
    ryd_first.instrs.push_back(ryd);
    EXPECT_THROW(evaluateFidelity(ryd_first, arch), PanicError);

    ZairProgram oneq_first;
    oneq_first.num_qubits = 2;
    ZairInstr oneq;
    oneq.kind = ZairKind::OneQGate;
    oneq.locs = {{0, 0, 99, 0}};
    oneq_first.instrs.push_back(oneq);
    EXPECT_THROW(evaluateFidelity(oneq_first, arch), PanicError);

    ZairProgram job_first;
    job_first.num_qubits = 2;
    ZairInstr job;
    job.kind = ZairKind::RearrangeJob;
    job.begin_locs = {{0, 0, 99, 0}};
    job.end_locs = {{0, 0, 98, 0}};
    job_first.instrs.push_back(job);
    EXPECT_THROW(evaluateFidelity(job_first, arch), PanicError);
}

TEST(FidelityModel, OutOfRangeQubitsPanic)
{
    const Architecture arch = presets::referenceZoned();

    ZairProgram init_bad = handProgram(arch, false);
    init_bad.instrs[0].init_locs[0].q = 99;
    EXPECT_THROW(evaluateFidelity(init_bad, arch), PanicError);

    ZairProgram ryd_bad = handProgram(arch, false);
    ryd_bad.instrs[2].gate_qubits[0] = -1;
    EXPECT_THROW(evaluateFidelity(ryd_bad, arch), PanicError);

    ZairProgram job_bad = handProgram(arch, false);
    job_bad.instrs[1].begin_locs[0].q = 5;
    job_bad.instrs[1].end_locs[0].q = 5;
    EXPECT_THROW(evaluateFidelity(job_bad, arch), PanicError);
}

TEST(FidelityModel, HandProgramsMatchLegacyBitwise)
{
    const Architecture arch = presets::referenceZoned();
    for (bool idler : {false, true}) {
        const ZairProgram p = handProgram(arch, idler);
        const FidelityBreakdown f = evaluateFidelity(p, arch);
        const std::string key =
            std::string("hand/reference/") +
            (idler ? "idler-in-zone" : "idler-outside") + "/fidelity";
        expectGolden(key, fidelityDigest(f));
    }
}

// ------------------------------------ golden digests, full sweep

class FidelityEquivPaper : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FidelityEquivPaper, BitIdenticalToLegacyOnCompiledProgram)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 100;
    const ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark(GetParam()));
    const FidelityBreakdown f = evaluateFidelity(r.program, arch);
    const std::string key =
        std::string("paper/sa100/") + GetParam() + "/fidelity";
    expectGolden(key, fidelityDigest(f));
    // The compiler's own breakdown is the same evaluation.
    EXPECT_EQ(r.fidelity.total, f.total);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCircuits, FidelityEquivPaper,
    ::testing::Values("bv_n14", "bv_n19", "bv_n30", "bv_n70", "cat_n22",
                      "cat_n35", "ghz_n23", "ghz_n40", "ghz_n78",
                      "ising_n42", "ising_n98", "knn_n31",
                      "multiply_n13", "qft_n18", "seca_n11",
                      "swap_test_n25", "wstate_n27"));

// --------------------------------------------------------- parameters

TEST(Params, TableOneValues)
{
    const NaHardwareParams na = neutralAtomParams();
    EXPECT_DOUBLE_EQ(na.f_2q, 0.995);
    EXPECT_DOUBLE_EQ(na.f_1q, 0.9997);
    EXPECT_DOUBLE_EQ(na.t2_us, 1.5e6);
    EXPECT_DOUBLE_EQ(na.t_1q_us, 52.0);
    EXPECT_DOUBLE_EQ(na.t_rydberg_us, 0.36);

    const ScParams heron = heronParams();
    EXPECT_DOUBLE_EQ(heron.f_2q, 0.999);
    EXPECT_DOUBLE_EQ(heron.t2_us, 311.0);
    EXPECT_DOUBLE_EQ(heron.t_2q_us, 0.068);

    const ScParams g = gridParams();
    EXPECT_DOUBLE_EQ(g.t2_us, 89.0);
    EXPECT_DOUBLE_EQ(g.t_2q_us, 0.042);
}

// -------------------------------------------------------- ideal bounds

TEST(IdealBounds, MaxReuseMatchesHandExample)
{
    // Stage 0: (0,1), (3,4); stage 1: (1,2), (3,5), (0,4) — the paper's
    // running example (Fig. 6a): maximum matching has size 2.
    Circuit c(6);
    c.cz(0, 1);
    c.cz(3, 4);
    c.cz(1, 2);
    c.cz(3, 5);
    c.cz(0, 4);
    const StagedCircuit staged = scheduleStages(c);
    ASSERT_EQ(staged.numRydbergStages(), 2);
    const std::vector<int> reuse = maxReusePerBoundary(staged);
    ASSERT_EQ(reuse.size(), 1u);
    EXPECT_EQ(reuse[0], 2);
}

class IdealBoundsProperty
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(IdealBoundsProperty, BoundsDominateZacInOrder)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 100;
    ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark(GetParam()));
    const IdealBounds bounds =
        computeIdealBounds(r.staged, r.program, arch);
    // Nesting: reuse >= placement >= movement >= ZAC (small epsilon
    // for floating error).
    EXPECT_GE(bounds.perfect_reuse.total,
              bounds.perfect_placement.total - 1e-9);
    EXPECT_GE(bounds.perfect_placement.total,
              bounds.perfect_movement.total - 1e-9);
    EXPECT_GE(bounds.perfect_movement.total,
              r.fidelity.total - 1e-9);
    // Perfect reuse saves transfers.
    EXPECT_LE(bounds.perfect_reuse.n_transfer,
              bounds.perfect_placement.n_transfer);
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, IdealBoundsProperty,
                         ::testing::Values("bv_n14", "ghz_n23",
                                           "ising_n42", "qft_n18",
                                           "wstate_n27"));

} // namespace
} // namespace zac
