/**
 * @file
 * End-to-end tests of the ZAC pipeline: placement plans, scheduler
 * correctness invariants (qubit/trap/AOD/Raman constraints), ablation
 * options, and determinism.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "circuit/generators.hpp"
#include "core/compiler.hpp"
#include "core/scheduler.hpp"
#include "transpile/optimize.hpp"

namespace zac
{
namespace
{

/** Scheduler invariants every compiled program must satisfy. */
void
checkSchedule(const ZairProgram &p, const Architecture &arch)
{
    p.checkInvariants();
    const double eps = 1e-6;

    // Per-qubit intervals never overlap.
    std::map<int, double> qubit_free;
    // Per-AOD intervals never overlap.
    std::map<int, double> aod_free;
    // Sequential Raman laser.
    double raman_free = 0.0;
    // Trap vacate times: move into a trap only after its pickup.
    std::map<TrapRef, double> vacate;

    auto touch = [&](int q, double begin, double end) {
        auto it = qubit_free.find(q);
        if (it != qubit_free.end()) {
            EXPECT_GE(begin + eps, it->second)
                << "qubit " << q << " overlaps";
        }
        qubit_free[q] = end;
    };

    for (const ZairInstr &in : p.instrs) {
        switch (in.kind) {
          case ZairKind::Init:
            break;
          case ZairKind::OneQGate: {
            EXPECT_GE(in.begin_time_us + eps, raman_free);
            raman_free = in.end_time_us;
            // Duration: sequential 52 us per op.
            EXPECT_NEAR(in.durationUs(),
                        arch.params().t_1q_us *
                            static_cast<double>(in.locs.size()),
                        1e-6);
            for (const QLoc &l : in.locs)
                touch(l.q, in.begin_time_us, in.end_time_us);
            break;
          }
          case ZairKind::Rydberg:
            EXPECT_NEAR(in.durationUs(), arch.params().t_rydberg_us,
                        1e-9);
            for (int q : in.gate_qubits)
                touch(q, in.begin_time_us, in.end_time_us);
            break;
          case ZairKind::RearrangeJob: {
            auto it = aod_free.find(in.aod_id);
            if (it != aod_free.end()) {
                EXPECT_GE(in.begin_time_us + eps, it->second)
                    << "AOD " << in.aod_id << " overlaps";
            }
            aod_free[in.aod_id] = in.end_time_us;
            EXPECT_GE(in.aod_id, 0);
            EXPECT_LT(in.aod_id,
                      static_cast<int>(arch.aods().size()));
            for (const QLoc &l : in.begin_locs)
                touch(l.q, in.begin_time_us, in.end_time_us);
            // Trap dependency: this job's move completes no earlier
            // than the pickup that vacated each destination trap.
            const double move_end =
                in.begin_time_us + in.move_done_us;
            for (const QLoc &l : in.end_locs) {
                auto vit = vacate.find(l.trap());
                if (vit != vacate.end()) {
                    EXPECT_GE(move_end + eps, vit->second);
                }
            }
            const double pickup_end =
                in.begin_time_us + in.pickup_done_us;
            for (const QLoc &l : in.begin_locs)
                vacate[l.trap()] = pickup_end;
            break;
          }
        }
    }
}

/** Replay a program and confirm gate qubits are co-located at sites. */
void
checkGateColocation(const ZairProgram &p, const Architecture &arch)
{
    std::map<int, TrapRef> pos;
    for (const ZairInstr &in : p.instrs) {
        if (in.kind == ZairKind::Init) {
            for (const QLoc &l : in.init_locs)
                pos[l.q] = l.trap();
        } else if (in.kind == ZairKind::RearrangeJob) {
            for (const QLoc &l : in.end_locs)
                pos[l.q] = l.trap();
        } else if (in.kind == ZairKind::Rydberg) {
            ASSERT_EQ(in.gate_qubits.size() % 2, 0u);
            for (std::size_t i = 0; i + 1 < in.gate_qubits.size();
                 i += 2) {
                const Point a = arch.trapPosition(
                    pos.at(in.gate_qubits[i]));
                const Point b = arch.trapPosition(
                    pos.at(in.gate_qubits[i + 1]));
                EXPECT_NEAR(distance(a, b), 2.0, 1e-6)
                    << "gate pair not at a Rydberg site";
                EXPECT_EQ(arch.entanglementZoneAt(a), in.zone_id);
            }
        }
    }
}

struct PipelineCase
{
    const char *circuit;
    int variant; // 0 vanilla, 1 dynPlace, 2 +reuse, 3 full
};

class PipelineProperty : public ::testing::TestWithParam<PipelineCase>
{
};

TEST_P(PipelineProperty, CompiledProgramSatisfiesAllInvariants)
{
    const PipelineCase &param = GetParam();
    ZacOptions opts;
    switch (param.variant) {
      case 0: opts = ZacOptions::vanilla(); break;
      case 1: opts = ZacOptions::dynPlace(); break;
      case 2: opts = ZacOptions::dynPlaceReuse(); break;
      default: opts = ZacOptions::full(); break;
    }
    opts.sa_iterations = 150;
    const Architecture arch = presets::referenceZoned();
    ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark(param.circuit));

    checkPlacementPlan(arch, r.staged, r.plan);
    checkSchedule(r.program, arch);
    checkGateColocation(r.program, arch);

    // Sanity of the fidelity result.
    EXPECT_GT(r.fidelity.total, 0.0);
    EXPECT_LE(r.fidelity.total, 1.0);
    EXPECT_EQ(r.fidelity.g2, r.staged.count2Q());
    EXPECT_EQ(r.fidelity.g1, r.staged.count1Q());
    EXPECT_EQ(r.fidelity.n_excitation, 0);
}

std::string
caseName(const ::testing::TestParamInfo<PipelineCase> &info)
{
    static const char *variants[] = {"vanilla", "dynPlace",
                                     "dynPlaceReuse", "full"};
    return std::string(info.param.circuit) + "_" +
           variants[info.param.variant];
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineProperty,
    ::testing::Values(
        PipelineCase{"bv_n14", 0}, PipelineCase{"bv_n14", 1},
        PipelineCase{"bv_n14", 2}, PipelineCase{"bv_n14", 3},
        PipelineCase{"ghz_n23", 0}, PipelineCase{"ghz_n23", 3},
        PipelineCase{"ising_n42", 0}, PipelineCase{"ising_n42", 2},
        PipelineCase{"ising_n42", 3}, PipelineCase{"ising_n98", 3},
        PipelineCase{"qft_n18", 2}, PipelineCase{"qft_n18", 3},
        PipelineCase{"multiply_n13", 3}, PipelineCase{"seca_n11", 3},
        PipelineCase{"swap_test_n25", 3}, PipelineCase{"knn_n31", 3},
        PipelineCase{"wstate_n27", 1}, PipelineCase{"wstate_n27", 3},
        PipelineCase{"bv_n70", 3}, PipelineCase{"cat_n35", 3}),
    caseName);

TEST(Pipeline, VanillaReturnsQubitsHome)
{
    const Architecture arch = presets::referenceZoned();
    ZacCompiler compiler(arch, ZacOptions::vanilla());
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"));
    // Every move-out target must be the qubit's initial trap.
    for (const StageTransition &tr : r.plan.transitions)
        for (const Movement &m : tr.move_out)
            EXPECT_EQ(m.to,
                      r.plan.initial[static_cast<std::size_t>(
                          m.qubit)]);
    EXPECT_EQ(r.plan.reused_qubits, 0);
}

TEST(Pipeline, ReuseEngagesOnChainCircuits)
{
    const Architecture arch = presets::referenceZoned();
    ZacCompiler compiler(arch, ZacOptions::dynPlaceReuse());
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ghz_n23"));
    // GHZ chains share a qubit between consecutive stages: reuse must
    // engage on nearly every boundary.
    EXPECT_GE(r.plan.reused_qubits, 15);
    // Reuse reduces transfers relative to no-reuse.
    ZacCompiler plain(arch, ZacOptions::dynPlace());
    const ZacResult r2 =
        plain.compile(bench_circuits::paperBenchmark("ghz_n23"));
    EXPECT_LT(r.fidelity.n_transfer, r2.fidelity.n_transfer);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 120;
    ZacCompiler compiler(arch, opts);
    const Circuit c = bench_circuits::paperBenchmark("multiply_n13");
    const ZacResult a = compiler.compile(c);
    const ZacResult b = compiler.compile(c);
    EXPECT_DOUBLE_EQ(a.fidelity.total, b.fidelity.total);
    EXPECT_DOUBLE_EQ(a.program.makespanUs(), b.program.makespanUs());
    EXPECT_EQ(a.program.instrs.size(), b.program.instrs.size());
}

TEST(Pipeline, MultiAodUsesAllArms)
{
    const Architecture arch = presets::referenceZoned(2);
    ZacOptions opts;
    opts.sa_iterations = 100;
    ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("ising_n42"));
    std::set<int> used;
    for (const ZairInstr &in : r.program.instrs)
        if (in.kind == ZairKind::RearrangeJob)
            used.insert(in.aod_id);
    EXPECT_EQ(used.size(), 2u);
    checkSchedule(r.program, arch);
}

TEST(Pipeline, MultiZoneArchitectureCompiles)
{
    const Architecture arch = presets::multiZoneArch2();
    ZacOptions opts;
    opts.sa_iterations = 100;
    ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::ising(30));
    checkSchedule(r.program, arch);
    checkGateColocation(r.program, arch);
    // Both zones host gates at least once.
    std::set<int> zones;
    for (const ZairInstr &in : r.program.instrs)
        if (in.kind == ZairKind::Rydberg)
            zones.insert(in.zone_id);
    EXPECT_EQ(zones.size(), 2u);
}

TEST(Pipeline, RejectsOversizedCircuits)
{
    const Architecture arch = presets::multiZoneArch1(); // 120 traps
    ZacCompiler compiler(arch, ZacOptions::vanilla());
    EXPECT_THROW(
        compiler.compile(bench_circuits::ghz(200)), FatalError);
}

TEST(Pipeline, RejectsBadPlacementOptions)
{
    const Architecture arch = presets::referenceZoned();
    auto rejects = [&arch](const ZacOptions &opts, const std::string &name) {
        try {
            ZacCompiler compiler(arch, opts);
            ADD_FAILURE() << name << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    };
    for (const double alpha : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               -0.5}) {
        ZacOptions opts;
        opts.lookahead_alpha = alpha;
        rejects(opts, "lookahead_alpha");
    }
    ZacOptions negative_k;
    negative_k.candidate_k = -3;
    rejects(negative_k, "candidate_k");

    // The boundary values are valid: no lookahead, no k-neighbourhood.
    ZacOptions zero;
    zero.lookahead_alpha = 0.0;
    zero.candidate_k = 0;
    zero.sa_iterations = 100;
    const ZacResult r =
        ZacCompiler(arch, zero).compile(bench_circuits::ising(42));
    EXPECT_GT(r.fidelity.total, 0.0);
    EXPECT_GT(r.staged.numRydbergStages(), 0);
}

TEST(Pipeline, EmptyAndOneQOnlyCircuits)
{
    const Architecture arch = presets::referenceZoned();
    ZacCompiler compiler(arch, ZacOptions::vanilla());
    Circuit only_1q(3, "only1q");
    only_1q.h(0);
    only_1q.rz(1, 0.5);
    const ZacResult r = compiler.compile(only_1q);
    EXPECT_EQ(r.staged.numRydbergStages(), 0);
    EXPECT_EQ(r.fidelity.g1, 2);
    EXPECT_EQ(r.fidelity.g2, 0);
    EXPECT_GT(r.fidelity.total, 0.99);
}

TEST(Pipeline, ZairStatsArePopulated)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 100;
    ZacCompiler compiler(arch, opts);
    const ZacResult r =
        compiler.compile(bench_circuits::paperBenchmark("bv_n14"));
    const ZairStats s = r.program.stats();
    EXPECT_EQ(s.num_2q_gates, 13);
    EXPECT_GT(s.num_rearrange_jobs, 0);
    EXPECT_GT(s.num_machine_instrs, s.num_zair_instrs);
    EXPECT_GT(s.makespan_us, 0.0);
    EXPECT_GT(s.total_move_distance_um, 0.0);
}

} // namespace
} // namespace zac

// Extension coverage: direct in-zone reuse (paper Sec. X future work).

namespace zac
{
namespace
{

TEST(DirectReuse, InvariantsHoldWithExtensionEnabled)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts = ZacOptions::full();
    opts.sa_iterations = 150;
    opts.use_direct_reuse = true;
    ZacCompiler compiler(arch, opts);
    for (const char *name :
         {"qft_n18", "ising_n42", "seca_n11", "knn_n31"}) {
        const ZacResult r =
            compiler.compile(bench_circuits::paperBenchmark(name));
        checkPlacementPlan(arch, r.staged, r.plan);
        checkSchedule(r.program, arch);
        checkGateColocation(r.program, arch);
        EXPECT_EQ(r.fidelity.n_excitation, 0) << name;
    }
}

TEST(DirectReuse, CutsTransfersOnDenseCircuits)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions base = ZacOptions::full();
    base.sa_iterations = 150;
    ZacOptions ext = base;
    ext.use_direct_reuse = true;
    const Circuit c = bench_circuits::paperBenchmark("qft_n18");
    const ZacResult rb = ZacCompiler(arch, base).compile(c);
    const ZacResult re = ZacCompiler(arch, ext).compile(c);
    EXPECT_GT(re.plan.direct_moves, 0);
    EXPECT_LT(re.fidelity.n_transfer, rb.fidelity.n_transfer);
    EXPECT_GT(re.fidelity.total, rb.fidelity.total);
}

TEST(DirectReuse, NoEffectWithoutConsecutiveActivity)
{
    // GHZ's shared qubit is already handled by site-pinned reuse; the
    // chain partner is never active in two consecutive stages...
    const Architecture arch = presets::referenceZoned();
    ZacOptions ext = ZacOptions::full();
    ext.sa_iterations = 150;
    ext.use_direct_reuse = true;
    const ZacResult r = ZacCompiler(arch, ext).compile(
        bench_circuits::paperBenchmark("wstate_n27"));
    // ... so wstate (strictly alternating partners) has no direct moves
    // beyond the pinned reuse.
    EXPECT_EQ(r.plan.direct_moves, 0);
    checkSchedule(r.program, arch);
}

} // namespace
} // namespace zac
