/**
 * @file
 * Unit tests for ZAIR: machine-level lowering of rearrangement jobs,
 * AOD compatibility, program statistics, and JSON serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "zair/machine.hpp"
#include "zair/program.hpp"
#include "zair/serialize.hpp"

namespace zac
{
namespace
{

// ------------------------------------------------- AOD compatibility

TEST(AodCompatibility, OrderPreservingMovesAreCompatible)
{
    // Two qubits moving right, preserving x order and same y.
    EXPECT_TRUE(movementsAodCompatible({{0, 0}, {3, 0}},
                                       {{10, 5}, {14, 5}}));
}

TEST(AodCompatibility, CrossingIsRejected)
{
    EXPECT_FALSE(movementsAodCompatible({{0, 0}, {3, 0}},
                                        {{14, 5}, {10, 5}}));
    // y-order reversal.
    EXPECT_FALSE(movementsAodCompatible({{0, 0}, {0, 3}},
                                        {{0, 13}, {0, 10}}));
}

TEST(AodCompatibility, MergingIsRejected)
{
    // Distinct columns may not merge into one.
    EXPECT_FALSE(movementsAodCompatible({{0, 0}, {3, 0}},
                                        {{5, 5}, {5, 5 + 3}}));
    // A shared column may not split.
    EXPECT_FALSE(movementsAodCompatible({{0, 0}, {0, 3}},
                                        {{5, 10}, {8, 13}}));
}

TEST(AodCompatibility, SharedRowMustStayShared)
{
    EXPECT_TRUE(movementsAodCompatible({{0, 0}, {3, 0}},
                                       {{2, 7}, {6, 7}}));
    EXPECT_FALSE(movementsAodCompatible({{0, 0}, {3, 0}},
                                        {{2, 7}, {6, 9}}));
}

// ---------------------------------------------------- job lowering

ZairInstr
makeJob(std::vector<QLoc> begin, std::vector<QLoc> end)
{
    ZairInstr job;
    job.kind = ZairKind::RearrangeJob;
    job.aod_id = 0;
    job.begin_locs = std::move(begin);
    job.end_locs = std::move(end);
    return job;
}

TEST(JobLowering, ReproducesThePaperWorkedExample)
{
    // Appendix H: q0 and q13 move from storage row 99 (cols 1 and 13)
    // to sites (1,0,0) and (2,0,0); one pickup, one move of 33.5 um
    // (~110.4 us), one drop: total ~140.4 us with both transfers.
    const Architecture arch = presets::referenceZoned();
    ZairInstr job = makeJob({{0, 0, 99, 1}, {13, 0, 99, 13}},
                            {{0, 1, 0, 0}, {13, 2, 0, 0}});
    const JobPhases phases = lowerRearrangeJob(job, arch);
    EXPECT_DOUBLE_EQ(phases.pickup_us, 15.0);
    EXPECT_DOUBLE_EQ(phases.drop_us, 15.0);
    EXPECT_NEAR(phases.move_us, 110.4, 0.2);
    EXPECT_NEAR(phases.total(), 140.4, 0.3);
    // One activate, one move, one deactivate.
    ASSERT_EQ(job.insts.size(), 3u);
    EXPECT_EQ(job.insts[0].kind, MachineKind::Activate);
    EXPECT_EQ(job.insts[1].kind, MachineKind::Move);
    EXPECT_EQ(job.insts[2].kind, MachineKind::Deactivate);
    // The activate captures one row and two columns.
    EXPECT_EQ(job.insts[0].row_id.size(), 1u);
    EXPECT_EQ(job.insts[0].col_id.size(), 2u);
    EXPECT_DOUBLE_EQ(job.insts[0].row_y[0], 297.0);
}

TEST(JobLowering, MultiRowJobsInsertParking)
{
    const Architecture arch = presets::referenceZoned();
    // Two different storage rows -> two pickup phases with parking.
    ZairInstr job = makeJob({{0, 0, 98, 0}, {1, 0, 99, 1}},
                            {{0, 1, 0, 0}, {1, 1, 1, 1}});
    const JobPhases phases = lowerRearrangeJob(job, arch);
    int activates = 0, moves = 0;
    for (const MachineInstr &mi : job.insts) {
        activates += mi.kind == MachineKind::Activate;
        moves += mi.kind == MachineKind::Move;
    }
    EXPECT_EQ(activates, 2);
    EXPECT_EQ(moves, 2); // parking move + the main move
    EXPECT_GT(phases.pickup_us, 30.0); // two transfers plus parking
}

TEST(JobLowering, RejectsIncompatibleJobs)
{
    const Architecture arch = presets::referenceZoned();
    // Crossing columns.
    ZairInstr job = makeJob({{0, 0, 99, 0}, {1, 0, 99, 5}},
                            {{0, 1, 0, 1}, {1, 1, 0, 0}});
    EXPECT_THROW(lowerRearrangeJob(job, arch), FatalError);
}

TEST(JobLowering, RejectsEmptyOrBadAod)
{
    const Architecture arch = presets::referenceZoned();
    ZairInstr empty = makeJob({}, {});
    EXPECT_THROW(lowerRearrangeJob(empty, arch), FatalError);
    ZairInstr bad = makeJob({{0, 0, 99, 0}}, {{0, 1, 0, 0}});
    bad.aod_id = 3;
    EXPECT_THROW(lowerRearrangeJob(bad, arch), FatalError);
}

TEST(JobLowering, MoveDurationIsMaxDisplacement)
{
    const Architecture arch = presets::referenceZoned();
    // One short, one long move in the same job (same row).
    ZairInstr job = makeJob({{0, 0, 99, 0}, {1, 0, 99, 30}},
                            {{0, 1, 0, 0}, {1, 1, 0, 10}});
    lowerRearrangeJob(job, arch);
    double max_d = 0.0;
    for (std::size_t i = 0; i < 2; ++i)
        max_d = std::max(
            max_d, distance(arch.trapPosition(job.begin_locs[i].trap()),
                            arch.trapPosition(job.end_locs[i].trap())));
    const MachineInstr &move = job.insts[1];
    EXPECT_NEAR(move.duration_us, moveDurationUs(max_d), 1e-9);
}

// ----------------------------------------------------- program/stats

ZairProgram
tinyProgram(const Architecture &arch)
{
    ZairProgram p;
    p.num_qubits = 2;
    p.circuit_name = "tiny";
    p.arch_name = arch.name();

    ZairInstr init;
    init.kind = ZairKind::Init;
    init.init_locs = {{0, 0, 99, 0}, {1, 0, 99, 1}};
    p.instrs.push_back(init);

    ZairInstr job = makeJob({{0, 0, 99, 0}, {1, 0, 99, 1}},
                            {{0, 1, 0, 0}, {1, 2, 0, 0}});
    const JobPhases phases = lowerRearrangeJob(job, arch);
    job.begin_time_us = 0.0;
    job.end_time_us = phases.total();
    p.instrs.push_back(job);

    ZairInstr ryd;
    ryd.kind = ZairKind::Rydberg;
    ryd.zone_id = 0;
    ryd.gate_qubits = {0, 1};
    ryd.begin_time_us = phases.total();
    ryd.end_time_us = phases.total() + 0.36;
    p.instrs.push_back(ryd);

    ZairInstr oneq;
    oneq.kind = ZairKind::OneQGate;
    oneq.unitary = {1.0, 0.0, 0.0};
    oneq.locs = {{0, 1, 0, 0}};
    oneq.begin_time_us = ryd.end_time_us;
    oneq.end_time_us = ryd.end_time_us + 52.0;
    p.instrs.push_back(oneq);
    return p;
}

TEST(ZairProgram, StatsCountInstructionKinds)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    p.checkInvariants();
    const ZairStats s = p.stats();
    EXPECT_EQ(s.num_zair_instrs, 3);       // job + rydberg + 1q
    EXPECT_EQ(s.num_rearrange_jobs, 1);
    EXPECT_EQ(s.num_rydberg_stages, 1);
    EXPECT_EQ(s.num_1q_gates, 1);
    EXPECT_EQ(s.num_2q_gates, 1);
    EXPECT_EQ(s.num_atom_transfers, 4);    // 2 qubits x pickup+drop
    EXPECT_EQ(s.num_machine_instrs, 2 + 3); // 1q + ryd + 3 job instrs
    EXPECT_GT(s.makespan_us, 140.0);
}

TEST(ZairProgram, InvariantsCatchCorruption)
{
    const Architecture arch = presets::referenceZoned();
    ZairProgram p = tinyProgram(arch);
    std::swap(p.instrs[0], p.instrs[1]); // init not first
    EXPECT_THROW(p.checkInvariants(), PanicError);

    ZairProgram p2 = tinyProgram(arch);
    p2.instrs[1].end_time_us = -1.0;
    EXPECT_THROW(p2.checkInvariants(), PanicError);

    ZairProgram p3 = tinyProgram(arch);
    p3.instrs[1].end_locs.pop_back();
    EXPECT_THROW(p3.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsRejectEmptyProgram)
{
    EXPECT_THROW(ZairProgram{}.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsRejectRydbergBeforeInit)
{
    // A program whose first instruction is a Rydberg pulse — the shape
    // scheduleProgram leans on checkInvariants to rule out.
    ZairProgram p;
    p.num_qubits = 2;
    ZairInstr ryd;
    ryd.kind = ZairKind::Rydberg;
    ryd.gate_qubits = {0, 1};
    ryd.end_time_us = 0.36;
    p.instrs.push_back(ryd);
    EXPECT_THROW(p.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsRejectSecondInit)
{
    const Architecture arch = presets::referenceZoned();
    ZairProgram p = tinyProgram(arch);
    ZairInstr init;
    init.kind = ZairKind::Init;
    init.init_locs = {{0, 0, 99, 0}};
    p.instrs.push_back(init);
    EXPECT_THROW(p.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsRejectOutOfRangeQubits)
{
    const Architecture arch = presets::referenceZoned();

    ZairProgram init_bad = tinyProgram(arch);
    init_bad.instrs[0].init_locs[0].q = 5; // num_qubits == 2
    EXPECT_THROW(init_bad.checkInvariants(), PanicError);

    ZairProgram oneq_bad = tinyProgram(arch);
    oneq_bad.instrs[3].locs[0].q = -1;
    EXPECT_THROW(oneq_bad.checkInvariants(), PanicError);

    ZairProgram ryd_bad = tinyProgram(arch);
    ryd_bad.instrs[2].gate_qubits[1] = 7;
    EXPECT_THROW(ryd_bad.checkInvariants(), PanicError);

    ZairProgram job_bad = tinyProgram(arch);
    job_bad.instrs[1].begin_locs[0].q = 2;
    job_bad.instrs[1].end_locs[0].q = 2;
    EXPECT_THROW(job_bad.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsRejectTimeOrderingViolations)
{
    const Architecture arch = presets::referenceZoned();

    // An instruction that ends before it begins.
    ZairProgram backwards = tinyProgram(arch);
    backwards.instrs[2].end_time_us =
        backwards.instrs[2].begin_time_us - 1.0;
    EXPECT_THROW(backwards.checkInvariants(), PanicError);

    // An instruction scheduled before time zero.
    ZairProgram negative = tinyProgram(arch);
    negative.instrs[1].begin_time_us = -5.0;
    EXPECT_THROW(negative.checkInvariants(), PanicError);
}

TEST(ZairProgram, InvariantsAcceptScheduledPrograms)
{
    const Architecture arch = presets::referenceZoned();
    tinyProgram(arch).checkInvariants();
}

// ----------------------------------------- prepared lowering variant

TEST(JobLowering, PreparedVariantMatchesSelfResolvingLowering)
{
    const Architecture arch = presets::referenceZoned();
    ZairInstr a = makeJob({{0, 0, 99, 0}, {1, 0, 99, 1}, {2, 0, 98, 3}},
                          {{0, 1, 1, 0}, {1, 2, 1, 0}, {2, 1, 0, 1}});
    ZairInstr b = a;
    const JobPhases pa = lowerRearrangeJob(a, arch);

    RearrangeLowerScratch scratch;
    scratch.begin.resize(b.begin_locs.size());
    scratch.end.resize(b.end_locs.size());
    for (std::size_t i = 0; i < b.begin_locs.size(); ++i) {
        scratch.begin[i] = arch.trapPosition(b.begin_locs[i].trap());
        scratch.end[i] = arch.trapPosition(b.end_locs[i].trap());
    }
    const JobPhases pb = lowerRearrangeJobPrepared(b, arch, scratch);

    EXPECT_EQ(pa.pickup_us, pb.pickup_us);
    EXPECT_EQ(pa.move_us, pb.move_us);
    EXPECT_EQ(pa.drop_us, pb.drop_us);
    EXPECT_EQ(a.pickup_done_us, b.pickup_done_us);
    EXPECT_EQ(a.move_done_us, b.move_done_us);
    ASSERT_EQ(a.insts.size(), b.insts.size());
    for (std::size_t i = 0; i < a.insts.size(); ++i) {
        EXPECT_EQ(a.insts[i].kind, b.insts[i].kind);
        EXPECT_EQ(a.insts[i].row_id, b.insts[i].row_id);
        EXPECT_EQ(a.insts[i].col_id, b.insts[i].col_id);
        EXPECT_EQ(a.insts[i].row_y, b.insts[i].row_y);
        EXPECT_EQ(a.insts[i].col_x, b.insts[i].col_x);
        EXPECT_EQ(a.insts[i].row_y_begin, b.insts[i].row_y_begin);
        EXPECT_EQ(a.insts[i].row_y_end, b.insts[i].row_y_end);
        EXPECT_EQ(a.insts[i].col_x_begin, b.insts[i].col_x_begin);
        EXPECT_EQ(a.insts[i].col_x_end, b.insts[i].col_x_end);
        EXPECT_EQ(a.insts[i].duration_us, b.insts[i].duration_us);
    }

    // The prepared variant insists on one position per movement.
    RearrangeLowerScratch short_scratch;
    short_scratch.begin.resize(1);
    short_scratch.end.resize(1);
    ZairInstr c = makeJob({{0, 0, 99, 0}, {1, 0, 99, 1}},
                          {{0, 1, 0, 0}, {1, 2, 0, 0}});
    EXPECT_THROW(lowerRearrangeJobPrepared(c, arch, short_scratch),
                 PanicError);
}

// ------------------------------------------------------ serialization

TEST(ZairSerialize, EmitsPaperShapedJson)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    const json::Value v = zairProgramToJson(p);
    EXPECT_EQ(v.at("circuit").asString(), "tiny");
    const json::Value &instrs = v.at("instructions");
    ASSERT_EQ(instrs.size(), 4u);
    EXPECT_EQ(instrs.at(0).at("type").asString(), "init");
    const json::Value &job = instrs.at(1);
    EXPECT_EQ(job.at("type").asString(), "rearrangeJob");
    EXPECT_EQ(job.at("aod_id").asInt(), 0);
    // begin_locs are (q, a, r, c) 4-tuples, as in Fig. 19.
    EXPECT_EQ(job.at("begin_locs").at(0).size(), 4u);
    EXPECT_EQ(job.at("begin_locs").at(0).at(0).asInt(), 0);
    EXPECT_EQ(job.at("begin_locs").at(0).at(2).asInt(), 99);
    const json::Value &insts = job.at("insts");
    EXPECT_EQ(insts.at(0).at("type").asString(), "activate");
    EXPECT_EQ(insts.at(1).at("type").asString(), "move");
    EXPECT_EQ(insts.at(2).at("type").asString(), "deactivate");
    EXPECT_EQ(instrs.at(2).at("type").asString(), "rydberg");
    EXPECT_EQ(instrs.at(2).at("zone_id").asInt(), 0);
    EXPECT_EQ(instrs.at(3).at("type").asString(), "1qGate");
    // The whole document parses back.
    EXPECT_NO_THROW(json::parse(v.dump(2)));
}

TEST(ZairSerialize, FileRoundTripParses)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    const std::string path =
        ::testing::TempDir() + "/zac_zair_test.json";
    saveZairProgram(path, p);
    const json::Value v = json::parseFile(path);
    EXPECT_EQ(v.at("num_qubits").asInt(), 2);
}

} // namespace
} // namespace zac

// The tests below extend the original suite: full JSON round-trip of
// programs through the deserializer.

namespace zac
{
namespace
{

TEST(ZairSerialize, ProgramRoundTripsThroughJson)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    const ZairProgram back =
        zairProgramFromJson(zairProgramToJson(p));
    back.checkInvariants();
    ASSERT_EQ(back.instrs.size(), p.instrs.size());
    EXPECT_EQ(back.num_qubits, p.num_qubits);
    EXPECT_EQ(back.circuit_name, p.circuit_name);
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
        EXPECT_EQ(back.instrs[i].kind, p.instrs[i].kind);
        EXPECT_DOUBLE_EQ(back.instrs[i].begin_time_us,
                         p.instrs[i].begin_time_us);
        EXPECT_DOUBLE_EQ(back.instrs[i].end_time_us,
                         p.instrs[i].end_time_us);
    }
    // Job details survive.
    const ZairInstr &job = back.instrs[1];
    EXPECT_EQ(job.begin_locs, p.instrs[1].begin_locs);
    EXPECT_EQ(job.end_locs, p.instrs[1].end_locs);
    ASSERT_EQ(job.insts.size(), p.instrs[1].insts.size());
    EXPECT_EQ(job.insts[1].kind, MachineKind::Move);
    EXPECT_DOUBLE_EQ(job.insts[1].duration_us,
                     p.instrs[1].insts[1].duration_us);
    // Rydberg gate qubits survive, so fidelity can be re-evaluated.
    EXPECT_EQ(back.instrs[2].gate_qubits, p.instrs[2].gate_qubits);
}

TEST(ZairSerialize, LoadedProgramEvaluatesIdentically)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    const std::string path =
        ::testing::TempDir() + "/zac_zair_roundtrip.json";
    saveZairProgram(path, p);
    const ZairProgram back = loadZairProgram(path);
    EXPECT_EQ(back.stats().num_atom_transfers,
              p.stats().num_atom_transfers);
    EXPECT_DOUBLE_EQ(back.makespanUs(), p.makespanUs());
}

// saveZairProgram streams through ZairStreamWriter; its file must hold
// exactly what writing the DOM with json::writeFile would.
TEST(ZairSerialize, SavedFileHasTheDomWriteFileBytes)
{
    const Architecture arch = presets::referenceZoned();
    const ZairProgram p = tinyProgram(arch);
    const std::string streamed =
        ::testing::TempDir() + "/zac_zair_streamed.json";
    const std::string dom = ::testing::TempDir() + "/zac_zair_dom.json";
    saveZairProgram(streamed, p);
    json::writeFile(dom, zairProgramToJson(p));
    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    EXPECT_FALSE(slurp(dom).empty());
    EXPECT_EQ(slurp(streamed), slurp(dom));
    std::remove(streamed.c_str());
    std::remove(dom.c_str());
}

TEST(ZairSerialize, SaveReportsAFailedWrite)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    const Architecture arch = presets::referenceZoned();
    try {
        saveZairProgram("/dev/full", tinyProgram(arch));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ZairSerialize, RejectsUnknownInstructionType)
{
    EXPECT_THROW(
        zairInstrFromJson(json::parse(R"({"type": "teleport"})")),
        FatalError);
}

} // namespace
} // namespace zac
