#include "zair/program.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace zac
{

void
ZairStatsAccumulator::feed(const ZairInstr &in)
{
    ZairStats &s = stats_;
    switch (in.kind) {
      case ZairKind::Init:
        break;
      case ZairKind::OneQGate:
        ++s.num_zair_instrs;
        ++s.num_machine_instrs;
        s.num_1q_gates += static_cast<int>(in.locs.size());
        break;
      case ZairKind::Rydberg:
        ++s.num_zair_instrs;
        ++s.num_machine_instrs;
        ++s.num_rydberg_stages;
        s.num_2q_gates +=
            static_cast<int>(in.gate_qubits.size()) / 2;
        break;
      case ZairKind::RearrangeJob: {
        ++s.num_zair_instrs;
        ++s.num_rearrange_jobs;
        s.num_machine_instrs +=
            static_cast<int>(in.insts.size());
        s.num_atom_transfers +=
            2 * static_cast<int>(in.begin_locs.size());
        for (const MachineInstr &mi : in.insts) {
            if (mi.kind != MachineKind::Move)
                continue;
            double max_d = 0.0;
            for (std::size_t i = 0; i < mi.row_id.size(); ++i)
                max_d = std::max(max_d,
                                 std::abs(mi.row_y_end[i] -
                                          mi.row_y_begin[i]));
            for (std::size_t i = 0; i < mi.col_id.size(); ++i)
                max_d = std::max(max_d,
                                 std::abs(mi.col_x_end[i] -
                                          mi.col_x_begin[i]));
            s.total_move_distance_um += max_d;
        }
        break;
      }
    }
    makespan_us_ = std::max(makespan_us_, in.end_time_us);
}

ZairStats
ZairStatsAccumulator::finish() const
{
    ZairStats s = stats_;
    s.makespan_us = makespan_us_;
    return s;
}

ZairStats
ZairProgram::stats() const
{
    ZairStatsAccumulator acc;
    for (const ZairInstr &in : instrs)
        acc.feed(in);
    return acc.finish();
}

double
ZairProgram::makespanUs() const
{
    double end = 0.0;
    for (const ZairInstr &in : instrs)
        end = std::max(end, in.end_time_us);
    return end;
}

void
ZairProgram::checkInvariants() const
{
    ZairInvariantChecker checker(num_qubits);
    for (const ZairInstr &in : instrs)
        checker.feed(in);
    checker.finish();
}

void
ZairInvariantChecker::checkQubit(int q) const
{
    if (q < 0 || q >= num_qubits_)
        panic("zair: qubit out of range");
}

void
ZairInvariantChecker::feed(const ZairInstr &in)
{
    if (count_++ == 0) {
        if (in.kind != ZairKind::Init)
            panic("zair: program must start with init");
    } else if (in.kind == ZairKind::Init) {
        panic("zair: init must appear exactly once");
    }
    if (in.begin_time_us < -1e-9)
        panic("zair: instruction begins before time zero");
    if (in.end_time_us + 1e-9 < in.begin_time_us)
        panic("zair: instruction ends before it begins");
    for (const QLoc &l : in.init_locs)
        checkQubit(l.q);
    for (const QLoc &l : in.locs)
        checkQubit(l.q);
    for (int q : in.gate_qubits)
        checkQubit(q);
    if (in.kind == ZairKind::RearrangeJob) {
        if (in.begin_locs.size() != in.end_locs.size())
            panic("zair: rearrange job begin/end size mismatch");
        for (std::size_t i = 0; i < in.begin_locs.size(); ++i) {
            checkQubit(in.begin_locs[i].q);
            if (in.begin_locs[i].q != in.end_locs[i].q)
                panic("zair: rearrange job permutes qubit order");
        }
    }
}

void
ZairInvariantChecker::finish() const
{
    if (count_ == 0)
        panic("zair: empty program");
}

} // namespace zac
