#include "fidelity/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.hpp"

namespace zac
{

FidelityAccumulator::FidelityAccumulator(const Architecture &arch,
                                         int num_qubits)
    : arch_(arch), num_qubits_(num_qubits)
{
    const std::size_t n = static_cast<std::size_t>(num_qubits);
    // Incremental excitation accounting: each qubit's entanglement zone
    // is maintained through init and every rearrange job via the cached
    // entanglementZoneOfTrap table, together with a per-zone occupancy
    // counter. A Rydberg pulse then charges
    //   occupancy[zone] - (distinct gated qubits inside the zone)
    // excitations, O(gated qubits) instead of O(n) point lookups.
    //
    // Zone codes: -2 = never placed (never excited), -1 = placed
    // outside every entanglement zone (entanglementZoneAt's miss
    // value), >= 0 = zone index. Occupancy counters cover [-1, #zones)
    // shifted by one, so a pulse charges exactly the placed idlers in
    // its zone for every zone_id, not just valid ones.
    num_zones_ = static_cast<int>(arch.entanglementZones().size());
    // Busy time per qubit: gates + transfers; movement/waiting is idle.
    busy_us_.assign(n, 0.0);
    qubit_zone_.assign(n, -2);
    zone_occupancy_.assign(static_cast<std::size_t>(num_zones_) + 1, 0);
    // Stamped bitmap deduplicating gate_qubits per pulse.
    gated_stamp_.assign(n, 0);
}

void
FidelityAccumulator::moveToZone(std::size_t q, int zone)
{
    const int old_zone = qubit_zone_[q];
    if (old_zone >= -1)
        --zone_occupancy_[static_cast<std::size_t>(old_zone + 1)];
    qubit_zone_[q] = zone;
    ++zone_occupancy_[static_cast<std::size_t>(zone + 1)];
}

void
FidelityAccumulator::feed(const ZairInstr &in)
{
    const NaHardwareParams &hw = arch_.params();
    switch (in.kind) {
      case ZairKind::Init:
        saw_init_ = true;
        for (const QLoc &l : in.init_locs) {
            if (l.q < 0 || l.q >= num_qubits_)
                panic("fidelity: init qubit out of range");
            moveToZone(
                static_cast<std::size_t>(l.q),
                arch_.entanglementZoneOfTrap(arch_.trapId(l.trap())));
        }
        break;
      case ZairKind::OneQGate:
        if (!saw_init_)
            panic("fidelity: 1q gate before init");
        g1_ += static_cast<int>(in.locs.size());
        for (const QLoc &l : in.locs) {
            if (l.q < 0 || l.q >= num_qubits_)
                panic("fidelity: 1q gate qubit out of range");
            busy_us_[static_cast<std::size_t>(l.q)] += hw.t_1q_us;
        }
        break;
      case ZairKind::Rydberg: {
        if (!saw_init_)
            panic("fidelity: rydberg before init");
        g2_ += static_cast<int>(in.gate_qubits.size()) / 2;
        for (const int q : in.gate_qubits) {
            if (q < 0 || q >= num_qubits_)
                panic("fidelity: rydberg qubit out of range");
            busy_us_[static_cast<std::size_t>(q)] += hw.t_rydberg_us;
        }
        // Every non-gated qubit inside the pulsed zone is excited.
        if (in.zone_id >= -1 && in.zone_id < num_zones_) {
            ++pulse_stamp_;
            int gated_in_zone = 0;
            for (const int q : in.gate_qubits) {
                if (gated_stamp_[static_cast<std::size_t>(q)] !=
                    pulse_stamp_) {
                    gated_stamp_[static_cast<std::size_t>(q)] =
                        pulse_stamp_;
                    if (qubit_zone_[static_cast<std::size_t>(q)] ==
                        in.zone_id)
                        ++gated_in_zone;
                }
            }
            n_excitation_ +=
                zone_occupancy_[static_cast<std::size_t>(
                    in.zone_id + 1)] -
                gated_in_zone;
        }
        break;
      }
      case ZairKind::RearrangeJob:
        if (!saw_init_)
            panic("fidelity: rearrange job before init");
        n_transfer_ += 2 * static_cast<int>(in.begin_locs.size());
        for (const QLoc &l : in.begin_locs) {
            if (l.q < 0 || l.q >= num_qubits_)
                panic("fidelity: rearrange qubit out of range");
            busy_us_[static_cast<std::size_t>(l.q)] +=
                2.0 * hw.t_transfer_us;
        }
        for (const QLoc &l : in.end_locs) {
            if (l.q < 0 || l.q >= num_qubits_)
                panic("fidelity: rearrange qubit out of range");
            moveToZone(
                static_cast<std::size_t>(l.q),
                arch_.entanglementZoneOfTrap(arch_.trapId(l.trap())));
        }
        break;
    }
    makespan_us_ = std::max(makespan_us_, in.end_time_us);
}

FidelityBreakdown
FidelityAccumulator::finish() const
{
    const NaHardwareParams &hw = arch_.params();
    FidelityBreakdown out;
    out.duration_us = makespan_us_;
    out.g1 = g1_;
    out.g2 = g2_;
    out.n_excitation = n_excitation_;
    out.n_transfer = n_transfer_;

    out.f_1q = std::pow(hw.f_1q, out.g1);
    out.f_2q_gates = std::pow(hw.f_2q, out.g2);
    out.f_excitation = std::pow(hw.f_exc, out.n_excitation);
    out.f_2q = out.f_2q_gates * out.f_excitation;
    out.f_transfer = std::pow(hw.f_transfer, out.n_transfer);

    out.f_decoherence = 1.0;
    for (std::size_t q = 0; q < busy_us_.size(); ++q) {
        const double idle =
            std::max(0.0, out.duration_us - busy_us_[q]);
        const double factor = 1.0 - idle / hw.t2_us;
        if (factor <= 0.0) {
            out.f_decoherence = 0.0;
            break;
        }
        out.f_decoherence *= factor;
    }

    out.total = out.f_1q * out.f_2q * out.f_transfer * out.f_decoherence;
    return out;
}

FidelityBreakdown
evaluateFidelity(const ZairProgram &program, const Architecture &arch)
{
    FidelityAccumulator acc(arch, program.num_qubits);
    for (const ZairInstr &in : program.instrs)
        acc.feed(in);
    return acc.finish();
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        fatal("geometricMean: empty input");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace zac
