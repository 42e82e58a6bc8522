/**
 * @file
 * The five-term circuit fidelity model (paper Sec. VII-B):
 *
 *   f = f1^g1 * f2^g2 * fexc^Nexc * ftran^Ntran * prod_q (1 - tq/T2)
 *
 * Excitation accounting is generic: during every rydberg instruction,
 * each qubit physically inside the pulsed entanglement zone that is not
 * half of a 2Q gate contributes one fexc factor. This makes the same
 * model serve ZAC (Nexc = 0), NALAC (in-zone idlers) and the monolithic
 * baselines (all idle qubits) without special cases.
 *
 * The evaluation maintains per-zone occupancy counters incrementally
 * (via the cached Architecture::entanglementZoneOfTrap table), so a
 * pulse costs O(gated qubits) instead of a scan over all qubits. Every
 * instruction kind panics when it precedes Init. Golden digests
 * (tests/test_fidelity.cpp) pin every term bit for bit.
 */

#ifndef ZAC_FIDELITY_MODEL_HPP
#define ZAC_FIDELITY_MODEL_HPP

#include <cstdint>
#include <vector>

#include "arch/spec.hpp"
#include "zair/program.hpp"

namespace zac
{

/** Fidelity terms and supporting counts for one compiled circuit. */
struct FidelityBreakdown
{
    double f_1q = 1.0;           ///< f1^g1
    double f_2q_gates = 1.0;     ///< f2^g2
    double f_excitation = 1.0;   ///< fexc^Nexc
    double f_2q = 1.0;           ///< f2^g2 * fexc^Nexc (Fig. 9's "2Q")
    double f_transfer = 1.0;     ///< ftran^Ntran
    double f_decoherence = 1.0;  ///< prod_q (1 - tq/T2)
    double total = 1.0;

    int g1 = 0;
    int g2 = 0;
    int n_excitation = 0;
    int n_transfer = 0;
    double duration_us = 0.0;    ///< circuit makespan
};

/**
 * Evaluate the fidelity of a timed ZAIR program on @p arch.
 *
 * Qubit positions are tracked through init and every rearrangement job;
 * idle time per qubit is makespan minus gate and transfer busy time
 * (movement counts as idle, per the paper).
 */
FidelityBreakdown evaluateFidelity(const ZairProgram &program,
                                   const Architecture &arch);

/**
 * Incremental form of evaluateFidelity(): feed() each instruction as it
 * is produced, finish() yields the breakdown. evaluateFidelity() is
 * implemented on top of this, so the streamed and DOM paths agree by
 * construction. The makespan is accumulated as the running max of
 * instruction end times (order-insensitive), matching makespanUs().
 */
class FidelityAccumulator
{
  public:
    FidelityAccumulator(const Architecture &arch, int num_qubits);

    void feed(const ZairInstr &in);
    FidelityBreakdown finish() const;

  private:
    void moveToZone(std::size_t q, int zone);

    const Architecture &arch_;
    int num_qubits_ = 0;
    int num_zones_ = 0;
    int g1_ = 0;
    int g2_ = 0;
    int n_excitation_ = 0;
    int n_transfer_ = 0;
    double makespan_us_ = 0.0;
    std::vector<double> busy_us_;
    std::vector<int> qubit_zone_;
    std::vector<int> zone_occupancy_;
    std::vector<std::uint32_t> gated_stamp_;
    std::uint32_t pulse_stamp_ = 0;
    bool saw_init_ = false;
};

/** Geometric mean of a list of positive values (used in reports). */
double geometricMean(const std::vector<double> &values);

} // namespace zac

#endif // ZAC_FIDELITY_MODEL_HPP
