/**
 * @file
 * A complete ZAIR program plus summary statistics.
 */

#ifndef ZAC_ZAIR_PROGRAM_HPP
#define ZAC_ZAIR_PROGRAM_HPP

#include <string>
#include <vector>

#include "zair/instruction.hpp"

namespace zac
{

/** Aggregate statistics of a ZAIR program (Sec. IX's metrics). */
struct ZairStats
{
    int num_zair_instrs = 0;      ///< 1qGate + rydberg + rearrangeJob
    int num_machine_instrs = 0;   ///< 1qGate + rydberg + job sub-instrs
    int num_1q_gates = 0;         ///< total U3 applications
    int num_2q_gates = 0;         ///< total CZ pairs across pulses
    int num_rydberg_stages = 0;
    int num_rearrange_jobs = 0;
    int num_atom_transfers = 0;   ///< 2 per qubit per job
    double total_move_distance_um = 0.0;
    double makespan_us = 0.0;
};

/** The compiled output: timed ZAIR instructions over an architecture. */
class ZairProgram
{
  public:
    std::string circuit_name;
    std::string arch_name;
    int num_qubits = 0;
    std::vector<ZairInstr> instrs;

    /** Compute summary statistics over the instruction list. */
    ZairStats stats() const;

    /** Total wall-clock span (max end time), us. */
    double makespanUs() const;

    /**
     * Validate structural invariants: init first, timings ordered,
     * rearrange jobs have matching begin/end shapes. Throws PanicError.
     */
    void checkInvariants() const;
};

/**
 * Incremental form of ZairProgram::stats(): feed() each instruction as
 * it is produced, finish() yields the same ZairStats the DOM method
 * computes. ZairProgram::stats() is implemented on top of this, so the
 * streamed and DOM paths agree by construction.
 */
class ZairStatsAccumulator
{
  public:
    void feed(const ZairInstr &in);
    ZairStats finish() const;

  private:
    ZairStats stats_;
    double makespan_us_ = 0.0;
};

/**
 * Incremental form of ZairProgram::checkInvariants(): feed() runs the
 * per-instruction structural checks (init first and only once, timings
 * ordered, qubits in range, matching rearrange-job shapes) as each
 * instruction is produced, finish() rejects an empty program.
 * ZairProgram::checkInvariants() is implemented on top of this.
 */
class ZairInvariantChecker
{
  public:
    explicit ZairInvariantChecker(int num_qubits)
        : num_qubits_(num_qubits)
    {
    }

    void feed(const ZairInstr &in);
    void finish() const;

  private:
    void checkQubit(int q) const;

    int num_qubits_ = 0;
    std::size_t count_ = 0;
};

} // namespace zac

#endif // ZAC_ZAIR_PROGRAM_HPP
