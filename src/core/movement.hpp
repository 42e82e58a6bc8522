/**
 * @file
 * The reuse-aware dynamic placement driver (paper Sec. V-B).
 *
 * Walks the Rydberg stages, producing for every stage a gate-to-site
 * assignment and the qubit movements into and out of the entanglement
 * zone. At every stage boundary two complete variants are built — one
 * with qubit reuse and one without — and the cheaper one (by the
 * transition-cost proxy) is committed, per the paper's "commit to the
 * better solution between the two". Both variants run journaled on one
 * PlacementState, so keeping either costs the qubits the two moved,
 * not the qubit count.
 */

#ifndef ZAC_CORE_MOVEMENT_HPP
#define ZAC_CORE_MOVEMENT_HPP

#include <cstdint>
#include <vector>

#include "arch/spec.hpp"
#include "core/gate_placer.hpp"
#include "core/options.hpp"
#include "core/placement_state.hpp"
#include "core/qubit_placer.hpp"
#include "transpile/stages.hpp"

namespace zac
{

/** One qubit movement between two traps. */
struct Movement
{
    int qubit = -1;
    TrapRef from;
    TrapRef to;

    friend bool operator==(const Movement &, const Movement &) = default;
};

/** The movements surrounding one Rydberg stage. */
struct StageTransition
{
    /** Entanglement -> storage moves executed after the previous stage. */
    std::vector<Movement> move_out;
    /** Storage -> entanglement moves executed before this stage. */
    std::vector<Movement> move_in;

    friend bool operator==(const StageTransition &,
                           const StageTransition &) = default;
};

/** The full placement plan consumed by the scheduler. */
struct PlacementPlan
{
    /** Initial storage trap per qubit. */
    std::vector<TrapRef> initial;
    /** Per stage, per in-stage gate index: assigned Rydberg site. */
    std::vector<std::vector<int>> gate_sites;
    /** transitions[t] precedes Rydberg stage t. */
    std::vector<StageTransition> transitions;
    /** Number of qubit reuses committed (for reports). */
    int reused_qubits = 0;
    /** Stage boundaries where the reuse variant won the comparison. */
    int reuse_boundaries = 0;
    /** Direct site-to-site moves (the Sec. X extension), if enabled. */
    int direct_moves = 0;

    friend bool operator==(const PlacementPlan &,
                           const PlacementPlan &) = default;
};

/**
 * Wall-clock breakdown of one runDynamicPlacement() call, filled only
 * when requested (a null profile adds zero work to the hot path).
 * "Movement" in the bench schema is qubit_placement + move_build +
 * check_seconds: everything the driver does besides the reuse matching
 * and the gate-placement matching.
 */
struct PlacementProfile
{
    double reuse_matching_seconds = 0.0;  ///< Hopcroft–Karp matchings
    double gate_placement_seconds = 0.0;  ///< placeGates (exact windows)
    double qubit_placement_seconds = 0.0; ///< storage placement / homes
    double move_build_seconds = 0.0;      ///< move-ins + cost + rollback
    double check_seconds = 0.0;           ///< final plan replay check
    GatePlacerStats gate_placer;          ///< window/growth/dense counters
    QubitPlacerStats qubit_placer;        ///< storage-placement counters
    /** Qubit slots the variant rollbacks wrote: one per undone journal
     *  entry and one per replayed end trap (see PlacementState). */
    std::int64_t rollback_qubits = 0;

    double
    movementSeconds() const
    {
        return qubit_placement_seconds + move_build_seconds +
               check_seconds;
    }
    double
    totalSeconds() const
    {
        return reuse_matching_seconds + gate_placement_seconds +
               movementSeconds();
    }
};

/**
 * Reusable buffers of runDynamicPlacement(): both placers', the sparse
 * solver's they share, and its own. Value-reset where used; the stay
 * flags once per call, then per boundary only the stage's qubits.
 */
struct PlacementScratch
{
    GatePlacerScratch gates;
    QubitPlacerScratch storage;
    SparseMatchingScratch matching;
    GatePlacementRequest greq;
    QubitPlacementRequest qreq;
    std::vector<char> stays;   ///< per qubit: stays at its site
    std::vector<double> dists; ///< a boundary's move distances
    std::vector<QubitTrap> reuse_ends; ///< the reuse variant's end traps
};

/**
 * Run initial + dynamic placement for @p staged on @p arch.
 *
 * @param initial  the initial storage placement (from the SA or trivial
 *                 placer; one trap per qubit).
 * @param profile  optional per-phase timing accumulator.
 * @param scratch  reusable buffers (null: call-local ones).
 */
PlacementPlan runDynamicPlacement(const Architecture &arch,
                                  const StagedCircuit &staged,
                                  const std::vector<TrapRef> &initial,
                                  const ZacOptions &opts,
                                  PlacementProfile *profile = nullptr,
                                  PlacementScratch *scratch = nullptr);

/** Validate a plan against its staged circuit (testing hook). */
void checkPlacementPlan(const Architecture &arch,
                        const StagedCircuit &staged,
                        const PlacementPlan &plan);

} // namespace zac

#endif // ZAC_CORE_MOVEMENT_HPP
