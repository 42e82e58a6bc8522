/**
 * @file
 * The reuse-aware dynamic placement driver (paper Sec. V-B).
 *
 * Walks the Rydberg stages, producing for every stage a gate-to-site
 * assignment and the qubit movements into and out of the entanglement
 * zone. At every stage boundary two variants are built — one with
 * qubit reuse and one without — and the cheaper one (by the
 * transition-cost proxy) is committed, per the paper's "commit to the
 * better solution between the two". The reuse variant is built in
 * full. The plain (no-reuse) variant is built only as far as it can
 * still win, by transitionCostFloor():
 *  - before either variant moves anything, the floor bounds its cost
 *    by the distances to the storage and site-trap boxes; when the
 *    reuse variant costs no more, it is committed outright and the
 *    plain variant never runs (no storage placement, no rollback);
 *  - otherwise the plain variant places its move-outs, and when the
 *    floor with those exact moves still shows it cannot cost less, it
 *    stops there: its gate placement and move-ins would be thrown away.
 * Both variants run journaled on one PlacementState, so keeping either
 * costs the qubits the two moved, not the qubit count, and every qubit's
 * home is the last storage trap it occupied in the committed plan.
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
    /** Plain variants stopped after their move-outs because their cost
     *  floor showed the reuse variant wins (see transitionCostFloor). */
    std::int64_t pruned_variants = 0;
    /** Boundaries settled before the plain variant moved anything: the
     *  floor taken before either variant showed the reuse variant wins,
     *  which was committed outright. */
    std::int64_t settled_boundaries = 0;

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

/** An axis-aligned box. */
struct TrapBox
{
    Point lo;
    Point hi;
};

/** What transitionCostFloor() measures distances to. */
struct FloorBoxes
{
    TrapBox sites;   ///< every site's left and right trap
    TrapBox storage; ///< every storage trap
    /** The distance between the two boxes: at most the distance of any
     *  storage trap to any site trap, bit for bit (see movement.cpp). */
    double gap = 0.0;
};

FloorBoxes floorBoxes(const Architecture &arch);

/**
 * Build the movements bringing the gates of @p stage into their
 * @p sites and apply them to @p state. A qubit already at a trap of
 * its gate's site stays, and its partner takes the other trap; a gate
 * with neither qubit there sends the qubit with the smaller x to the
 * left trap (no crossing). Moves are listed in gate order.
 */
std::vector<Movement> buildMoveIns(PlacementState &state,
                                   const RydbergStage &stage,
                                   const std::vector<int> &sites);

/**
 * A floor on the transition cost of a stage boundary's no-reuse
 * variant into @p stage, for any storage traps and sites it picks. It
 * is taken at one of two points:
 *  - after the variant's move-outs @p move_out were applied to
 *    @p state (@p leaving null);
 *  - before any move (@p move_out empty): every qubit of @p leaving's
 *    gates sits in the zone, which holds no other qubit, and moves out
 *    to storage, in gate order, q0 before q1 (the variant without
 *    direct reuse, which would keep some of them in the zone).
 *
 * The terms are summed by transitionCost(), in the cost's order:
 *  - each move in @p move_out: its distance;
 *  - each qubit of @p leaving: its distance to the storage box;
 *  - in buildMoveIns()'s order, each gate qubit of @p stage: in
 *    storage, its distance to the site box; in the zone, nothing after
 *    the move-outs (it may stay put); and a gate with a qubit still to
 *    move out adds the boxes' gap for both its qubits.
 * The floor is at most transitionCost() of the variant's move-out and
 * move-in distances bit for bit (see movement.cpp).
 *
 * @param boxes floorBoxes() of the state's architecture.
 * @param dists scratch for the distances.
 */
double transitionCostFloor(const PlacementState &state,
                           const RydbergStage *leaving,
                           const RydbergStage &stage,
                           const std::vector<Movement> &move_out,
                           const FloorBoxes &boxes,
                           std::vector<double> &dists);

/** Validate a plan against its staged circuit (testing hook). */
void checkPlacementPlan(const Architecture &arch,
                        const StagedCircuit &staged,
                        const PlacementPlan &plan);

} // namespace zac

#endif // ZAC_CORE_MOVEMENT_HPP
