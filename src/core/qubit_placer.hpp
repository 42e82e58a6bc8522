/**
 * @file
 * Non-reuse dynamic qubit placement (paper Sec. V-B3): returning the
 * qubits that leave the entanglement zone to storage traps.
 *
 * Candidate traps per qubit are (i) its original (home) storage trap,
 * (ii) the k-neighbourhood of the storage trap nearest its current
 * Rydberg site, and (iii) the storage trap nearest its related qubit,
 * closed under the bounding box of those anchors. Costs follow Eq. 3
 * with the alpha-weighted lookahead term, solved as a minimum-weight
 * full matching.
 *
 * The candidate lists form a sparse graph (one row per leaving qubit,
 * columns = the union of candidate traps in TrapId order) solved by
 * minWeightSparseMatching(), which returns the dense solver's
 * assignment bit for bit, so plans match the dense-matrix formulation.
 * When the local candidates admit no full matching (a whole stage
 * leaving for the same storage edge violates Hall's condition), k
 * doubles and every qubit also gets its n * (attempt + 1) nearest
 * empty traps: the expanded graph has ~2n^2 edges, which the sparse
 * solver handles in time and memory proportional to the edges rather
 * than n x |columns|.
 */

#ifndef ZAC_CORE_QUBIT_PLACER_HPP
#define ZAC_CORE_QUBIT_PLACER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/placement_state.hpp"

namespace zac
{

/** Request to return a set of qubits to storage. */
struct QubitPlacementRequest
{
    /** Qubits leaving the entanglement zone. */
    std::vector<int> leaving;
    /**
     * Per leaving qubit: current position of its related qubit (its 2Q
     * partner in the next Rydberg stage), if any.
     */
    std::vector<std::optional<Point>> related;
    /** Neighbourhood radius k for candidate traps. */
    int k = 2;
    /** Lookahead weight alpha in Eq. 3. */
    double alpha = 0.1;
};

/**
 * Counters describing how placeQubitsInStorage() resolved its calls;
 * rows, cols, candidate_cells and edges_relaxed are summed over solves.
 */
struct QubitPlacerStats
{
    std::int64_t calls = 0;           ///< placeQubitsInStorage() calls
    std::int64_t solves = 0;          ///< sparse JV solves run
    std::int64_t expanded_solves = 0; ///< solves over the nearest-empty
                                      ///< expansion (attempt > 0)
    std::int64_t rows = 0;            ///< leaving qubits
    std::int64_t cols = 0;            ///< traps in the candidate union
    std::int64_t candidate_cells = 0; ///< graph edges costed
    std::int64_t edges_relaxed = 0;   ///< reduced costs evaluated
};

/**
 * The @p count empty storage traps nearest to @p p by ascending
 * (distance, trap), returned in TrapRef order. Found by an expanding
 * box search over the storage grids; returns every empty trap when
 * fewer than @p count exist. Used as the candidate expansion of
 * placeQubitsInStorage().
 */
std::vector<TrapRef> nearestEmptyStorageTraps(const PlacementState &state,
                                              Point p, std::size_t count);

/**
 * Choose a distinct empty storage trap for every leaving qubit,
 * minimizing the total Eq. 3 cost. Candidate sets are expanded until a
 * full matching exists.
 *
 * @param stats optional counters, accumulated across calls.
 */
std::vector<TrapRef> placeQubitsInStorage(
    const PlacementState &state, const QubitPlacementRequest &request,
    QubitPlacerStats *stats = nullptr);

/**
 * The static alternative ('Vanilla' ablation): every leaving qubit
 * returns to its home storage trap.
 */
std::vector<TrapRef> returnQubitsHome(const PlacementState &state,
                                      const std::vector<int> &leaving);

} // namespace zac

#endif // ZAC_CORE_QUBIT_PLACER_HPP
