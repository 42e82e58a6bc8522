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
 * leaving for the same storage edge violates Hall's condition), one
 * expanded solve follows: k doubles and every qubit also gets its
 * N = 2n nearest empty traps. Those rows are windows listed on demand:
 *  - each qubit's N-th nearest (distance, trap) key is found by
 *    counting empty traps within a radius over storage row spans, and
 *    the columns are the exact union of the nearest sets, built from
 *    those spans without listing any row;
 *  - a row lists its candidates within radius R of the qubit that cost
 *    less than sqrt(R), cheapest first, with tail sqrt(R): a candidate
 *    beyond R costs at least that much, because alpha >= 0;
 *  - when the solver reaches a tail, R grows and the row's longer list
 *    resumes the same path, so the plan is the full graph's.
 * An expanded solve thus costs the traps its paths reach, not every
 * row in full.
 */

#ifndef ZAC_CORE_QUBIT_PLACER_HPP
#define ZAC_CORE_QUBIT_PLACER_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/placement_state.hpp"
#include "matching/jonker_volgenant.hpp"

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
    /** Lookahead weight alpha in Eq. 3; finite and >= 0. */
    double alpha = 0.1;
};

/**
 * Counters describing how placeQubitsInStorage() resolved its calls;
 * rows, cols, candidate_cells, window_growths and edges_relaxed are
 * summed over solves.
 */
struct QubitPlacerStats
{
    std::int64_t calls = 0;           ///< placeQubitsInStorage() calls
    std::int64_t solves = 0;          ///< sparse JV solves run
    std::int64_t expanded_solves = 0; ///< nearest-empty expansions
    std::int64_t rows = 0;            ///< leaving qubits
    std::int64_t cols = 0;            ///< traps in the candidate union
    /** Candidate traps costed: every local candidate of a plain solve,
     *  plus each window's candidates on every build and growth. */
    std::int64_t candidate_cells = 0;
    std::int64_t window_growths = 0;  ///< expanded rows grown at a tail
    std::int64_t edges_relaxed = 0;   ///< reduced costs evaluated
};

/** Column per candidate trap, over the ids base.. (-1: none). */
struct ColumnIndex
{
    TrapId base = 0;
    std::vector<int> of;
    int &operator[](TrapId t) { return of[static_cast<std::size_t>(t - base)]; }
};

/**
 * Reusable buffers of placeQubitsInStorage(), value-reset at every use
 * except the column index: it keeps the last solve's columns, which the
 * next solve clears first, so a call that throws leaves nothing stale.
 */
struct QubitPlacerScratch
{
    std::vector<std::vector<TrapId>> cands; ///< per qubit: local traps
    std::vector<TrapId> tail;               ///< a qubit's ring and home
    std::vector<TrapId> cols;               ///< the solve's columns
    ColumnIndex col;                        ///< trap -> column
    std::vector<int> order;                 ///< qubits by position
    std::vector<StorageSpan> spans, inner;
    std::vector<int> row_offset, row_scanned, prefix; ///< empty counts
    std::vector<std::pair<double, TrapId>> ranked; ///< an annulus
    SparseCostGraph graph;
};

struct PlacementScratch; // core/movement.hpp

/**
 * The @p count empty storage traps nearest to @p p by ascending
 * (distance, trap), returned in TrapRef order; every empty trap when
 * fewer than @p count exist. The query of placeQubitsInStorage()'s
 * expansion: the count-th key is found by counting empty traps over
 * storage row spans, and the set is read off those spans.
 */
std::vector<TrapRef> nearestEmptyStorageTraps(const PlacementState &state,
                                              Point p, std::size_t count);

/**
 * Choose a distinct empty storage trap for every leaving qubit,
 * minimizing the total Eq. 3 cost. Candidate sets are expanded once
 * when the local ones admit no full matching.
 *
 * @param stats optional counters, accumulated across calls.
 * @param scratch reusable buffers (null: call-local ones).
 * @throws zac::FatalError when alpha is negative or not finite, or
 *         when the expansion admits no full matching either.
 */
std::vector<TrapRef> placeQubitsInStorage(
    const PlacementState &state, const QubitPlacementRequest &request,
    QubitPlacerStats *stats = nullptr, PlacementScratch *scratch = nullptr);

/**
 * The static alternative ('Vanilla' ablation): every leaving qubit
 * returns to its home storage trap.
 */
std::vector<TrapRef> returnQubitsHome(const PlacementState &state,
                                      const std::vector<int> &leaving);

} // namespace zac

#endif // ZAC_CORE_QUBIT_PLACER_HPP
