/**
 * @file
 * Jonker–Volgenant shortest-augmenting-path minimum-weight full matching
 * for rectangular problems, in two forms that return the same bits.
 *
 * This is the algorithm the paper uses (via SciPy) for gate placement
 * and non-reuse qubit placement (Sec. V-B2/V-B3). Every row (gate or
 * qubit) must be assigned to a distinct column (site or trap); columns
 * may outnumber rows.
 *
 *  - minWeightFullMatching() takes a dense cost matrix and follows
 *    SciPy's rectangular LSAP line by line: each augmenting path scans
 *    every remaining column per visited row, O(n^2 m) for n rows and
 *    m columns. Gate placement keeps it as its reference
 *    (placeGatesReference()).
 *  - minWeightSparseMatching() takes each row's candidate columns as
 *    compressed sparse rows sorted by cost and relaxes a visited row's
 *    edges lazily, cheapest first, only while they can still reach the
 *    next column to settle. Memory is O(E + n + m) for E edges; a path
 *    costs O(R log R) for the R edges it relaxes (R <= E), where the
 *    dense path scans m columns per visited row. Storage placement
 *    uses it on its local candidate graphs and, once those violate
 *    Hall's condition, on nearest-empty windows with tails; gate
 *    placement on per-gate windows with tails (below).
 *
 * The sparse solver keeps its tentative columns in an indexed 4-ary
 * heap on their distance, one entry per column, so it never holds
 * more than the C <= R columns a path reached: a relaxation that
 * lowers a column's distance lowers its key in place (O(log C)), and
 * the settled column leaves its slot. The columns tied at the minimum
 * are the root's subtree of entries at the root's key (every ancestor
 * of such an entry holds that key too), so SciPy's tie rule reads them
 * off the heap without popping; the others keep their slots.
 *
 * Bit-identity contract: on the same graph (a dense cell is feasible
 * exactly when the sparse row lists that column, with the same cost),
 * the sparse solver makes every choice the dense one makes — the same
 * column settled at each step, including SciPy's tie order, and the
 * same predecessor row per column — so `feasible`, `row_to_col`, the
 * duals (returned on request) and `total_cost` are bit-equal.
 * tests/test_matching.cpp checks this on seeded instances full of
 * exact ties.
 *
 * Tails extend the contract to a graph listed on demand. A row's tail
 * is a lower bound on the cost of every column it does not list; the
 * solver files it like one more edge. When a path would have to relax
 * it, i.e. when an unlisted column could reach or tie the next column
 * to settle, the solver asks the caller's grow hook for the row's
 * longer list and continues the same path: the row's visit distance
 * and dual have not changed since its visit, so the new edges relax
 * exactly as they would have on the full matrix (every unlisted cell
 * at its true cost). The result is the full matrix's, bit for bit,
 * and a growth costs the hook's work plus a copy of the row.
 */

#ifndef ZAC_MATCHING_JONKER_VOLGENANT_HPP
#define ZAC_MATCHING_JONKER_VOLGENANT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace zac
{

/** Marker for a forbidden (row, column) pair. */
inline constexpr double kAssignInfeasible =
    std::numeric_limits<double>::infinity();

/** Rectangular cost matrix, row-major, with infeasible entries = inf. */
class CostMatrix
{
  public:
    CostMatrix(int rows, int cols, double fill = kAssignInfeasible)
        : rows_(rows), cols_(cols),
          data_(static_cast<std::size_t>(rows) *
                    static_cast<std::size_t>(cols),
                fill)
    {
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    double &
    at(int r, int c)
    {
        return data_[static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(c)];
    }

    double
    at(int r, int c) const
    {
        return data_[static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(c)];
    }

  private:
    int rows_;
    int cols_;
    std::vector<double> data_;
};

/**
 * Result of a minimum-weight full matching.
 *
 * The dual potentials certify optimality: at termination
 * cost(r,c) - row_duals[r] - col_duals[c] >= 0 for every feasible pair,
 * with equality on matched pairs, col_duals <= 0 everywhere, and
 * col_duals == 0 on unmatched columns (an unmatched column is only ever
 * scanned as the augmenting-path sink, which matches it).
 */
struct Assignment
{
    bool feasible = false;        ///< false if no full matching exists
    std::vector<int> row_to_col;  ///< column index per row (when feasible)
    double total_cost = 0.0;
    /** u, one per row (when feasible; the sparse solver's on request). */
    std::vector<double> row_duals;
    /** v, one per column (likewise). */
    std::vector<double> col_duals;
};

/**
 * Solve min-cost full assignment of all rows to distinct columns.
 *
 * @param cost rows() <= cols() required; infeasible pairs hold
 *             kAssignInfeasible.
 * @return Assignment with feasible == false when the feasible edges
 *         admit no full matching (callers expand candidates and retry).
 */
Assignment minWeightFullMatching(const CostMatrix &cost);

/** One candidate (column, cost) pair of a SparseCostGraph row. */
struct SparseEdge
{
    double cost = 0.0;
    int col = -1;
};

/**
 * Rectangular cost graph in compressed sparse rows: row r's candidates
 * are edges[row_start[r] .. row_start[r + 1]). Within a row the costs
 * are finite and ascending (equal costs in any order) and each column
 * appears at most once. A column a row does not list is infeasible for
 * it, unless the graph has tails: then tail[r], at least row r's last
 * cost, bounds the cost of every column row r does not list from
 * below (kAssignInfeasible: the row has no other column), and the
 * solve needs a grow hook.
 */
struct SparseCostGraph
{
    int cols = 0;
    std::vector<std::size_t> row_start{0}; ///< rows() + 1 offsets
    std::vector<SparseEdge> edges;
    std::vector<double> tail; ///< empty, or one bound per row

    int rows() const { return static_cast<int>(row_start.size()) - 1; }

    /** Empty the graph, keeping the buffers (scratch reuse). */
    void
    reset(int num_cols)
    {
        cols = num_cols;
        row_start.assign(1, 0);
        edges.clear();
        tail.clear();
    }
};

/**
 * A row's longer list, as a grow hook returns it: every edge the row
 * listed, unchanged and in the same order, then new edges at or above
 * its old tail in ascending cost; and the new tail, at least the last
 * cost. The growth must list a new edge or raise the tail. The span
 * need only live until the hook is next called: the solver copies it.
 */
struct SparseRowGrowth
{
    std::span<const SparseEdge> edges;
    double tail = kAssignInfeasible;
};

/** Grow hook of a solve with tails: row -> its longer list. */
using SparseRowGrower = std::function<SparseRowGrowth(int row)>;

/**
 * Reusable buffers of minWeightSparseMatching(). The per-column and
 * per-row arrays only grow, and between calls every entry is neutral
 * (shortest inf, column duals 0, marks 0, overrides, heap slots and
 * row4col -1): a path resets the entries it touched, including the
 * slots of the columns still in its heap, and a call, however it ends,
 * the columns it matched (only those ever settle, so only they hold a
 * dual), so neither pays O(columns) for its scratch.
 */
struct SparseMatchingScratch
{
    /** Row r's list: `len` edges from `at` in the graph's edges, or in
     *  `pool` once grown, and its tail. */
    struct RowList
    {
        std::size_t at = 0;
        std::size_t len = 0;
        double tail = kAssignInfeasible;
        bool pooled = false;
    };
    /** Min-heap entry (key, index); the smallest key is on top. */
    using HeapEntry = std::pair<double, int>;

    std::vector<double> shortest;  ///< per column; inf when untouched
    std::vector<double> v;         ///< per column: dual, 0 when unmatched
    std::vector<int> path;         ///< per column: predecessor row
    std::vector<int> path_edge;    ///< per column: that edge's index
                                   ///< in the row's list
    std::vector<int> row4col;      ///< per column: matched row or -1
    std::vector<char> sc;          ///< per column: settled this path
    std::vector<int> heap_slot;    ///< per column: col_heap entry or -1
    /**
     * SciPy's `remaining` array, stored as overrides of its initial
     * order (position p holds column nc - 1 - p; -1 = not overridden).
     */
    std::vector<int> col_at, pos_of;
    std::vector<RowList> rows;        ///< per row: set at each call
    std::vector<double> matched_cost; ///< per row: its matched edge
    std::vector<int> order;           ///< per row: visit rank, or -1
    std::vector<double> row_min;      ///< per row: min_val at its visit
    std::vector<std::size_t> next_edge; ///< per row: first unrelaxed
    const SparseEdge *graph_edges = nullptr; ///< the call's graph
    std::vector<SparseEdge> pool;     ///< grown rows' lists
    std::vector<int> sinks;           ///< the call's matched columns
    std::vector<int> touched, visited_rows, settled_cols;
    std::vector<int> ties;            ///< col_heap slots at the minimum
    std::vector<std::pair<int, int>> moved; ///< (position, column)
    /** (shortest, column), a 4-ary heap indexed by heap_slot: one
     *  entry per tentative column. */
    std::vector<HeapEntry> col_heap;
    std::vector<HeapEntry> row_heap;  ///< (bound, row), one per row
};

/** Whether minWeightSparseMatching() returns the dual potentials. */
enum class Duals { Skip, Return };

/**
 * The sparse solver: bit-equal to minWeightFullMatching() on the dense
 * matrix of the same graph, tails grown on demand to the full matrix
 * (see the file comment).
 *
 * Each visited row keeps one heap entry holding a lower bound on the
 * reduced cost of its cheapest unrelaxed edge, or of its tail once its
 * edges are spent; the bound subtracts the largest column dual seen so
 * far, so it holds in floating point too. An edge is relaxed only once
 * its bound could reach the cheapest tentative column, so a path that
 * settles after a few columns touches a few edges per row instead of
 * the whole row. A call costs O(R log R) for the R edges its paths
 * relax, plus O(rows) for the result (O(cols) more when the duals are
 * returned). Rows are (offset, length) spans into the graph, or into
 * the scratch's pool once grown; the column duals live in the scratch
 * too, and only the entries a call touched are reset, so a call on a
 * warm scratch allocates nothing but its per-row result.
 *
 * @param graph rows() <= cols required.
 * @param edges_relaxed optional counter, incremented by the number of
 *        reduced costs evaluated.
 * @param grow required when the graph has tails: called with a row
 *        whose tail the search reached. A list that breaks the
 *        SparseRowGrowth contract is fatal.
 * @param scratch reusable buffers (null: call-local ones).
 * @param duals Duals::Return fills row_duals and col_duals (the
 *        bit-equality tests compare them with the dense solver's).
 * @return Assignment with feasible == false when the graph (grown as
 *         far as the hook takes it) admits no full matching.
 */
Assignment minWeightSparseMatching(const SparseCostGraph &graph,
                                   std::int64_t *edges_relaxed = nullptr,
                                   const SparseRowGrower &grow = {},
                                   SparseMatchingScratch *scratch = nullptr,
                                   Duals duals = Duals::Skip);

} // namespace zac

#endif // ZAC_MATCHING_JONKER_VOLGENANT_HPP
