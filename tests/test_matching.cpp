/**
 * @file
 * Unit and property tests for the matching/graph algorithms, including
 * brute-force cross-checks of Hopcroft–Karp and Jonker–Volgenant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "matching/edge_coloring.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/independent_set.hpp"
#include "matching/jonker_volgenant.hpp"

namespace zac
{
namespace
{

// ----------------------------------------------------- brute force refs

/** Exhaustive maximum matching size (small graphs only). */
int
bruteMaxMatching(int num_left, const std::vector<std::vector<int>> &adj,
                 int u = 0, std::vector<bool> *used = nullptr)
{
    std::vector<bool> local;
    if (!used) {
        local.assign(64, false);
        used = &local;
    }
    if (u == num_left)
        return 0;
    int best = bruteMaxMatching(num_left, adj, u + 1, used);
    for (int v : adj[static_cast<std::size_t>(u)]) {
        if ((*used)[static_cast<std::size_t>(v)])
            continue;
        (*used)[static_cast<std::size_t>(v)] = true;
        best = std::max(
            best, 1 + bruteMaxMatching(num_left, adj, u + 1, used));
        (*used)[static_cast<std::size_t>(v)] = false;
    }
    return best;
}

/** Exhaustive min-cost full assignment over all column subsets. */
double
bruteAssignment(const CostMatrix &cost)
{
    std::vector<int> cols(static_cast<std::size_t>(cost.cols()));
    std::iota(cols.begin(), cols.end(), 0);
    double best = kAssignInfeasible;
    std::vector<int> pick(static_cast<std::size_t>(cost.rows()));
    // Permute over all injections rows -> cols via next_permutation of
    // a selector; fine for rows <= 6, cols <= 7.
    std::sort(cols.begin(), cols.end());
    do {
        double total = 0.0;
        for (int r = 0; r < cost.rows(); ++r)
            total += cost.at(r, cols[static_cast<std::size_t>(r)]);
        best = std::min(best, total);
    } while (std::next_permutation(cols.begin(), cols.end()));
    return best;
}

// -------------------------------------------------------- Hopcroft-Karp

TEST(HopcroftKarp, PerfectMatchingOnCompleteBipartite)
{
    std::vector<std::vector<int>> adj(4, {0, 1, 2, 3});
    const BipartiteMatching m = hopcroftKarp(4, 4, adj);
    EXPECT_EQ(m.size, 4);
    // Consistency: left/right matches agree.
    for (int u = 0; u < 4; ++u)
        EXPECT_EQ(m.right_match[static_cast<std::size_t>(
                      m.left_match[static_cast<std::size_t>(u)])],
                  u);
}

TEST(HopcroftKarp, EmptyAndDegenerateGraphs)
{
    EXPECT_EQ(hopcroftKarp(0, 0, {}).size, 0);
    EXPECT_EQ(hopcroftKarp(3, 5, {{}, {}, {}}).size, 0);
    EXPECT_THROW(hopcroftKarp(2, 2, {{0}}), FatalError);
    EXPECT_THROW(hopcroftKarp(1, 1, {{7}}), FatalError);
}

TEST(HopcroftKarp, AugmentingPathIsFound)
{
    // Greedy gets 1; the optimum is 2 via augmenting.
    // L0 -> {R0, R1}, L1 -> {R0}
    const BipartiteMatching m = hopcroftKarp(2, 2, {{0, 1}, {0}});
    EXPECT_EQ(m.size, 2);
}

class HkRandomProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HkRandomProperty, MatchesBruteForceSize)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 13);
    const int nl = 1 + static_cast<int>(rng.nextBelow(7));
    const int nr = 1 + static_cast<int>(rng.nextBelow(7));
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(nl));
    for (int u = 0; u < nl; ++u)
        for (int v = 0; v < nr; ++v)
            if (rng.nextBool(0.4))
                adj[static_cast<std::size_t>(u)].push_back(v);
    const BipartiteMatching m = hopcroftKarp(nl, nr, adj);
    EXPECT_EQ(m.size, bruteMaxMatching(nl, adj));
    // Validity: matched edges exist in the graph.
    for (int u = 0; u < nl; ++u) {
        const int v = m.left_match[static_cast<std::size_t>(u)];
        if (v >= 0) {
            EXPECT_NE(std::find(adj[static_cast<std::size_t>(u)].begin(),
                                adj[static_cast<std::size_t>(u)].end(),
                                v),
                      adj[static_cast<std::size_t>(u)].end());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HkRandomProperty,
                         ::testing::Range(0, 30));

// ------------------------------------------------------ Jonker-Volgenant

/**
 * The sparse graph of @p cost: each row's finite cells sorted by cost,
 * equal costs in a seeded random order (the solver must not care).
 */
SparseCostGraph
sparseGraphOf(const CostMatrix &cost, std::uint64_t tie_seed = 1)
{
    Rng rng(tie_seed);
    SparseCostGraph g;
    g.reset(cost.cols());
    for (int r = 0; r < cost.rows(); ++r) {
        std::vector<SparseEdge> row;
        for (int c = 0; c < cost.cols(); ++c)
            if (cost.at(r, c) < kAssignInfeasible)
                row.push_back({cost.at(r, c), c});
        for (std::size_t i = row.size(); i > 1; --i)
            std::swap(row[i - 1], row[rng.nextBelow(i)]);
        std::stable_sort(row.begin(), row.end(),
                         [](const SparseEdge &a, const SparseEdge &b) {
                             return a.cost < b.cost;
                         });
        g.edges.insert(g.edges.end(), row.begin(), row.end());
        g.row_start.push_back(g.edges.size());
    }
    return g;
}

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &xs)
{
    std::vector<std::uint64_t> out;
    for (double x : xs)
        out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
}

/** The sparse solver's result must bit-equal the dense solver's. */
void
expectSameAssignment(const Assignment &sparse, const Assignment &dense)
{
    ASSERT_EQ(sparse.feasible, dense.feasible);
    EXPECT_EQ(sparse.row_to_col, dense.row_to_col);
    EXPECT_EQ(bitsOf(sparse.row_duals), bitsOf(dense.row_duals));
    EXPECT_EQ(bitsOf(sparse.col_duals), bitsOf(dense.col_duals));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sparse.total_cost),
              std::bit_cast<std::uint64_t>(dense.total_cost));
}

/** Solve @p cost with both solvers; check they agree; return dense. */
Assignment
solveBoth(const CostMatrix &cost)
{
    const Assignment dense = minWeightFullMatching(cost);
    expectSameAssignment(minWeightSparseMatching(sparseGraphOf(cost), nullptr,
                                                 {}, nullptr, Duals::Return),
                         dense);
    return dense;
}

TEST(JonkerVolgenant, SolvesKnownInstance)
{
    CostMatrix cost(3, 3, 0.0);
    // Classic instance: optimal = 5 (0->1, 1->0, 2->2).
    const double data[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            cost.at(r, c) = data[r][c];
    const Assignment a = solveBoth(cost);
    ASSERT_TRUE(a.feasible);
    EXPECT_DOUBLE_EQ(a.total_cost, 5.0);
    EXPECT_EQ(a.row_to_col, (std::vector<int>{1, 0, 2}));
}

TEST(JonkerVolgenant, RectangularUsesCheapColumns)
{
    CostMatrix cost(2, 4, 100.0);
    cost.at(0, 2) = 1.0;
    cost.at(0, 3) = 2.0;
    cost.at(1, 2) = 2.0;
    cost.at(1, 3) = 30.0;
    const Assignment a = solveBoth(cost);
    ASSERT_TRUE(a.feasible);
    // Optimal: row0->3 (2), row1->2 (2).
    EXPECT_DOUBLE_EQ(a.total_cost, 4.0);
}

TEST(JonkerVolgenant, DetectsInfeasibility)
{
    CostMatrix cost(2, 2); // all infeasible
    cost.at(0, 0) = 1.0;
    cost.at(1, 0) = 1.0; // both rows need column 0
    const Assignment a = solveBoth(cost);
    EXPECT_FALSE(a.feasible);
}

TEST(JonkerVolgenant, RejectsMoreRowsThanCols)
{
    CostMatrix cost(3, 2, 1.0);
    EXPECT_THROW(minWeightFullMatching(cost), FatalError);
    EXPECT_THROW(minWeightSparseMatching(sparseGraphOf(cost)), FatalError);
}

TEST(JonkerVolgenant, EmptyProblemIsFeasible)
{
    CostMatrix cost(0, 5);
    const Assignment a = solveBoth(cost);
    EXPECT_TRUE(a.feasible);
    EXPECT_DOUBLE_EQ(a.total_cost, 0.0);
}

/** Hook that returns @p grown with tail @p tail for any row. */
SparseRowGrower
fixedGrowth(const std::vector<SparseEdge> &grown, double tail)
{
    return [&grown, tail](int) { return SparseRowGrowth{grown, tail}; };
}

/**
 * Solve a one-row graph over three columns that lists @p listed under
 * tail @p tail, with a hook that grows the row to @p grown under
 * @p grown_tail, on @p scratch. The tail is reached at once when the
 * row lists nothing, or when its tail ties its last cost.
 */
Assignment
solveGrown(const std::vector<SparseEdge> &listed, double tail,
           const std::vector<SparseEdge> &grown, double grown_tail,
           SparseMatchingScratch *scratch = nullptr)
{
    SparseCostGraph g;
    g.reset(3);
    g.edges = listed;
    g.row_start.push_back(listed.size());
    g.tail = {tail};
    return minWeightSparseMatching(
        g, nullptr, fixedGrowth(grown, grown_tail), scratch, Duals::Return);
}

/** Every entry of @p s is neutral, as between two calls. */
void
expectNeutral(const SparseMatchingScratch &s)
{
    auto all = [](const auto &v, auto x) {
        return std::all_of(v.begin(), v.end(),
                           [x](auto e) { return e == x; });
    };
    EXPECT_TRUE(all(s.shortest, kAssignInfeasible));
    EXPECT_TRUE(all(s.v, 0.0));
    EXPECT_TRUE(all(s.row4col, -1));
    EXPECT_TRUE(all(s.sc, char{0}));
    EXPECT_TRUE(all(s.col_at, -1));
    EXPECT_TRUE(all(s.pos_of, -1));
    EXPECT_TRUE(all(s.order, -1));
    EXPECT_TRUE(all(s.heap_slot, -1));
    EXPECT_TRUE(s.sinks.empty() && s.pool.empty() && s.touched.empty() &&
                s.visited_rows.empty() && s.settled_cols.empty() &&
                s.moved.empty() && s.col_heap.empty() &&
                s.row_heap.empty());
}

TEST(JonkerVolgenant, SparseRejectsMalformedGraphs)
{
    const std::vector<SparseEdge> none;
    SparseCostGraph g;
    g.reset(3);
    g.edges = {{2.0, 0}, {1.0, 1}}; // descending
    g.row_start.push_back(2);
    EXPECT_THROW(minWeightSparseMatching(g), FatalError);
    g.edges = {{1.0, 0}, {2.0, 3}}; // column out of range
    EXPECT_THROW(minWeightSparseMatching(g), FatalError);
    g.edges = {{1.0, 0}, {kAssignInfeasible, 1}}; // not finite
    EXPECT_THROW(minWeightSparseMatching(g), FatalError);
    g.edges = {{1.0, 0}}; // offsets past the edge list
    EXPECT_THROW(minWeightSparseMatching(g), FatalError);
    g.edges = {{1.0, 0}, {2.0, 1}};
    g.tail = {3.0, 3.0}; // two tails for one row
    EXPECT_THROW(minWeightSparseMatching(g, nullptr,
                                         fixedGrowth(none, 3.0)),
                 FatalError);
    g.tail = {1.5}; // a listed cost above the tail
    EXPECT_THROW(minWeightSparseMatching(g, nullptr,
                                         fixedGrowth(none, 3.0)),
                 FatalError);
    g.tail = {2.0}; // a tail may equal the last listed cost ...
    EXPECT_TRUE(minWeightSparseMatching(g, nullptr,
                                        fixedGrowth(none, 3.0))
                    .feasible);
    // ... but tails need a hook.
    EXPECT_THROW(minWeightSparseMatching(g), FatalError);

    // The growth contract. A valid growth, from a tail that ties the
    // last cost and from an empty list:
    const std::vector<SparseEdge> one = {{1.0, 0}};
    const std::vector<SparseEdge> two = {{1.0, 0}, {1.0, 1}};
    EXPECT_TRUE(solveGrown(one, 1.0, two, kAssignInfeasible).feasible);
    EXPECT_TRUE(solveGrown(none, 1.0, one, 1.5).feasible);
    // A shorter list.
    EXPECT_THROW(solveGrown(one, 1.0, none, 2.0), FatalError);
    // A listed edge changed.
    EXPECT_THROW(solveGrown(one, 1.0, {{1.0, 1}}, 2.0), FatalError);
    // A new edge below the old tail.
    EXPECT_THROW(solveGrown(none, 2.0, {{1.5, 0}}, 3.0), FatalError);
    // Descending costs.
    EXPECT_THROW(solveGrown(none, 1.0, {{2.0, 0}, {1.5, 1}}, 3.0),
                 FatalError);
    // A column out of range.
    EXPECT_THROW(solveGrown(none, 1.0, {{2.0, 3}}, 3.0), FatalError);
    // A tail below the row's last cost.
    EXPECT_THROW(solveGrown(none, 1.0, {{2.0, 0}}, 1.5), FatalError);
    // No new edge and no higher tail: the solve would not progress.
    // It throws mid-path, and leaves its scratch neutral for the next
    // solves on it.
    SparseMatchingScratch scratch;
    EXPECT_THROW(solveGrown(one, 1.0, one, 1.0, &scratch), FatalError);
    ASSERT_FALSE(scratch.shortest.empty());
    ASSERT_FALSE(scratch.heap_slot.empty());
    expectNeutral(scratch);
    // The same throw after two paths moved a column dual (row 1's path
    // goes through column 0, taking v[0] to -1): the scratch's duals go
    // back to 0 too.
    SparseCostGraph dual_graph;
    dual_graph.reset(3);
    dual_graph.edges = {{0.0, 0}, {1.0, 1}, {0.0, 0}, {5.0, 1}};
    dual_graph.row_start = {0, 2, 4};
    dual_graph.tail = {kAssignInfeasible, kAssignInfeasible};
    const Assignment two_rows = minWeightSparseMatching(
        dual_graph, nullptr, fixedGrowth(none, 1.0), nullptr, Duals::Return);
    ASSERT_TRUE(two_rows.feasible);
    EXPECT_EQ(two_rows.col_duals, (std::vector<double>{-1.0, 0.0, 0.0}));
    dual_graph.row_start.push_back(4); // row 2 lists nothing ...
    dual_graph.tail.push_back(1.0);    // ... and cannot grow
    EXPECT_THROW(minWeightSparseMatching(dual_graph, nullptr,
                                         fixedGrowth(none, 1.0), &scratch),
                 FatalError);
    expectNeutral(scratch);
    CostMatrix cost(3, 3, 0.0);
    cost.at(0, 1) = cost.at(1, 0) = cost.at(2, 2) = -1.0;
    const Assignment dense = minWeightFullMatching(cost);
    EXPECT_EQ(dense.row_to_col, (std::vector<int>{1, 0, 2}));
    expectSameAssignment(
        minWeightSparseMatching(sparseGraphOf(cost), nullptr, {}, &scratch,
                                Duals::Return),
        dense);
    CostMatrix grown(1, 3);
    grown.at(0, 0) = grown.at(0, 1) = 1.0;
    expectSameAssignment(
        solveGrown(one, 1.0, two, kAssignInfeasible, &scratch),
        minWeightFullMatching(grown));
    expectNeutral(scratch);
}

/**
 * Solver equivalence on seeded rectangular instances: each row lists
 * 1..m random columns at small-integer costs, so exact ties in both
 * the reduced costs and the predecessor choice are common, and sparse
 * rows make some instances infeasible. The sparse solver must return
 * the dense solver's bits.
 */
TEST(JonkerVolgenant, SparseBitEqualsDenseOnRandomInstances)
{
    int feasible = 0;
    int infeasible = 0;
    std::int64_t relaxed = 0;
    for (int seed = 0; seed < 600; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 17);
        const int rows = 1 + static_cast<int>(rng.nextBelow(40));
        const int cols = rows + static_cast<int>(rng.nextBelow(
                                    static_cast<std::uint64_t>(rows) + 4));
        const int max_cost = 1 + static_cast<int>(rng.nextBelow(6));
        // Every third instance uses the pipeline's kind of costs:
        // square roots of distances, with ties only by symmetry.
        const bool sqrt_costs = seed % 3 == 2;
        // Half the instances cap the row degree at 1..4 candidates,
        // which often violates Hall's condition.
        const int max_degree =
            seed % 2 == 0 ? cols : 1 + static_cast<int>(rng.nextBelow(4));
        CostMatrix cost(rows, cols);
        std::vector<int> perm(static_cast<std::size_t>(cols));
        std::iota(perm.begin(), perm.end(), 0);
        for (int r = 0; r < rows; ++r) {
            const int degree =
                1 + static_cast<int>(rng.nextBelow(
                        static_cast<std::uint64_t>(
                            std::min(cols, max_degree))));
            for (int i = 0; i < degree; ++i) {
                const std::size_t pick =
                    static_cast<std::size_t>(i) +
                    rng.nextBelow(static_cast<std::uint64_t>(cols - i));
                std::swap(perm[static_cast<std::size_t>(i)], perm[pick]);
                const int c = perm[static_cast<std::size_t>(i)];
                cost.at(r, c) =
                    sqrt_costs
                        ? std::sqrt(std::hypot(r % 7 - c % 7, c / 7))
                        : static_cast<double>(rng.nextBelow(
                              static_cast<std::uint64_t>(max_cost) + 1));
            }
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Assignment dense = minWeightFullMatching(cost);
        for (std::uint64_t tie_seed : {1u, 2u})
            expectSameAssignment(
                minWeightSparseMatching(sparseGraphOf(cost, tie_seed),
                                        &relaxed, {}, nullptr,
                                        Duals::Return),
                dense);
        ++(dense.feasible ? feasible : infeasible);
    }
    // The sweep must exercise both outcomes.
    EXPECT_GT(feasible, 200);
    EXPECT_GT(infeasible, 100);
    EXPECT_GT(relaxed, 0);
}

/**
 * Tails grown on demand, on seeded dense instances: each row lists a
 * random prefix of its cells by ascending cost (equal costs in seeded
 * order) and files a tail between its last listed cost and its first
 * unlisted one. When the solver reaches a tail, the hook re-lists the
 * row from its full sorted row: a few more edges, the rest of the row,
 * or only a higher tail, so a row may grow several times. Every solve
 * must bit-equal the dense solver on the full matrix. Costs are small
 * integers (exact ties everywhere) or square roots of distances (ties
 * by symmetry).
 */
TEST(JonkerVolgenant, SparseWithTailsGrowsToBitEqualFull)
{
    int grown_instances = 0;
    int settled_on_prefixes = 0;
    std::int64_t growths = 0;
    for (int seed = 0; seed < 3000; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 7877 + 5);
        const int rows = 1 + static_cast<int>(rng.nextBelow(30));
        const int cols = rows + static_cast<int>(rng.nextBelow(
                                    static_cast<std::uint64_t>(rows) + 4));
        const int max_cost = 1 + static_cast<int>(rng.nextBelow(6));
        const bool sqrt_costs = seed % 2 == 1;
        CostMatrix cost(rows, cols);
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                cost.at(r, c) =
                    sqrt_costs
                        ? std::sqrt(std::hypot(r % 7 - c % 7, c / 7))
                        : static_cast<double>(rng.nextBelow(
                              static_cast<std::uint64_t>(max_cost) + 1));
        const SparseCostGraph full = sparseGraphOf(cost, seed + 1);
        const auto len = static_cast<std::size_t>(cols);
        // A tail for row r listing its first n edges: between its last
        // listed cost and its first unlisted one.
        auto tailAfter = [&](Rng &tail_rng, int r, std::size_t n) {
            if (n == len)
                return kAssignInfeasible;
            const std::size_t lo =
                full.row_start[static_cast<std::size_t>(r)];
            const double hi = full.edges[lo + n].cost;
            const double last =
                n > 0 ? full.edges[lo + n - 1].cost : hi - 1.0;
            return std::clamp(last + tail_rng.nextDouble() * (hi - last),
                              last, hi);
        };

        // Truncate every row of the full sparse graph.
        const double keep = 0.2 * static_cast<double>(1 + seed % 4);
        bool truncated = false;
        std::vector<std::size_t> listed;
        SparseCostGraph g;
        g.reset(cols);
        for (int r = 0; r < rows; ++r) {
            const std::size_t lo = full.row_start[static_cast<std::size_t>(r)];
            listed.push_back(std::min<std::size_t>(
                len, static_cast<std::size_t>(keep * cols) +
                         rng.nextBelow(3)));
            g.edges.insert(g.edges.end(), full.edges.begin() + lo,
                           full.edges.begin() + lo + listed.back());
            g.row_start.push_back(g.edges.size());
            g.tail.push_back(tailAfter(rng, r, listed.back()));
            truncated = truncated || listed.back() < len;
        }

        Rng grow_rng(static_cast<std::uint64_t>(seed) + 11);
        std::vector<double> tails = g.tail;
        int calls = 0;
        auto grow = [&](int r) {
            ++calls;
            const auto ri = static_cast<std::size_t>(r);
            const std::size_t lo = full.row_start[ri];
            std::size_t &n = listed[ri];
            double &tail = tails[ri];
            EXPECT_LT(n, len) << "row " << r << " grew past its row";
            const double hi = full.edges[lo + n].cost;
            if (tail < hi && grow_rng.nextBool(0.2)) {
                tail = hi; // no new edge, a higher tail
            } else {
                n = grow_rng.nextBool(0.25)
                        ? len
                        : std::min(len, n + 1 + grow_rng.nextBelow(4));
                tail = tailAfter(grow_rng, r, n);
            }
            return SparseRowGrowth{
                std::span<const SparseEdge>(full.edges.data() + lo, n),
                tail};
        };
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameAssignment(
            minWeightSparseMatching(g, nullptr, grow, nullptr, Duals::Return),
            minWeightFullMatching(cost));
        growths += calls;
        if (calls > 0)
            ++grown_instances;
        else if (truncated)
            ++settled_on_prefixes;
    }
    // Both outcomes: 949 instances reach a tail and grow, and the other
    // 1997 truncated ones settle on their prefixes alone.
    EXPECT_EQ(grown_instances, 949);
    EXPECT_EQ(settled_on_prefixes, 1997);
    EXPECT_GT(growths, grown_instances);
}

class JvRandomProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(JvRandomProperty, MatchesBruteForceCost)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const int rows = 1 + static_cast<int>(rng.nextBelow(5));
    const int cols = rows + static_cast<int>(rng.nextBelow(3));
    CostMatrix cost(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            if (rng.nextBool(0.8))
                cost.at(r, c) =
                    std::floor(rng.nextDouble() * 100.0) / 10.0;
    const Assignment a = solveBoth(cost);
    const double brute = bruteAssignment(cost);
    if (brute == kAssignInfeasible) {
        EXPECT_FALSE(a.feasible);
    } else {
        ASSERT_TRUE(a.feasible);
        EXPECT_NEAR(a.total_cost, brute, 1e-9);
        // Distinct columns.
        std::vector<int> sorted = a.row_to_col;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::unique(sorted.begin(), sorted.end()),
                  sorted.end());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JvRandomProperty,
                         ::testing::Range(0, 40));

// ------------------------------------------------------ independent set

TEST(IndependentSet, OnTriangleAndPath)
{
    // Triangle: MIS size 1.
    const std::vector<std::vector<int>> tri{{1, 2}, {0, 2}, {0, 1}};
    EXPECT_EQ(greedyMaximalIndependentSet(3, tri).size(), 1u);
    // Path 0-1-2-3-4: MIS {0,2,4}.
    const std::vector<std::vector<int>> path{
        {1}, {0, 2}, {1, 3}, {2, 4}, {3}};
    EXPECT_EQ(greedyMaximalIndependentSet(5, path),
              (std::vector<int>{0, 2, 4}));
}

TEST(IndependentSet, PartitionCoversAllVertices)
{
    const std::vector<std::vector<int>> tri{{1, 2}, {0, 2}, {0, 1}};
    const auto groups = partitionIntoIndependentSets(3, tri);
    EXPECT_EQ(groups.size(), 3u);
    int covered = 0;
    for (const auto &g : groups)
        covered += static_cast<int>(g.size());
    EXPECT_EQ(covered, 3);
}

class MisRandomProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MisRandomProperty, SetsAreIndependentAndMaximal)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
    const int n = 2 + static_cast<int>(rng.nextBelow(20));
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
            if (rng.nextBool(0.3)) {
                adj[static_cast<std::size_t>(u)].push_back(v);
                adj[static_cast<std::size_t>(v)].push_back(u);
            }
    const std::vector<int> mis = greedyMaximalIndependentSet(n, adj);
    std::vector<bool> in_set(static_cast<std::size_t>(n), false);
    for (int u : mis)
        in_set[static_cast<std::size_t>(u)] = true;
    // Independence.
    for (int u : mis)
        for (int v : adj[static_cast<std::size_t>(u)])
            EXPECT_FALSE(in_set[static_cast<std::size_t>(v)]);
    // Maximality: every vertex outside has a neighbour inside.
    for (int u = 0; u < n; ++u) {
        if (in_set[static_cast<std::size_t>(u)])
            continue;
        bool blocked = false;
        for (int v : adj[static_cast<std::size_t>(u)])
            blocked |= in_set[static_cast<std::size_t>(v)];
        EXPECT_TRUE(blocked) << "vertex " << u;
    }
    // Partition covers everything exactly once.
    const auto groups = partitionIntoIndependentSets(n, adj);
    std::vector<int> count(static_cast<std::size_t>(n), 0);
    for (const auto &g : groups)
        for (int u : g)
            ++count[static_cast<std::size_t>(u)];
    for (int c : count)
        EXPECT_EQ(c, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisRandomProperty,
                         ::testing::Range(0, 25));

/**
 * The partition by its definition: each group is the greedy
 * minimum-degree-first MIS of the vertices not yet grouped, with every
 * degree recounted among them.
 */
std::vector<std::vector<int>>
recountedPartition(int n, const std::vector<std::vector<int>> &adj)
{
    const auto un = static_cast<std::size_t>(n);
    std::vector<char> grouped(un, 0);
    std::vector<std::vector<int>> groups;
    for (int left = n; left > 0;) {
        std::vector<int> degree(un, 0);
        std::vector<int> order;
        for (int u = 0; u < n; ++u) {
            if (grouped[static_cast<std::size_t>(u)])
                continue;
            for (int v : adj[static_cast<std::size_t>(u)])
                degree[static_cast<std::size_t>(u)] +=
                    grouped[static_cast<std::size_t>(v)] ? 0 : 1;
            order.push_back(u);
        }
        std::sort(order.begin(), order.end(), [&degree](int a, int b) {
            const auto da = degree[static_cast<std::size_t>(a)];
            const auto db = degree[static_cast<std::size_t>(b)];
            return da != db ? da < db : a < b;
        });
        std::vector<char> blocked(un, 0);
        std::vector<int> group;
        for (int u : order) {
            if (blocked[static_cast<std::size_t>(u)])
                continue;
            group.push_back(u);
            blocked[static_cast<std::size_t>(u)] = 1;
            for (int v : adj[static_cast<std::size_t>(u)])
                blocked[static_cast<std::size_t>(v)] = 1;
        }
        std::sort(group.begin(), group.end());
        for (int u : group)
            grouped[static_cast<std::size_t>(u)] = 1;
        left -= static_cast<int>(group.size());
        groups.push_back(std::move(group));
    }
    return groups;
}

/**
 * The partition, with its degrees kept up to date as groups leave,
 * equals the recounted one, through both overloads; the scratch one
 * also on a reused scratch and an adjacency buffer wider than the
 * graph, whose extra lists are never read.
 */
TEST(IndependentSet, PartitionEqualsRecountedDegrees)
{
    std::vector<std::vector<std::vector<int>>> graphs;
    graphs.emplace_back();                                 // empty
    graphs.emplace_back(std::vector<std::vector<int>>(4)); // no edges
    for (int n : {1, 2, 7}) {                              // complete
        std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
        for (int u = 0; u < n; ++u)
            for (int v = 0; v < n; ++v)
                if (u != v)
                    adj[static_cast<std::size_t>(u)].push_back(v);
        graphs.push_back(adj);
    }
    for (int n : {2, 9}) { // path
        std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
        for (int u = 0; u + 1 < n; ++u) {
            adj[static_cast<std::size_t>(u)].push_back(u + 1);
            adj[static_cast<std::size_t>(u) + 1].push_back(u);
        }
        graphs.push_back(adj);
    }
    Rng rng(17);
    for (int seed = 0; seed < 60; ++seed) { // random, of every density
        const int n = 1 + static_cast<int>(rng.nextBelow(40));
        const double p = rng.nextDouble();
        std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
        for (int u = 0; u < n; ++u)
            for (int v = u + 1; v < n; ++v)
                if (rng.nextBool(p)) {
                    adj[static_cast<std::size_t>(u)].push_back(v);
                    adj[static_cast<std::size_t>(v)].push_back(u);
                }
        for (auto &list : adj) // neighbours in any order
            for (std::size_t k = list.size(); k > 1; --k)
                std::swap(list[k - 1], list[rng.nextBelow(k)]);
        graphs.push_back(adj);
    }

    MisPartitionScratch scratch;
    std::vector<std::vector<int>> groups;
    int multi_round = 0;
    for (const auto &adj : graphs) {
        const int n = static_cast<int>(adj.size());
        const auto want = recountedPartition(n, adj);
        multi_round += want.size() > 2 ? 1 : 0;
        EXPECT_EQ(partitionIntoIndependentSets(n, adj), want);
        EXPECT_EQ(greedyMaximalIndependentSet(n, adj),
                  want.empty() ? std::vector<int>{} : want.front());
        auto wide = adj; // a reused buffer, two lists longer
        wide.resize(adj.size() + 2);
        const int got =
            partitionIntoIndependentSets(n, wide, scratch, groups);
        ASSERT_EQ(got, static_cast<int>(want.size()));
        for (std::size_t g = 0; g < want.size(); ++g)
            EXPECT_EQ(groups[g], want[g]) << "group " << g;
    }
    EXPECT_GT(multi_round, 20);
}

// -------------------------------------------------------- edge coloring

TEST(EdgeColoring, PathUsesTwoColors)
{
    const std::vector<std::pair<int, int>> path{{0, 1}, {1, 2}, {2, 3}};
    const auto colors = greedyEdgeColoring(4, path);
    EXPECT_EQ(numColors(colors), 2);
}

TEST(EdgeColoring, StarNeedsDegreeColors)
{
    const std::vector<std::pair<int, int>> star{
        {0, 1}, {0, 2}, {0, 3}, {0, 4}};
    EXPECT_EQ(numColors(greedyEdgeColoring(5, star)), 4);
}

TEST(EdgeColoring, RejectsBadEdges)
{
    EXPECT_THROW(greedyEdgeColoring(2, {{0, 0}}), FatalError);
    EXPECT_THROW(greedyEdgeColoring(2, {{0, 5}}), FatalError);
}

class EdgeColoringProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EdgeColoringProperty, ColoringIsProperAndBounded)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 7);
    const int n = 3 + static_cast<int>(rng.nextBelow(15));
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
            if (rng.nextBool(0.3))
                edges.emplace_back(u, v);
    const auto colors = greedyEdgeColoring(n, edges);
    // Proper: no two incident edges share a color.
    for (std::size_t i = 0; i < edges.size(); ++i)
        for (std::size_t j = i + 1; j < edges.size(); ++j) {
            const bool incident =
                edges[i].first == edges[j].first ||
                edges[i].first == edges[j].second ||
                edges[i].second == edges[j].first ||
                edges[i].second == edges[j].second;
            if (incident) {
                EXPECT_NE(colors[i], colors[j]);
            }
        }
    // Bounded by 2*Delta - 1 (greedy bound) and at least Delta.
    std::vector<int> degree(static_cast<std::size_t>(n), 0);
    for (const auto &[a, b] : edges) {
        ++degree[static_cast<std::size_t>(a)];
        ++degree[static_cast<std::size_t>(b)];
    }
    const int delta =
        *std::max_element(degree.begin(), degree.end());
    if (!edges.empty()) {
        EXPECT_GE(numColors(colors), delta);
        EXPECT_LE(numColors(colors), 2 * delta - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeColoringProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace zac
