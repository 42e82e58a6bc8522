/**
 * @file
 * Greedy maximal independent set over a conflict graph.
 *
 * Used to split qubit movements into rearrangement jobs (paper Sec. VI,
 * following Enola): vertices are movements, edges connect incompatible
 * movements, and each extracted maximal independent set becomes one job
 * executable by a single AOD.
 */

#ifndef ZAC_MATCHING_INDEPENDENT_SET_HPP
#define ZAC_MATCHING_INDEPENDENT_SET_HPP

#include <vector>

namespace zac
{

/**
 * Compute a maximal independent set greedily (minimum-degree-first):
 * visit the vertices by ascending (degree, id) and take each one no
 * taken vertex neighbours. It is the first group of
 * partitionIntoIndependentSets().
 *
 * @param num_vertices vertex count.
 * @param adj          symmetric adjacency lists of the conflict graph,
 *                     each neighbour listed once.
 * @return vertex indices of the maximal independent set, ascending.
 */
std::vector<int> greedyMaximalIndependentSet(
    int num_vertices, const std::vector<std::vector<int>> &adj);

/**
 * Repeatedly extract maximal independent sets until every vertex is
 * covered: a partition of the vertices into conflict-free groups. Each
 * group is the greedy set above over the vertices not yet grouped, by
 * their degrees among those vertices. The degrees are kept up to date
 * as groups leave (each group's neighbours lose one per edge), and each
 * round sorts only the vertices left, so a partition into g groups
 * costs O(E + g n log n) for n vertices and E edges, not
 * O(g (n log n + E)) for a recount per group.
 */
std::vector<std::vector<int>> partitionIntoIndependentSets(
    int num_vertices, const std::vector<std::vector<int>> &adj);

/** Reusable buffers for the scratch partition overload below. */
struct MisPartitionScratch
{
    std::vector<int> degree;    ///< per vertex: degree among the rest
    std::vector<int> order;     ///< the vertices not yet grouped
    std::vector<char> blocked;  ///< per vertex: next to this group
    std::vector<char> eligible; ///< per vertex: not yet grouped
};

/**
 * As partitionIntoIndependentSets, allocation-free for the scheduler
 * hot path: the partition is written into @p groups (grown
 * monotonically, inner vectors reused across calls) and the number of
 * valid groups is returned. @p adj may be wider than @p num_vertices
 * (a reused buffer); only the first @p num_vertices lists are read.
 * The partition is identical to the allocating overload's — both run
 * the same greedy minimum-degree-first extraction.
 */
int partitionIntoIndependentSets(int num_vertices,
                                 const std::vector<std::vector<int>> &adj,
                                 MisPartitionScratch &scratch,
                                 std::vector<std::vector<int>> &groups);

} // namespace zac

#endif // ZAC_MATCHING_INDEPENDENT_SET_HPP
