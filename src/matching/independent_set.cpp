#include "matching/independent_set.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace zac
{

namespace
{

/** Make the first @p n vertices eligible, each at its full degree. */
void
beginPartition(const std::vector<std::vector<int>> &adj, std::size_t n,
               MisPartitionScratch &s)
{
    s.degree.resize(n);
    s.order.resize(n);
    s.blocked.assign(n, 0);
    s.eligible.assign(n, 1);
    for (std::size_t u = 0; u < n; ++u) {
        s.degree[u] = static_cast<int>(adj[u].size());
        s.order[u] = static_cast<int>(u);
    }
}

/**
 * Extract the next group into @p mis (ascending): a greedy
 * minimum-degree-first MIS over the eligible vertices, which
 * s.order lists, by their degrees within the eligible subgraph. The
 * group then leaves the eligible subgraph, and each neighbour's degree
 * drops by one per edge to it, so s.degree stays up to date without a
 * recount. The single algorithm definition behind every entry point
 * of this module.
 */
void
extractGroup(const std::vector<std::vector<int>> &adj,
             MisPartitionScratch &s, std::vector<int> &mis)
{
    const std::vector<int> &degree = s.degree;
    std::sort(s.order.begin(), s.order.end(), [&degree](int a, int b) {
        if (degree[static_cast<std::size_t>(a)] !=
            degree[static_cast<std::size_t>(b)])
            return degree[static_cast<std::size_t>(a)] <
                   degree[static_cast<std::size_t>(b)];
        return a < b;
    });

    mis.clear();
    for (int u : s.order) {
        if (s.blocked[static_cast<std::size_t>(u)])
            continue;
        mis.push_back(u);
        s.blocked[static_cast<std::size_t>(u)] = 1;
        for (int v : adj[static_cast<std::size_t>(u)])
            s.blocked[static_cast<std::size_t>(v)] = 1;
    }
    for (int u : mis) {
        s.eligible[static_cast<std::size_t>(u)] = 0;
        for (int v : adj[static_cast<std::size_t>(u)])
            --s.degree[static_cast<std::size_t>(v)];
    }
    // The rest stay in the order, unblocked for the next group.
    std::size_t kept = 0;
    for (int u : s.order) {
        if (!s.eligible[static_cast<std::size_t>(u)])
            continue;
        s.blocked[static_cast<std::size_t>(u)] = 0;
        s.order[kept++] = u;
    }
    s.order.resize(kept);
    std::sort(mis.begin(), mis.end());
}

} // namespace

std::vector<int>
greedyMaximalIndependentSet(int num_vertices,
                            const std::vector<std::vector<int>> &adj)
{
    if (static_cast<int>(adj.size()) != num_vertices)
        fatal("greedyMaximalIndependentSet: adjacency size mismatch");
    MisPartitionScratch scratch;
    beginPartition(adj, static_cast<std::size_t>(num_vertices), scratch);
    std::vector<int> mis;
    extractGroup(adj, scratch, mis);
    return mis;
}

int
partitionIntoIndependentSets(int num_vertices,
                             const std::vector<std::vector<int>> &adj,
                             MisPartitionScratch &scratch,
                             std::vector<std::vector<int>> &groups)
{
    if (static_cast<int>(adj.size()) < num_vertices)
        fatal("partitionIntoIndependentSets: adjacency size mismatch");
    beginPartition(adj, static_cast<std::size_t>(num_vertices), scratch);
    int num_groups = 0;
    while (!scratch.order.empty()) {
        if (groups.size() <= static_cast<std::size_t>(num_groups))
            groups.emplace_back();
        std::vector<int> &mis =
            groups[static_cast<std::size_t>(num_groups)];
        extractGroup(adj, scratch, mis);
        if (mis.empty())
            panic("partitionIntoIndependentSets: empty MIS with "
                  "vertices remaining");
        ++num_groups;
    }
    return num_groups;
}

std::vector<std::vector<int>>
partitionIntoIndependentSets(int num_vertices,
                             const std::vector<std::vector<int>> &adj)
{
    if (static_cast<int>(adj.size()) != num_vertices)
        fatal("partitionIntoIndependentSets: adjacency size mismatch");
    MisPartitionScratch scratch;
    std::vector<std::vector<int>> groups;
    const int num_groups =
        partitionIntoIndependentSets(num_vertices, adj, scratch, groups);
    groups.resize(static_cast<std::size_t>(num_groups));
    return groups;
}

} // namespace zac
