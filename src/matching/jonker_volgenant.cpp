#include "matching/jonker_volgenant.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.hpp"

namespace zac
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * One Dijkstra-style augmenting-path search from @p start_row, following
 * the SciPy rectangular LSAP implementation. Relaxation and column
 * selection share one fused pass over the unscanned columns: splitting
 * them (a CSR edge walk plus a selection pass) measured slower on the
 * gate placer's small dense matrices. A plain heap would change the
 * tie-breaking pop order (and hence which of several equal-cost optima
 * is returned); sparseAugmentingPath() keeps it by resolving each tie
 * against this loop's `remaining` order.
 *
 * @return the sink column, or -1 if no augmenting path exists.
 */
int
augmentingPath(const CostMatrix &cost, std::vector<double> &u,
               std::vector<double> &v, std::vector<int> &path,
               const std::vector<int> &row4col,
               std::vector<double> &shortest, std::vector<bool> &sr,
               std::vector<bool> &sc, std::vector<int> &remaining,
               int start_row, double &min_val_out)
{
    const int nc = cost.cols();
    double min_val = 0.0;
    for (int j = 0; j < nc; ++j)
        remaining[static_cast<std::size_t>(j)] = nc - j - 1;
    int num_remaining = nc;

    std::fill(sr.begin(), sr.end(), false);
    std::fill(sc.begin(), sc.end(), false);
    std::fill(shortest.begin(), shortest.end(), kInf);

    int sink = -1;
    int i = start_row;
    while (sink == -1) {
        sr[static_cast<std::size_t>(i)] = true;
        int index = -1;
        double lowest = kInf;
        for (int it = 0; it < num_remaining; ++it) {
            const int j = remaining[static_cast<std::size_t>(it)];
            const double edge = cost.at(i, j);
            if (edge < kInf) {
                const double r = min_val + edge -
                                 u[static_cast<std::size_t>(i)] -
                                 v[static_cast<std::size_t>(j)];
                if (r < shortest[static_cast<std::size_t>(j)]) {
                    path[static_cast<std::size_t>(j)] = i;
                    shortest[static_cast<std::size_t>(j)] = r;
                }
            }
            if (shortest[static_cast<std::size_t>(j)] < lowest ||
                (shortest[static_cast<std::size_t>(j)] == lowest &&
                 row4col[static_cast<std::size_t>(j)] == -1)) {
                lowest = shortest[static_cast<std::size_t>(j)];
                index = it;
            }
        }
        min_val = lowest;
        if (min_val == kInf)
            return -1; // infeasible
        const int j = remaining[static_cast<std::size_t>(index)];
        if (row4col[static_cast<std::size_t>(j)] == -1)
            sink = j;
        else
            i = row4col[static_cast<std::size_t>(j)];
        sc[static_cast<std::size_t>(j)] = true;
        remaining[static_cast<std::size_t>(index)] =
            remaining[static_cast<std::size_t>(--num_remaining)];
    }
    min_val_out = min_val;
    return sink;
}

// ---------------------------------------------------------------- sparse

using HeapEntry = SparseMatchingScratch::HeapEntry;
using RowList = SparseMatchingScratch::RowList;

/** Row heap: push (key, index). */
void
heapPush(std::vector<HeapEntry> &heap, double key, int index)
{
    heap.emplace_back(key, index);
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
}

/** Row heap: pop the smallest key's index. */
int
heapPop(std::vector<HeapEntry> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    const int index = heap.back().second;
    heap.pop_back();
    return index;
}

// The column heap is a d-ary min-heap on shortest[] holding each
// tentative column once; heap_slot[j] is column j's entry, -1 when
// absent.
constexpr std::size_t kColArity = 4;

/** Put @p e at slot @p i, recording its slot. */
void
colPlace(SparseMatchingScratch &s, std::size_t i, const HeapEntry &e)
{
    s.col_heap[i] = e;
    s.heap_slot[static_cast<std::size_t>(e.second)] = static_cast<int>(i);
}

/** Settle @p e into the column heap from slot @p i upwards. */
void
colSiftUp(SparseMatchingScratch &s, std::size_t i, const HeapEntry &e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kColArity;
        if (!(e.first < s.col_heap[parent].first))
            break;
        colPlace(s, i, s.col_heap[parent]);
        i = parent;
    }
    colPlace(s, i, e);
}

/** Settle @p e into the column heap from slot @p i downwards. */
void
colSiftDown(SparseMatchingScratch &s, std::size_t i, const HeapEntry &e)
{
    const std::size_t n = s.col_heap.size();
    for (;;) {
        const std::size_t first = i * kColArity + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + kColArity, n);
        std::size_t child = first;
        for (std::size_t k = first + 1; k < end; ++k)
            if (s.col_heap[k].first < s.col_heap[child].first)
                child = k;
        if (!(s.col_heap[child].first < e.first))
            break;
        colPlace(s, i, s.col_heap[child]);
        i = child;
    }
    colPlace(s, i, e);
}

/** Lower column @p j's key to @p d, filing it when @p absent. */
void
colLower(SparseMatchingScratch &s, int j, double d, bool absent)
{
    std::size_t i = 0;
    if (absent) {
        i = s.col_heap.size();
        s.col_heap.emplace_back();
    } else {
        i = static_cast<std::size_t>(s.heap_slot[static_cast<std::size_t>(j)]);
    }
    colSiftUp(s, i, {d, j});
}

/**
 * Take column @p j's entry out of the column heap. Its key is the
 * minimum, so its parent's is too, and the last entry, moved into its
 * slot, can only sink.
 */
void
colRemove(SparseMatchingScratch &s, int j)
{
    int &slot = s.heap_slot[static_cast<std::size_t>(j)];
    const auto i = static_cast<std::size_t>(slot);
    slot = -1;
    const HeapEntry last = s.col_heap.back();
    s.col_heap.pop_back();
    if (i < s.col_heap.size())
        colSiftDown(s, i, last);
}

/** Size @p s's arrays for a call and point its rows at @p g. */
void
beginCall(SparseMatchingScratch &s, const SparseCostGraph &g)
{
    const auto r = static_cast<std::size_t>(g.rows());
    const auto c = static_cast<std::size_t>(g.cols);
    if (s.shortest.size() < c) {
        s.shortest.resize(c, kInf);
        s.v.resize(c, 0.0);
        s.path.resize(c, -1);
        s.path_edge.resize(c, 0);
        s.row4col.resize(c, -1);
        s.sc.resize(c, 0);
        s.col_at.resize(c, -1);
        s.pos_of.resize(c, -1);
        s.heap_slot.resize(c, -1);
    }
    if (s.order.size() < r) {
        s.rows.resize(r);
        s.matched_cost.resize(r);
        s.order.resize(r, -1);
        s.row_min.resize(r, 0.0);
        s.next_edge.resize(r, 0);
    }
    s.graph_edges = g.edges.data();
    for (std::size_t i = 0; i < r; ++i)
        s.rows[i] = {g.row_start[i], g.row_start[i + 1] - g.row_start[i],
                     g.tail.empty() ? kInf : g.tail[i], false};
}

/** Row @p r's edges. */
const SparseEdge *
edgesOf(const SparseMatchingScratch &s, std::size_t r)
{
    const RowList &row = s.rows[r];
    return (row.pooled ? s.pool.data() : s.graph_edges) + row.at;
}

/** Undo one path's marks (its visited rows, touched columns). */
void
endPath(SparseMatchingScratch &s)
{
    for (int j : s.touched)
        s.shortest[static_cast<std::size_t>(j)] = kInf;
    for (int j : s.settled_cols)
        s.sc[static_cast<std::size_t>(j)] = 0;
    for (const auto &[p, c] : s.moved) {
        s.col_at[static_cast<std::size_t>(p)] = -1;
        s.pos_of[static_cast<std::size_t>(c)] = -1;
    }
    for (int i : s.visited_rows)
        s.order[static_cast<std::size_t>(i)] = -1;
    for (const HeapEntry &e : s.col_heap)
        s.heap_slot[static_cast<std::size_t>(e.second)] = -1;
    s.touched.clear();
    s.visited_rows.clear();
    s.settled_cols.clear();
    s.moved.clear();
    s.col_heap.clear();
    s.row_heap.clear();
}

/**
 * Returns a call's scratch to neutral however the call ends, which may
 * be mid-path.
 */
class ScratchReset
{
  public:
    explicit ScratchReset(SparseMatchingScratch &s) : s_(s) {}
    ScratchReset(const ScratchReset &) = delete;
    ScratchReset &operator=(const ScratchReset &) = delete;
    ~ScratchReset()
    {
        endPath(s_);
        // Only matched columns were settled, so only they hold duals.
        for (int j : s_.sinks) {
            s_.row4col[static_cast<std::size_t>(j)] = -1;
            s_.v[static_cast<std::size_t>(j)] = 0.0;
        }
        s_.sinks.clear();
        s_.pool.clear();
    }

  private:
    SparseMatchingScratch &s_;
};

/**
 * File visited row @p r in the row heap under a lower bound on the
 * reduced cost of its next unrelaxed edge, or of its tail once its
 * edges are spent (nothing when that is infinite). Costs ascend up to
 * the tail and v[j] <= v_max, and rounding is monotone, so the bound
 * holds for every later edge and every unlisted column too.
 */
void
fileRow(const std::vector<double> &u, double v_max, SparseMatchingScratch &s,
        int r)
{
    const auto ri = static_cast<std::size_t>(r);
    const RowList &row = s.rows[ri];
    const std::size_t k = s.next_edge[ri];
    const double next = k < row.len ? edgesOf(s, ri)[k].cost : row.tail;
    if (next < kInf)
        heapPush(s.row_heap, s.row_min[ri] + next - u[ri] - v_max, r);
}

/**
 * Relax row @p r's unrelaxed edges, cheapest first, until the next
 * edge's lower bound exceeds @p best (the cheapest tentative column,
 * lowered as edges land), then re-file the row under that bound. Past
 * its last edge the row is re-filed under its tail's bound, if any.
 *
 * The reduced cost is computed exactly as the dense solver computes it
 * at the row's visit (min_val + cost - u - v, left to right), so every
 * value is bit-equal. A column already reached at the same value keeps
 * the earlier-visited predecessor, as the dense solver's strict `<`
 * does when rows relax in visit order.
 */
void
relaxRow(const std::vector<double> &u, const std::vector<double> &v,
         double v_max, SparseMatchingScratch &s, int r, double &best,
         std::int64_t &relaxed)
{
    const auto ri = static_cast<std::size_t>(r);
    const SparseEdge *const edges = edgesOf(s, ri);
    const std::size_t len = s.rows[ri].len;
    const double base = s.row_min[ri];
    const double ur = u[ri];
    const int rank = s.order[ri];
    std::size_t k = s.next_edge[ri];
    for (;;) {
        const SparseEdge &e = edges[k];
        const auto j = static_cast<std::size_t>(e.col);
        if (!s.sc[j]) {
            ++relaxed;
            const double d = base + e.cost - ur - v[j];
            double &sj = s.shortest[j];
            if (d < sj) {
                // An unsettled column is in the heap once reached.
                const bool absent = sj == kInf;
                if (absent)
                    s.touched.push_back(e.col);
                sj = d;
                s.path[j] = r;
                s.path_edge[j] = static_cast<int>(k);
                colLower(s, e.col, d, absent);
                best = std::min(best, d);
            } else if (d == sj &&
                       rank < s.order[static_cast<std::size_t>(
                                  s.path[j])]) {
                s.path[j] = r;
                s.path_edge[j] = static_cast<int>(k);
            }
        }
        // Re-filed under its next edge's bound, or its tail's past its
        // last edge (see fileRow()).
        if (++k == len) {
            const double tail = s.rows[ri].tail;
            if (tail < kInf)
                heapPush(s.row_heap, base + tail - ur - v_max, r);
            break;
        }
        const double bound = base + edges[k].cost - ur - v_max;
        if (bound > best) {
            heapPush(s.row_heap, bound, r);
            break;
        }
    }
    s.next_edge[ri] = k;
}

/**
 * Replace row @p r's list with the grow hook's longer one, after
 * checking it against the SparseRowGrowth contract. The list goes to
 * the end of the pool: in place when the row's list already ends it,
 * else as a copy (the old one stays as garbage until the call ends).
 */
void
growRow(const SparseRowGrower &grow, int nc, SparseMatchingScratch &s, int r)
{
    const auto ri = static_cast<std::size_t>(r);
    RowList &row = s.rows[ri];
    const SparseRowGrowth got = grow(r);
    const std::span<const SparseEdge> e = got.edges;
    auto fail = [r](const std::string &what) {
        fatal("minWeightSparseMatching: grown row " + std::to_string(r) +
              " " + what);
    };
    if (e.size() < row.len)
        fail("is shorter than its list");
    const SparseEdge *listed = edgesOf(s, ri);
    for (std::size_t k = 0; k < row.len; ++k)
        if (e[k].col != listed[k].col || e[k].cost != listed[k].cost)
            fail("changed a listed edge");
    double prev = row.tail;
    for (std::size_t k = row.len; k < e.size(); ++k) {
        if (e[k].col < 0 || e[k].col >= nc)
            fail("lists column " + std::to_string(e[k].col) +
                 ", out of range");
        if (!std::isfinite(e[k].cost))
            fail("lists a cost that is not finite");
        if (e[k].cost < prev)
            fail(k == row.len ? "lists a new cost below its old tail"
                              : "costs are not ascending");
        prev = e[k].cost;
    }
    if (!(got.tail >= (e.empty() ? -kInf : e.back().cost)))
        fail("has a tail below its last cost");
    if (e.size() == row.len && !(got.tail > row.tail))
        fail("lists no new edge and does not raise its tail");

    if (row.pooled && row.at + row.len == s.pool.size()) {
        s.pool.insert(s.pool.end(),
                      e.begin() + static_cast<std::ptrdiff_t>(row.len),
                      e.end());
    } else {
        row.at = s.pool.size();
        row.pooled = true;
        s.pool.insert(s.pool.end(), e.begin(), e.end());
    }
    row.len = e.size();
    row.tail = got.tail;
}

/**
 * The sparse twin of augmentingPath(): the same Dijkstra search, with
 * the `remaining` array's order kept as overrides, each visited row's
 * edges relaxed lazily behind its bound in the row heap and the
 * tentative columns in the indexed column heap.
 *
 * @return the sink column, or -1 if no augmenting path exists.
 */
int
sparseAugmentingPath(const SparseCostGraph &g, const SparseRowGrower &grow,
                     const std::vector<double> &u,
                     const std::vector<double> &v, double v_max,
                     SparseMatchingScratch &s, int start_row,
                     double &min_val_out, std::int64_t &relaxed)
{
    const int nc = g.cols;
    auto colAt = [&s, nc](int p) {
        const int c = s.col_at[static_cast<std::size_t>(p)];
        return c < 0 ? nc - 1 - p : c;
    };
    auto posOf = [&s, nc](int j) {
        const int p = s.pos_of[static_cast<std::size_t>(j)];
        return p < 0 ? nc - 1 - j : p;
    };
    int num_remaining = nc;
    double min_val = 0.0;
    int i = start_row;
    for (;;) {
        // Visit row i at distance min_val.
        const auto ii = static_cast<std::size_t>(i);
        s.order[ii] = static_cast<int>(s.visited_rows.size());
        s.visited_rows.push_back(i);
        s.row_min[ii] = min_val;
        s.next_edge[ii] = 0;
        fileRow(u, v_max, s, i);

        // The cheapest tentative column, made exact: relax every edge
        // whose bound could still reach (or tie) it. A row whose edges
        // are spent was filed under its tail: a column it does not
        // list could reach (or tie) it, so it grows, and its row_min
        // and u are still those of its visit.
        double best = s.col_heap.empty() ? kInf : s.col_heap.front().first;
        while (!s.row_heap.empty() && s.row_heap.front().first <= best) {
            const int r = heapPop(s.row_heap);
            const auto ri = static_cast<std::size_t>(r);
            if (s.next_edge[ri] == s.rows[ri].len) {
                growRow(grow, nc, s, r);
                fileRow(u, v_max, s, r);
            } else {
                relaxRow(u, v, v_max, s, r, best, relaxed);
            }
        }
        if (best == kInf)
            return -1; // infeasible

        // The columns tied at the minimum are the root's subtree of
        // entries at key `best` (every ancestor of such an entry holds
        // it too); SciPy's order over the `remaining` array picks the
        // last free one, else the first.
        s.ties.assign(1, 0);
        for (std::size_t t = 0; t < s.ties.size(); ++t) {
            const std::size_t first =
                static_cast<std::size_t>(s.ties[t]) * kColArity + 1;
            const std::size_t end =
                std::min(first + kColArity, s.col_heap.size());
            for (std::size_t k = first; k < end; ++k)
                if (s.col_heap[k].first == best)
                    s.ties.push_back(static_cast<int>(k));
        }
        int pick = -1;
        int pick_pos = 0;
        bool pick_free = false;
        for (int slot : s.ties) {
            const int j = s.col_heap[static_cast<std::size_t>(slot)].second;
            const int p = posOf(j);
            const bool free = s.row4col[static_cast<std::size_t>(j)] == -1;
            if (pick < 0 || (free && (!pick_free || p > pick_pos)) ||
                (!free && !pick_free && p < pick_pos)) {
                pick = j;
                pick_pos = p;
                pick_free = free;
            }
        }
        colRemove(s, pick);

        min_val = best;
        s.sc[static_cast<std::size_t>(pick)] = 1;
        s.settled_cols.push_back(pick);
        const int last = --num_remaining;
        const int moved = colAt(last);
        s.col_at[static_cast<std::size_t>(pick_pos)] = moved;
        s.pos_of[static_cast<std::size_t>(moved)] = pick_pos;
        s.moved.emplace_back(pick_pos, moved);
        if (pick_free) {
            min_val_out = min_val;
            return pick;
        }
        i = s.row4col[static_cast<std::size_t>(pick)];
    }
}

void
checkSparseGraph(const SparseCostGraph &g, const SparseRowGrower &grow)
{
    const std::vector<std::size_t> &rs = g.row_start;
    if (rs.empty() || rs.front() != 0 || rs.back() != g.edges.size())
        fatal("minWeightSparseMatching: row offsets do not span the "
              "edge list");
    if (!g.tail.empty() && g.tail.size() + 1 != rs.size())
        fatal("minWeightSparseMatching: " +
              std::to_string(g.tail.size()) + " tails for " +
              std::to_string(rs.size() - 1) + " rows");
    if (!g.tail.empty() && !grow)
        fatal("minWeightSparseMatching: a graph with tails needs a grow "
              "hook");
    for (std::size_t r = 0; r + 1 < rs.size(); ++r) {
        if (rs[r + 1] < rs[r])
            fatal("minWeightSparseMatching: row offsets decrease at "
                  "row " + std::to_string(r));
        double prev = -kInf;
        for (std::size_t k = rs[r]; k < rs[r + 1]; ++k) {
            const SparseEdge &e = g.edges[k];
            if (e.col < 0 || e.col >= g.cols)
                fatal("minWeightSparseMatching: column " +
                      std::to_string(e.col) + " out of range in row " +
                      std::to_string(r));
            if (!std::isfinite(e.cost) || e.cost < prev)
                fatal("minWeightSparseMatching: row " +
                      std::to_string(r) +
                      " costs are not finite and ascending");
            prev = e.cost;
        }
        if (!g.tail.empty() && !(g.tail[r] >= prev))
            fatal("minWeightSparseMatching: row " + std::to_string(r) +
                  " lists a cost above its tail");
    }
}

} // namespace

Assignment
minWeightFullMatching(const CostMatrix &cost)
{
    const int nr = cost.rows();
    const int nc = cost.cols();
    if (nr > nc)
        fatal("minWeightFullMatching: more rows than columns (" +
              std::to_string(nr) + " > " + std::to_string(nc) + ")");

    Assignment result;
    if (nr == 0) {
        result.feasible = true;
        return result;
    }

    const auto rows = static_cast<std::size_t>(nr);
    const auto cols = static_cast<std::size_t>(nc);
    std::vector<double> u(rows, 0.0), v(cols, 0.0), shortest(cols, kInf);
    std::vector<int> col4row(rows, -1), path(cols, -1), row4col(cols, -1),
        remaining(cols);
    std::vector<bool> sr(rows, false), sc(cols, false);

    for (int cur_row = 0; cur_row < nr; ++cur_row) {
        double min_val = 0.0;
        const int sink = augmentingPath(cost, u, v, path, row4col,
                                        shortest, sr, sc, remaining,
                                        cur_row, min_val);
        if (sink < 0)
            return result; // feasible == false

        // Update dual variables.
        u[static_cast<std::size_t>(cur_row)] += min_val;
        for (int i = 0; i < nr; ++i) {
            if (sr[static_cast<std::size_t>(i)] && i != cur_row)
                u[static_cast<std::size_t>(i)] +=
                    min_val -
                    shortest[static_cast<std::size_t>(
                        col4row[static_cast<std::size_t>(i)])];
        }
        for (int j = 0; j < nc; ++j) {
            if (sc[static_cast<std::size_t>(j)])
                v[static_cast<std::size_t>(j)] -=
                    min_val - shortest[static_cast<std::size_t>(j)];
        }

        // Augment along the alternating path back to cur_row.
        int j = sink;
        while (true) {
            const int i = path[static_cast<std::size_t>(j)];
            row4col[static_cast<std::size_t>(j)] = i;
            std::swap(col4row[static_cast<std::size_t>(i)], j);
            if (i == cur_row)
                break;
        }
    }

    result.feasible = true;
    result.row_to_col = std::move(col4row);
    for (int i = 0; i < nr; ++i)
        result.total_cost +=
            cost.at(i, result.row_to_col[static_cast<std::size_t>(i)]);
    result.row_duals = std::move(u);
    result.col_duals = std::move(v);
    return result;
}

Assignment
minWeightSparseMatching(const SparseCostGraph &graph,
                        std::int64_t *edges_relaxed,
                        const SparseRowGrower &grow,
                        SparseMatchingScratch *scratch, Duals duals)
{
    checkSparseGraph(graph, grow);
    const int nr = graph.rows();
    const int nc = graph.cols;
    if (nr > nc)
        fatal("minWeightSparseMatching: more rows than columns (" +
              std::to_string(nr) + " > " + std::to_string(nc) + ")");

    Assignment result;
    if (nr == 0) {
        result.feasible = true;
        return result;
    }

    std::optional<SparseMatchingScratch> local;
    SparseMatchingScratch &s = scratch ? *scratch : local.emplace();
    beginCall(s, graph);
    // However the call ends (no augmenting path, or a throw from the
    // grow hook or its check), the scratch goes back to neutral.
    const ScratchReset reset(s);
    std::vector<double> u(static_cast<std::size_t>(nr), 0.0);
    std::vector<double> &v = s.v;
    std::vector<int> col4row(static_cast<std::size_t>(nr), -1);
    double v_max = 0.0; // running max of v; v starts at 0
    std::int64_t relaxed = 0;

    for (int cur_row = 0; cur_row < nr; ++cur_row) {
        double min_val = 0.0;
        const int sink = sparseAugmentingPath(graph, grow, u, v, v_max, s,
                                              cur_row, min_val, relaxed);
        if (sink < 0) {
            if (edges_relaxed)
                *edges_relaxed += relaxed;
            return result; // feasible == false
        }

        // Update dual variables, as the dense solver does.
        u[static_cast<std::size_t>(cur_row)] += min_val;
        for (int i : s.visited_rows)
            if (i != cur_row)
                u[static_cast<std::size_t>(i)] +=
                    min_val -
                    s.shortest[static_cast<std::size_t>(
                        col4row[static_cast<std::size_t>(i)])];
        for (int j : s.settled_cols) {
            double &vj = v[static_cast<std::size_t>(j)];
            vj -= min_val - s.shortest[static_cast<std::size_t>(j)];
            v_max = std::max(v_max, vj);
        }

        // Augment along the alternating path back to cur_row.
        s.sinks.push_back(sink);
        int j = sink;
        while (true) {
            const int i = s.path[static_cast<std::size_t>(j)];
            s.row4col[static_cast<std::size_t>(j)] = i;
            // A grown list keeps its prefix, so the index still holds.
            s.matched_cost[static_cast<std::size_t>(i)] =
                edgesOf(s, static_cast<std::size_t>(i))
                    [s.path_edge[static_cast<std::size_t>(j)]]
                        .cost;
            std::swap(col4row[static_cast<std::size_t>(i)], j);
            if (i == cur_row)
                break;
        }
        endPath(s);
    }
    if (edges_relaxed)
        *edges_relaxed += relaxed;

    result.feasible = true;
    result.row_to_col = std::move(col4row);
    for (int i = 0; i < nr; ++i)
        result.total_cost += s.matched_cost[static_cast<std::size_t>(i)];
    if (duals == Duals::Return) {
        result.row_duals = std::move(u);
        result.col_duals.assign(v.begin(), v.begin() + nc);
    }
    return result;
}

} // namespace zac
