#include "core/qubit_placer.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "core/cost.hpp"
#include "matching/jonker_volgenant.hpp"

namespace zac
{

namespace
{

/**
 * Candidate traps for one leaving qubit at one expansion level,
 * written into @p out (reused scratch). Candidate ids come straight
 * from the arithmetic box enumerator; the candidate *set* — anchor
 * box, k-neighbourhood of the nearest trap, home trap, sorted and
 * deduplicated — is identical to the original TrapRef-based builder.
 */
void
candidateTraps(const PlacementState &state, int q,
               const std::optional<Point> &related, int k,
               std::vector<TrapId> &out)
{
    const Architecture &arch = state.arch();
    const Point cur = state.posOf(q);

    // (i) original (home) storage trap.
    const TrapRef home = state.homeOf(q);
    // (ii) nearest storage trap to the current Rydberg site.
    const TrapRef near_cur = arch.nearestStorageTrap(cur);
    const Point near_pos = arch.trapPosition(near_cur);
    Point lo = near_pos, hi = near_pos;
    auto widen = [&lo, &hi](Point p) {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
    };
    if (home.valid())
        widen(arch.trapPosition(home));
    // (iii) nearest storage trap to the related qubit.
    if (related.has_value())
        widen(arch.trapPosition(arch.nearestStorageTrap(*related)));

    // The box enumeration is ascending whenever the storage SLM bases
    // are (the common single-storage-SLM case), so only the small
    // near/ring/home tail needs sorting; one merge walk then emits the
    // deduplicated, empty-only candidates without sorting the box.
    thread_local std::vector<TrapId> box, tail;
    box.clear();
    arch.storageTrapIdsInBox(lo, hi, box);
    // k-neighbourhood of the nearest trap (may extend beyond the box),
    // by id arithmetic on the trap's SLM grid.
    const TrapId near_id = arch.trapId(near_cur);
    const SlmSpec &slm =
        arch.slms()[static_cast<std::size_t>(near_cur.slm)];
    tail.clear();
    tail.push_back(near_id);
    for (int d = 1; d <= k; ++d) {
        if (near_cur.c - d >= 0)
            tail.push_back(near_id - d);
        if (near_cur.c + d < slm.cols)
            tail.push_back(near_id + d);
        if (near_cur.r - d >= 0)
            tail.push_back(near_id - d * slm.cols);
        if (near_cur.r + d < slm.rows)
            tail.push_back(near_id + d * slm.cols);
    }
    if (home.valid())
        tail.push_back(arch.trapId(home));
    std::sort(tail.begin(), tail.end());

    // TrapId order equals TrapRef (slm, r, c) order, so the merged
    // ascending walk yields the same candidate sequence the old
    // sort + unique + filter produced.
    out.clear();
    if (!std::is_sorted(box.begin(), box.end())) {
        box.insert(box.end(), tail.begin(), tail.end());
        std::sort(box.begin(), box.end());
        box.erase(std::unique(box.begin(), box.end()), box.end());
        for (TrapId t : box)
            if (state.isEmpty(t))
                out.push_back(t);
        return;
    }
    std::size_t bi = 0, ti = 0;
    TrapId last = kInvalidTrapId;
    while (bi < box.size() || ti < tail.size()) {
        TrapId t;
        if (ti >= tail.size() ||
            (bi < box.size() && box[bi] <= tail[ti]))
            t = box[bi++];
        else
            t = tail[ti++];
        if (t == last)
            continue;
        last = t;
        if (state.isEmpty(t))
            out.push_back(t);
    }
}

/**
 * TrapId-returning core of nearestEmptyStorageTraps(): the @p count
 * empty storage traps nearest to @p p by (distance, trap), written to
 * @p out in no particular order.
 */
void
nearestEmptyTraps(const PlacementState &state, Point p, std::size_t count,
                  std::vector<TrapId> &out)
{
    out.clear();
    const Architecture &arch = state.arch();
    const std::size_t num_storage = arch.allStorageTraps().size();
    if (num_storage == 0)
        return;

    double base_pitch = 3.0;
    for (const ZoneSpec &z : arch.storageZones())
        for (int slm_id : z.slm_ids) {
            const SlmSpec &s =
                arch.slms()[static_cast<std::size_t>(slm_id)];
            base_pitch = std::max({base_pitch, s.sep_x, s.sep_y});
        }

    using Ranked = std::pair<double, TrapId>;
    thread_local std::vector<Ranked> ranked;
    thread_local std::vector<TrapId> box;
    double radius =
        base_pitch * (std::sqrt(static_cast<double>(count)) + 2.0);
    for (;;) {
        ranked.clear();
        box.clear();
        arch.storageTrapIdsInBox({p.x - radius, p.y - radius},
                                 {p.x + radius, p.y + radius}, box);
        std::size_t within = 0;
        for (TrapId t : box) {
            if (!state.isEmpty(t))
                continue;
            const double d = distance(arch.trapPosition(t), p);
            ranked.emplace_back(d, t);
            if (d <= radius)
                ++within;
        }
        // Enough empties inside the search *disk* (not just the box)
        // guarantees the k nearest are all collected; a box covering
        // every storage trap degenerates to the full scan.
        if (within >= count || box.size() == num_storage)
            break;
        radius *= 2.0;
    }

    // (distance, trap) is a strict total order, so selecting the first
    // `count` picks exactly the set a full sort would keep.
    if (ranked.size() > count) {
        std::nth_element(ranked.begin(),
                         ranked.begin() +
                             static_cast<std::ptrdiff_t>(count),
                         ranked.end());
        ranked.resize(count);
    }
    for (const Ranked &r : ranked)
        out.push_back(r.second);
}

} // namespace

std::vector<TrapRef>
nearestEmptyStorageTraps(const PlacementState &state, Point p,
                         std::size_t count)
{
    const Architecture &arch = state.arch();
    std::vector<TrapId> ids;
    nearestEmptyTraps(state, p, count, ids);
    std::sort(ids.begin(), ids.end());
    std::vector<TrapRef> out;
    out.reserve(ids.size());
    for (TrapId t : ids)
        out.push_back(arch.trapRef(t));
    return out;
}

std::vector<TrapRef>
placeQubitsInStorage(const PlacementState &state,
                     const QubitPlacementRequest &req,
                     QubitPlacerStats *stats)
{
    const Architecture &arch = state.arch();
    const std::size_t n = req.leaving.size();
    if (req.related.size() != n)
        panic("placeQubitsInStorage: request vectors out of shape");
    if (stats)
        ++stats->calls;
    if (n == 0)
        return {};

    int k = req.k;
    thread_local std::vector<std::vector<TrapId>> cands;
    thread_local std::vector<TrapId> extra, cols;
    // Column index per TrapId - base over the candidates' TrapId span
    // (a few storage rows in a small call); every entry is -1 between
    // calls.
    thread_local std::vector<int> col_of;
    thread_local SparseCostGraph graph;
    cands.resize(std::max(cands.size(), n));
    for (int attempt = 0; attempt < 8; ++attempt, k *= 2) {
        // Per-qubit candidates and their TrapId span.
        TrapId base = arch.numTraps();
        TrapId top = 0;
        for (std::size_t i = 0; i < n; ++i) {
            candidateTraps(state, req.leaving[i], req.related[i], k,
                           cands[i]);
            std::vector<TrapId> &row = cands[i];
            if (!row.empty()) {
                base = std::min(base, row.front());
                top = std::max(top, row.back());
            }
            if (attempt > 0) {
                // Expansion: add globally nearest empty traps too. The
                // local list is ascending, so a binary search drops the
                // duplicates; the row needs no order (costs sort it).
                nearestEmptyTraps(state, state.posOf(req.leaving[i]),
                                  n * static_cast<std::size_t>(attempt + 1),
                                  extra);
                const auto local = static_cast<std::ptrdiff_t>(row.size());
                for (TrapId t : extra) {
                    if (std::binary_search(row.begin(), row.begin() + local,
                                           t))
                        continue;
                    row.push_back(t);
                    base = std::min(base, t);
                    top = std::max(top, t);
                }
            }
        }
        // Their union, as columns in TrapId order: the dense matrix's
        // column order, which decides the solver's ties.
        if (base <= top &&
            col_of.size() < static_cast<std::size_t>(top - base + 1))
            col_of.resize(static_cast<std::size_t>(top - base + 1), -1);
        auto colOf = [&](TrapId t) -> int & {
            return col_of[static_cast<std::size_t>(t - base)];
        };
        cols.clear();
        for (std::size_t i = 0; i < n; ++i)
            for (TrapId t : cands[i]) {
                int &c = colOf(t);
                if (c < 0) {
                    c = 0;
                    cols.push_back(t);
                }
            }
        std::sort(cols.begin(), cols.end());
        for (std::size_t c = 0; c < cols.size(); ++c)
            colOf(cols[c]) = static_cast<int>(c);

        // One sparse row per qubit: its candidates at their Eq. 3 cost,
        // cheapest first.
        const bool enough_cols = cols.size() >= n;
        if (enough_cols) {
            graph.reset(static_cast<int>(cols.size()));
            for (std::size_t i = 0; i < n; ++i) {
                const Point cur = state.posOf(req.leaving[i]);
                const std::size_t first = graph.edges.size();
                for (TrapId t : cands[i]) {
                    const Point tp = arch.trapPosition(t);
                    double w = sqrtDistance(tp, cur);
                    if (req.related[i].has_value())
                        w += req.alpha *
                             sqrtDistance(tp, *req.related[i]);
                    graph.edges.push_back({w, colOf(t)});
                }
                std::sort(graph.edges.begin() +
                              static_cast<std::ptrdiff_t>(first),
                          graph.edges.end(),
                          [](const SparseEdge &a, const SparseEdge &b) {
                              return a.cost < b.cost;
                          });
                graph.row_start.push_back(graph.edges.size());
            }
        }
        for (TrapId t : cols)
            colOf(t) = -1;
        if (!enough_cols)
            continue;

        if (stats) {
            ++stats->solves;
            if (attempt > 0)
                ++stats->expanded_solves;
            stats->rows += static_cast<std::int64_t>(n);
            stats->cols += static_cast<std::int64_t>(cols.size());
            stats->candidate_cells +=
                static_cast<std::int64_t>(graph.edges.size());
        }
        const Assignment assign = minWeightSparseMatching(
            graph, stats ? &stats->edges_relaxed : nullptr);
        if (!assign.feasible)
            continue;
        std::vector<TrapRef> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = arch.trapRef(cols[static_cast<std::size_t>(
                assign.row_to_col[i])]);
        return out;
    }
    fatal("placeQubitsInStorage: no feasible assignment after "
          "candidate expansion (storage zone too full)");
}

std::vector<TrapRef>
returnQubitsHome(const PlacementState &state,
                 const std::vector<int> &leaving)
{
    std::vector<TrapRef> out;
    out.reserve(leaving.size());
    for (int q : leaving) {
        const TrapRef home = state.homeOf(q);
        if (!home.valid())
            panic("returnQubitsHome: qubit " + std::to_string(q) +
                  " has no home trap");
        if (!state.isEmpty(home))
            panic("returnQubitsHome: home trap of qubit " +
                  std::to_string(q) + " is occupied");
        out.push_back(home);
    }
    return out;
}

} // namespace zac
