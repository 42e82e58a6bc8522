#include "core/qubit_placer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "core/cost.hpp"
#include "core/movement.hpp"

namespace zac
{

namespace
{

/**
 * Candidate traps for one leaving qubit at one expansion level,
 * written into @p out: the empty traps of the anchor box, the
 * k-neighbourhood of the nearest trap and the home trap, in ascending
 * id, each once. The box is scanned as storage row spans, so a trap
 * the box holds costs one occupancy load unless it is empty.
 */
void
candidateTraps(const PlacementState &state, int q,
               const std::optional<Point> &related, int k,
               QubitPlacerScratch &s, std::vector<TrapId> &out)
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

    out.clear();
    s.spans.clear();
    arch.storageSpansInBox(lo, hi, s.spans);
    for (const StorageSpan &span : s.spans)
        state.appendEmptyTraps(span, out);
    // k-neighbourhood of the nearest trap (may extend beyond the box),
    // by id arithmetic on the trap's SLM grid, and the home trap.
    const TrapId near_id = arch.trapId(near_cur);
    const SlmSpec &slm =
        arch.slms()[static_cast<std::size_t>(near_cur.slm)];
    std::vector<TrapId> &tail = s.tail;
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

    // TrapId order equals TrapRef (slm, r, c) order. The spans list
    // ascending ids whenever the storage SLM bases ascend in zone order
    // (the common single-storage-SLM case): then only the small tail
    // needs sorting, and its empty traps the box lacks merge in.
    if (!std::is_sorted(out.begin(), out.end())) {
        for (TrapId t : tail)
            if (state.isEmpty(t))
                out.push_back(t);
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return;
    }
    std::sort(tail.begin(), tail.end());
    std::size_t extra = 0;
    TrapId last = kInvalidTrapId;
    for (TrapId t : tail) {
        if (t == last)
            continue;
        last = t;
        if (state.isEmpty(t) &&
            !std::binary_search(out.begin(), out.end(), t))
            tail[extra++] = t;
    }
    // Merge the extra traps in from the back.
    std::size_t box = out.size();
    std::size_t at = box + extra;
    out.resize(at);
    while (extra > 0)
        out[--at] = box > 0 && out[box - 1] > tail[extra - 1]
                        ? out[--box]
                        : tail[--extra];
}

/** Eq. 3 cost of a trap at @p tp, @p d_cur = distance(tp, cur) away. */
double
storageCost(double d_cur, Point tp, const std::optional<Point> &related,
            double alpha)
{
    double w = std::sqrt(d_cur);
    if (related.has_value())
        w += alpha * sqrtDistance(tp, *related);
    return w;
}

/**
 * A storage trap's rank seen from one point: ascending distance, ties
 * by id. The n nearest empty traps are those at or below the n-th key.
 */
struct TrapKey
{
    double d = 0.0;
    TrapId t = 0;
};

bool
atOrBelow(double d, TrapId t, const TrapKey &k)
{
    return d < k.d || (d == k.d && t <= k.t);
}

/** A key at or above every storage trap's seen from @p p. */
TrapKey
coverKey(const Architecture &arch, Point p)
{
    // distance() grows with each axis offset, so a grid's farthest
    // trap is one of its corners.
    TrapKey k{0.0, std::numeric_limits<TrapId>::max()};
    for (const ZoneSpec &z : arch.storageZones())
        for (int slm : z.slm_ids) {
            const SlmSpec &s = arch.slms()[static_cast<std::size_t>(slm)];
            for (int r : {0, s.rows - 1})
                for (int c : {0, s.cols - 1})
                    k.d = std::max(
                        k.d, distance(arch.trapPosition(TrapRef{slm, r, c}),
                                      p));
        }
    return k;
}

/** Annuli holding at most this many traps are ranked, not split. */
constexpr std::int64_t kRankedAnnulus = 32;

/**
 * Nearest-empty-trap queries on one occupancy, in a scratch's buffers.
 * The empty traps within a radius are counted over storage row spans,
 * with per-row prefix counts for the rows the queries keep returning
 * to: those grow with the rows the queries reach, not the storage grid.
 */
class NearestEmpty
{
  public:
    explicit NearestEmpty(QubitPlacerScratch &s) : s_(s) {}

    /** Start over on @p state's occupancy. */
    void
    reset(const PlacementState &state)
    {
        const Architecture &arch = state.arch();
        state_ = &state;
        const auto rows = static_cast<std::size_t>(arch.numStorageRows());
        s_.row_offset.assign(rows, -1);
        s_.row_scanned.assign(rows, 0);
        s_.prefix.clear();
        pitch_ = 0.0;
        for (const ZoneSpec &z : arch.storageZones())
            for (int slm : z.slm_ids) {
                const SlmSpec &s =
                    arch.slms()[static_cast<std::size_t>(slm)];
                pitch_ = std::max({pitch_, s.sep_x, s.sep_y});
            }
    }

    /** The largest storage pitch (x or y). */
    double pitch() const { return pitch_; }

    /**
     * The @p n-th least key (n >= 1) among the empty storage traps seen
     * from @p p, or coverKey() when there are fewer than @p n. The
     * search starts from the guess [@p lo, @p hi] for the n-th
     * distance, by default from a disk that would hold n traps.
     */
    TrapKey
    nthKey(Point p, std::int64_t n, double lo = -1.0, double hi = -1.0)
    {
        const Architecture &arch = state_->arch();
        if (hi < 0.0)
            hi = pitch_ * (std::sqrt(static_cast<double>(n)) + 2.0);
        const TrapKey cover = coverKey(arch, p);
        // Bracket the n-th distance: countWithin(lo) < n <= c_hi.
        std::int64_t c_lo = countWithin(p, lo);
        std::int64_t c_hi = 0;
        if (c_lo >= n) {
            hi = lo;
            c_hi = c_lo;
            lo = -1.0;
            c_lo = 0;
        } else {
            c_hi = countWithin(p, hi);
        }
        while (c_hi < n) {
            if (hi >= cover.d)
                return cover; // the disk holds every storage trap
            lo = hi;
            c_lo = c_hi;
            hi = 2.0 * hi + pitch_;
            c_hi = countWithin(p, hi);
        }
        while (c_hi - c_lo > kRankedAnnulus) {
            const double mid = lo + 0.5 * (hi - lo);
            if (!(mid > lo && mid < hi))
                break; // a tie shell: rank it whole
            const std::int64_t c = countWithin(p, mid);
            if (c >= n) {
                hi = mid;
                c_hi = c;
            } else {
                lo = mid;
                c_lo = c;
            }
        }

        // Rank the empty traps of the annulus lo < d <= hi: the spans
        // within hi less those within lo.
        std::vector<StorageSpan> &inner = s_.inner;
        std::vector<std::pair<double, TrapId>> &ranked = s_.ranked;
        s_.spans.clear();
        inner.clear();
        arch.storageSpansInDisk(p, hi, s_.spans);
        arch.storageSpansInDisk(p, lo, inner);
        ranked.clear();
        std::size_t j = 0;
        for (const StorageSpan &s : s_.spans) {
            while (j < inner.size() && inner[j].row < s.row)
                ++j;
            const bool has_inner = j < inner.size() && inner[j].row == s.row;
            for (int c = s.lo; c <= s.hi; ++c) {
                if (has_inner && c == inner[j].lo) {
                    c = inner[j].hi;
                    continue;
                }
                const TrapId t = s.first + c;
                if (state_->isEmpty(t))
                    ranked.emplace_back(distance(arch.trapPosition(t), p),
                                        t);
            }
        }
        if (static_cast<std::int64_t>(ranked.size()) != c_hi - c_lo)
            panic("nearestEmpty: annulus count mismatch");
        const auto nth = ranked.begin() + (n - c_lo - 1);
        std::nth_element(ranked.begin(), nth, ranked.end());
        return {nth->first, nth->second};
    }

  private:
    /** Empty storage traps within @p radius of @p p. */
    std::int64_t
    countWithin(Point p, double radius)
    {
        s_.spans.clear();
        state_->arch().storageSpansInDisk(p, radius, s_.spans);
        std::int64_t count = 0;
        for (const StorageSpan &s : s_.spans)
            count += countSpan(s);
        return count;
    }

    /**
     * Empty traps in span @p s: scanned directly until the scans of its
     * row add up to the row's length, then from the row's prefix
     * counts, so a query costs at most twice the cheaper of the two.
     */
    std::int64_t
    countSpan(const StorageSpan &s)
    {
        const auto row = static_cast<std::size_t>(s.row);
        int &off = s_.row_offset[row];
        if (off < 0) {
            const int len = s.hi - s.lo + 1;
            if (s_.row_scanned[row] + len <= s.cols) {
                s_.row_scanned[row] += len;
                std::int64_t count = 0;
                for (TrapId t = s.first + s.lo; t <= s.first + s.hi; ++t)
                    count += state_->isEmpty(t) ? 1 : 0;
                return count;
            }
            off = static_cast<int>(s_.prefix.size());
            int count = 0;
            s_.prefix.push_back(0);
            for (int c = 0; c < s.cols; ++c) {
                count += state_->isEmpty(s.first + c) ? 1 : 0;
                s_.prefix.push_back(count);
            }
        }
        const int *pre = s_.prefix.data() + off;
        return pre[s.hi + 1] - pre[s.lo];
    }

    QubitPlacerScratch &s_;
    const PlacementState *state_ = nullptr;
    double pitch_ = 0.0;
};

/** Ascending id runs [first, last]. */
using TrapRuns = std::vector<std::pair<TrapId, TrapId>>;

/**
 * Append the traps t (empty or not) with key(t) <= @p kappa seen from
 * @p p as id runs: per storage row, the span within kappa.d less the
 * traps at exactly that distance above kappa.t. Runs may overlap.
 */
void
appendNearestRuns(const Architecture &arch, Point p, const TrapKey &kappa,
                  std::vector<StorageSpan> &spans, TrapRuns &runs)
{
    spans.clear();
    arch.storageSpansInDisk(p, kappa.d, spans);
    for (const StorageSpan &s : spans) {
        const TrapId first = s.first;
        if (first + s.hi <= kappa.t) {
            runs.emplace_back(first + s.lo, first + s.hi);
            continue;
        }
        if (first + s.lo <= kappa.t)
            runs.emplace_back(first + s.lo, kappa.t);
        // The traps nearer than kappa.d: the span less its ends at
        // exactly that distance.
        auto onEdge = [&](int c) {
            return !(distance(arch.trapPosition(first + c), p) < kappa.d);
        };
        int lo = s.lo, hi = s.hi;
        while (lo <= hi && onEdge(lo))
            ++lo;
        while (hi >= lo && onEdge(hi))
            --hi;
        if (lo <= hi)
            runs.emplace_back(first + lo, first + hi);
    }
}

/** Sort @p runs and merge the overlapping and adjacent ones. */
void
mergeRuns(TrapRuns &runs)
{
    std::sort(runs.begin(), runs.end());
    std::size_t out = 0;
    for (const auto &r : runs) {
        if (out > 0 && r.first <= runs[out - 1].second + 1)
            runs[out - 1].second = std::max(runs[out - 1].second, r.second);
        else
            runs[out++] = r;
    }
    runs.resize(out);
}

/**
 * Candidate window of one leaving qubit in an expanded solve. Its
 * candidates are its local traps and its N nearest empty traps (keys
 * at or below `kappa`). It lists those within `radius` of the qubit
 * that cost less than sqrt(radius): a candidate farther away costs at
 * least that much, since its own distance term is at least
 * sqrt(radius) and the lookahead term is not negative. Once the
 * radius holds every candidate it lists them all and has no tail.
 */
struct StorageWindow
{
    Point cur;
    const std::optional<Point> *related = nullptr;
    const std::vector<TrapId> *local = nullptr; ///< ascending ids
    TrapKey kappa;
    double near = 0.0;   ///< distance to the nearest storage trap
    double full = 0.0;   ///< a radius holding every candidate
    double radius = 0.0;
    double tail = -kAssignInfeasible; ///< nothing listed yet
    std::vector<SparseEdge> edges;    ///< listed traps, ascending cost
};

/**
 * Grow @p w's list to its current radius. The candidates cheaper than
 * its old tail are listed already; the ones in its disk at or above
 * the old tail and below the new one are appended, cheapest first.
 * Adds the candidates costed to @p cells.
 */
void
growStorageWindow(const PlacementState &state, double alpha,
                  ColumnIndex &col, StorageWindow &w,
                  std::vector<StorageSpan> &spans, std::int64_t &cells)
{
    const Architecture &arch = state.arch();
    spans.clear();
    arch.storageSpansInDisk(w.cur, w.radius, spans);
    const double tail =
        w.radius >= w.full ? kAssignInfeasible : std::sqrt(w.radius);
    const std::size_t listed = w.edges.size();
    for (const StorageSpan &s : spans) {
        for (TrapId t = s.first + s.lo; t <= s.first + s.hi; ++t) {
            if (!state.isEmpty(t))
                continue;
            const Point tp = arch.trapPosition(t);
            const double d = distance(tp, w.cur);
            if (!atOrBelow(d, t, w.kappa) &&
                !std::binary_search(w.local->begin(), w.local->end(), t))
                continue;
            ++cells;
            const double cost = storageCost(d, tp, *w.related, alpha);
            if (cost < w.tail || !(cost < tail))
                continue; // listed already, or not yet
            w.edges.push_back({cost, col[t]});
        }
    }
    w.tail = tail;
    std::sort(w.edges.begin() + static_cast<std::ptrdiff_t>(listed),
              w.edges.end(), [](const SparseEdge &a, const SparseEdge &b) {
                  return a.cost < b.cost;
              });
}

/**
 * Every leaving qubit's @p count-nearest key (into wins[i].kappa, with
 * wins[i].cur) and the union of those nearest sets as merged runs.
 * Qubits are searched in position order, each from the previous one's
 * distance: two points delta apart have n-th distances within delta.
 */
void
findNearestSets(const PlacementState &state,
                const QubitPlacementRequest &req, std::int64_t count,
                NearestEmpty &ne, QubitPlacerScratch &s,
                std::vector<StorageWindow> &wins, TrapRuns &runs)
{
    std::vector<int> &order = s.order;
    const std::size_t n = req.leaving.size();
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = static_cast<int>(i);
        wins[i].cur = state.posOf(req.leaving[i]);
    }
    std::sort(order.begin(), order.end(), [&wins](int a, int b) {
        const Point pa = wins[static_cast<std::size_t>(a)].cur;
        const Point pb = wins[static_cast<std::size_t>(b)].cur;
        return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
    });
    const StorageWindow *prev = nullptr;
    for (int i : order) {
        StorageWindow &w = wins[static_cast<std::size_t>(i)];
        if (prev == nullptr) {
            w.kappa = ne.nthKey(w.cur, count);
        } else {
            const double slack = distance(w.cur, prev->cur) +
                                 1e-9 * (1.0 + prev->kappa.d);
            w.kappa = ne.nthKey(w.cur, count, prev->kappa.d - slack,
                                prev->kappa.d + slack);
        }
        appendNearestRuns(state.arch(), w.cur, w.kappa, s.spans, runs);
        prev = &w;
    }
    mergeRuns(runs);
}

} // namespace

std::vector<TrapRef>
nearestEmptyStorageTraps(const PlacementState &state, Point p,
                         std::size_t count)
{
    const Architecture &arch = state.arch();
    if (count == 0)
        return {};
    QubitPlacerScratch s;
    NearestEmpty ne(s);
    ne.reset(state);
    const TrapKey kappa = ne.nthKey(p, static_cast<std::int64_t>(count));
    TrapRuns runs;
    appendNearestRuns(arch, p, kappa, s.spans, runs);
    mergeRuns(runs);
    std::vector<TrapRef> out;
    for (const auto &[first, last] : runs)
        for (TrapId t = first; t <= last; ++t)
            if (state.isEmpty(t))
                out.push_back(arch.trapRef(t));
    return out;
}

std::vector<TrapRef>
placeQubitsInStorage(const PlacementState &state,
                     const QubitPlacementRequest &req,
                     QubitPlacerStats *stats, PlacementScratch *scratch)
{
    const Architecture &arch = state.arch();
    const std::size_t n = req.leaving.size();
    if (req.related.size() != n)
        panic("placeQubitsInStorage: request vectors out of shape");
    if (!(req.alpha >= 0.0 && std::isfinite(req.alpha)))
        fatal("placeQubitsInStorage: alpha must be finite and >= 0");
    if (stats)
        ++stats->calls;
    if (n == 0)
        return {};

    std::optional<PlacementScratch> local;
    PlacementScratch &ps = scratch ? *scratch : local.emplace();
    QubitPlacerScratch &s = ps.storage;
    std::vector<TrapId> &cols = s.cols;
    s.cands.resize(std::max(s.cands.size(), n));
    NearestEmpty ne(s);
    // Per call: windows keep the lists they grew, which would pile up
    // across calls as each slot's largest list.
    TrapRuns runs;
    std::vector<StorageWindow> wins;
    // The local solve, then one expanded solve. With E empty storage
    // traps, every expanded row lists its min(2n, E) nearest ones, so
    // when E >= n any r rows reach at least n >= r columns and Hall's
    // condition holds; when E < n no assignment exists.
    for (const bool expanded : {false, true}) {
        // Local candidates per qubit (k doubled on expansion), plus on
        // expansion the union of every qubit's nearest 2n empty traps.
        const int k = expanded ? 2 * req.k : req.k;
        TrapId base = arch.numTraps();
        TrapId top = 0;
        for (std::size_t i = 0; i < n; ++i) {
            candidateTraps(state, req.leaving[i], req.related[i], k, s,
                           s.cands[i]);
            const std::vector<TrapId> &row = s.cands[i];
            if (!row.empty()) {
                base = std::min(base, row.front());
                top = std::max(top, row.back());
            }
        }
        runs.clear();
        if (expanded) {
            wins.resize(n);
            ne.reset(state);
            findNearestSets(state, req, 2 * static_cast<std::int64_t>(n),
                            ne, s, wins, runs);
            if (!runs.empty()) {
                base = std::min(base, runs.front().first);
                top = std::max(top, runs.back().second);
            }
        }
        // Their union, as columns in TrapId order: the dense matrix's
        // column order, which decides the solver's ties. The last
        // solve's columns are cleared first, also when it threw; every
        // numbered trap is listed in cols.
        for (TrapId t : cols)
            s.col[t] = -1;
        s.col.base = base;
        const auto span = static_cast<std::size_t>(std::max(top - base + 1, 0));
        s.col.of.resize(std::max(s.col.of.size(), span), -1);
        cols.clear();
        auto addColumn = [&s, &cols](TrapId t) {
            int &c = s.col[t];
            if (c < 0) {
                cols.push_back(t);
                c = 0;
            }
        };
        for (std::size_t i = 0; i < n; ++i)
            for (TrapId t : s.cands[i])
                addColumn(t);
        for (const auto &[first, last] : runs)
            for (TrapId t = first; t <= last; ++t)
                if (state.isEmpty(t))
                    addColumn(t);
        std::sort(cols.begin(), cols.end());
        for (std::size_t c = 0; c < cols.size(); ++c)
            s.col[cols[c]] = static_cast<int>(c);

        Assignment assign;
        if (cols.size() >= n) {
            s.graph.reset(static_cast<int>(cols.size()));
            std::int64_t cells = 0;
            std::int64_t growths = 0;
            if (!expanded) {
                // One full row per qubit: its candidates at their
                // Eq. 3 cost, cheapest first.
                for (std::size_t i = 0; i < n; ++i) {
                    const Point cur = state.posOf(req.leaving[i]);
                    const std::size_t first = s.graph.edges.size();
                    for (TrapId t : s.cands[i]) {
                        const Point tp = arch.trapPosition(t);
                        s.graph.edges.push_back(
                            {storageCost(distance(tp, cur), tp,
                                         req.related[i], req.alpha),
                             s.col[t]});
                    }
                    std::sort(s.graph.edges.begin() +
                                  static_cast<std::ptrdiff_t>(first),
                              s.graph.edges.end(),
                              [](const SparseEdge &a, const SparseEdge &b) {
                                  return a.cost < b.cost;
                              });
                    s.graph.row_start.push_back(s.graph.edges.size());
                }
                cells = static_cast<std::int64_t>(s.graph.edges.size());
            } else {
                // One window per qubit, grown on demand.
                const double pitch = ne.pitch();
                for (std::size_t i = 0; i < n; ++i) {
                    StorageWindow &w = wins[i];
                    w.related = &req.related[i];
                    w.local = &s.cands[i];
                    w.near = distance(
                        arch.trapPosition(arch.nearestStorageTrap(w.cur)),
                        w.cur);
                    w.full = w.kappa.d;
                    for (TrapId t : s.cands[i])
                        w.full = std::max(
                            w.full, distance(arch.trapPosition(t), w.cur));
                    w.radius = w.near + 4.0 * pitch;
                    w.tail = -kAssignInfeasible;
                    w.edges.clear();
                    growStorageWindow(state, req.alpha, s.col, w, s.spans,
                                      cells);
                    s.graph.edges.insert(s.graph.edges.end(),
                                         w.edges.begin(), w.edges.end());
                    s.graph.row_start.push_back(s.graph.edges.size());
                    s.graph.tail.push_back(w.tail);
                }
            }
            auto grow = [&](int row) {
                StorageWindow &w = wins[static_cast<std::size_t>(row)];
                w.radius = w.near + 2.0 * (w.radius - w.near);
                growStorageWindow(state, req.alpha, s.col, w, s.spans, cells);
                ++growths;
                return SparseRowGrowth{w.edges, w.tail};
            };
            SparseRowGrower hook;
            if (expanded)
                hook = std::ref(grow); // no allocation
            assign = minWeightSparseMatching(
                s.graph, stats ? &stats->edges_relaxed : nullptr, hook,
                &ps.matching);
            if (stats) {
                ++stats->solves;
                if (expanded)
                    ++stats->expanded_solves;
                stats->rows += static_cast<std::int64_t>(n);
                stats->cols += static_cast<std::int64_t>(cols.size());
                stats->candidate_cells += cells;
                stats->window_growths += growths;
            }
        }
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
