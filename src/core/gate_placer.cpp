#include "core/gate_placer.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "common/logging.hpp"
#include "core/cost.hpp"
#include "core/movement.hpp"

namespace zac
{

namespace
{

/**
 * Initial radius headroom, in sqrt-um cost units: the first window
 * admits every site whose cost lower bound is within this margin of
 * the cost of the gate's cheapest near site, absorbing moderate
 * assignment conflicts without a growth round.
 */
constexpr double kCostMargin = 1.5;

/** Relative shrink of a window's tail below its bound (GateWindow). */
constexpr double kTailRelTol = 1e-12;

/**
 * Pin handling shared by the windowed and reference paths. `result` is
 * moved out to the caller and reallocated per call. `site_taken` is
 * clear but for the last call's pins, which are cleared first, also
 * after a throw: each is listed in `pinned_sites` once set.
 */
void
applyPins(const PlacementState &state, const GatePlacementRequest &req,
          GatePlacerScratch &p)
{
    const Architecture &arch = state.arch();
    const std::vector<StagedGate> &gates = *req.gates;
    const std::size_t num_gates = gates.size();
    if (req.pinned_site.size() != num_gates ||
        req.lookahead.size() != num_gates)
        panic("placeGates: request vectors out of shape");

    p.result.assign(num_gates, -1);
    for (int pin : p.pinned_sites)
        p.site_taken[static_cast<std::size_t>(pin)] = 0;
    p.pinned_sites.clear();
    if (p.site_taken.size() < static_cast<std::size_t>(arch.numSites()))
        p.site_taken.resize(static_cast<std::size_t>(arch.numSites()), 0);
    p.free_gates.clear();
    for (std::size_t i = 0; i < num_gates; ++i) {
        const int pin = req.pinned_site[i];
        if (pin >= 0) {
            if (pin >= arch.numSites())
                panic("placeGates: pinned site out of range");
            if (p.site_taken[static_cast<std::size_t>(pin)])
                panic("placeGates: two gates pinned to one site");
            p.site_taken[static_cast<std::size_t>(pin)] = 1;
            p.pinned_sites.push_back(pin);
            p.result[i] = pin;
        } else {
            p.free_gates.push_back(static_cast<int>(i));
        }
    }
    std::sort(p.pinned_sites.begin(), p.pinned_sites.end());
    p.num_free_sites =
        arch.numSites() - static_cast<int>(p.pinned_sites.size());
    if (static_cast<std::size_t>(p.num_free_sites) < p.free_gates.size())
        fatal("placeGates: stage has " +
              std::to_string(p.free_gates.size()) +
              " unpinned gates but only " +
              std::to_string(p.num_free_sites) + " free sites");
}

/** Edge weight of a gate at @p site_pos: Eq. 1 plus the lookahead. */
double
edgeWeight(Point site_pos, Point p0, Point p1,
           const std::optional<Point> &look)
{
    double w = gateCost(site_pos, p0, p1);
    if (look.has_value())
        w += sqrtDistance(site_pos, *look);
    return w;
}

/**
 * The original dense path: match the free gates over every free site
 * (Omega_cand = the full site set minus Omega_reuse). Fills
 * @p p.result for the free gates.
 */
void
solveFullMatrix(const PlacementState &state,
                const GatePlacementRequest &req, GatePlacerScratch &p)
{
    const Architecture &arch = state.arch();
    const std::vector<StagedGate> &gates = *req.gates;

    std::vector<int> free_sites;
    for (int s = 0; s < arch.numSites(); ++s)
        if (!p.site_taken[static_cast<std::size_t>(s)])
            free_sites.push_back(s);

    CostMatrix cost(static_cast<int>(p.free_gates.size()),
                    static_cast<int>(free_sites.size()));
    for (std::size_t gi = 0; gi < p.free_gates.size(); ++gi) {
        const StagedGate &g =
            gates[static_cast<std::size_t>(p.free_gates[gi])];
        const Point p0 = state.posOf(g.q0);
        const Point p1 = state.posOf(g.q1);
        const auto &look =
            req.lookahead[static_cast<std::size_t>(p.free_gates[gi])];
        for (std::size_t si = 0; si < free_sites.size(); ++si)
            cost.at(static_cast<int>(gi), static_cast<int>(si)) =
                edgeWeight(arch.sitePosition(free_sites[si]), p0, p1,
                           look);
    }

    const Assignment assign = minWeightFullMatching(cost);
    if (!assign.feasible)
        panic("placeGates: full site matrix must be feasible");
    for (std::size_t gi = 0; gi < p.free_gates.size(); ++gi) {
        const int site =
            free_sites[static_cast<std::size_t>(
                assign.row_to_col[gi])];
        p.result[static_cast<std::size_t>(p.free_gates[gi])] = site;
    }
}

/**
 * Grow @p w's list to its current radius, as columns of the dense
 * reference: free sites in ascending id, so a site's column is its id
 * minus the pinned sites below it. The sites cheaper than its old tail
 * are listed already (an unlisted site costs at least that much); the
 * free sites in its disks at or above the old tail and below the new
 * one are appended, cheapest first. Adds the sites costed to @p cells.
 */
void
growWindow(const Architecture &arch, GatePlacerScratch &p, GateWindow &w,
           std::int64_t &cells)
{
    const std::uint64_t stamp = ++p.stamp;
    if (p.seen.size() < static_cast<std::size_t>(arch.numSites()))
        p.seen.resize(static_cast<std::size_t>(arch.numSites()), 0);
    p.disk.clear();
    arch.sitesInDisk(w.p0, w.radius, p.disk);
    arch.sitesInDisk(w.p1, w.radius, p.disk);
    if (w.look->has_value())
        arch.sitesInDisk(**w.look, w.radius, p.disk);

    const std::size_t listed = w.edges.size();
    int costed = 0;
    for (int s : p.disk) {
        const auto si = static_cast<std::size_t>(s);
        if (p.seen[si] == stamp || p.site_taken[si])
            continue;
        p.seen[si] = stamp;
        ++costed;
        const double cost =
            edgeWeight(arch.sitePosition(s), w.p0, w.p1, *w.look);
        if (cost < w.tail)
            continue; // listed already
        const auto below = std::lower_bound(p.pinned_sites.begin(),
                                            p.pinned_sites.end(), s) -
                           p.pinned_sites.begin();
        w.edges.push_back({cost, s - static_cast<int>(below)});
    }
    cells += costed;

    // A site sitesInDisk() left out is farther than the shrunk radius
    // from every center. With every free site found there is no tail.
    w.tail = costed == p.num_free_sites ? kAssignInfeasible
                                        : w.tailAt(w.radius);
    const auto added = w.edges.begin() + static_cast<std::ptrdiff_t>(listed);
    const auto kept = std::remove_if(
        added, w.edges.end(),
        [&w](const SparseEdge &e) { return !(e.cost < w.tail); });
    std::sort(added, kept, [](const SparseEdge &a, const SparseEdge &b) {
        return a.cost < b.cost;
    });
    w.edges.erase(kept, w.edges.end());
}

/**
 * The windowed path: one sparse solve over the free gates' windows on
 * the reference's columns. When the solver reaches a window's tail,
 * the window grows and the solve continues, so it makes the
 * reference's choices, ties included.
 */
void
solveWindows(const PlacementState &state, const GatePlacementRequest &req,
             PlacementScratch &scratch, GatePlacerStats &st)
{
    const Architecture &arch = state.arch();
    const std::vector<StagedGate> &gates = *req.gates;
    GatePlacerScratch &p = scratch.gates;
    std::vector<GateWindow> &wins = p.wins;
    const std::size_t num_free = p.free_gates.size();

    // Initial windows admit every site whose cost lower bound is
    // within kCostMargin of the gate's cheapest near site.
    wins.resize(num_free);
    p.graph.reset(p.num_free_sites);
    for (std::size_t gi = 0; gi < num_free; ++gi) {
        const auto gate = static_cast<std::size_t>(p.free_gates[gi]);
        const StagedGate &g = gates[gate];
        GateWindow &w = wins[gi];
        w.aim(state.posOf(g.q0), state.posOf(g.q1), &req.lookahead[gate]);
        w.radius = firstGateWindowRadius(state, g, w,
                                         static_cast<int>(num_free));
        w.tail = -kAssignInfeasible;
        w.edges.clear();
        growWindow(arch, p, w, st.window_cells);
        p.graph.edges.insert(p.graph.edges.end(), w.edges.begin(),
                             w.edges.end());
        p.graph.row_start.push_back(p.graph.edges.size());
        p.graph.tail.push_back(w.tail);
    }

    bool grew_full = false;
    auto grow = [&](int row) {
        GateWindow &w = wins[static_cast<std::size_t>(row)];
        w.radius = w.grownRadius(arch.maxSitePitch());
        growWindow(arch, p, w, st.window_cells);
        grew_full = grew_full || w.tail == kAssignInfeasible;
        ++st.window_growths;
        return SparseRowGrowth{w.edges, w.tail};
    };
    // std::ref: the hook holds a pointer to the lambda, no allocation.
    const Assignment assign = minWeightSparseMatching(
        p.graph, &st.edges_relaxed, std::ref(grow), &scratch.matching);
    if (!assign.feasible)
        panic("placeGates: windows that grow to every free site must be "
              "feasible");
    for (std::size_t gi = 0; gi < num_free; ++gi) {
        int site = assign.row_to_col[gi]; // skip pinned sites
        for (int pin : p.pinned_sites)
            site += pin <= site ? 1 : 0;
        p.result[static_cast<std::size_t>(p.free_gates[gi])] = site;
    }
    ++(grew_full ? st.fallbacks : st.certified);
}

} // namespace

void
GateWindow::aim(Point q0, Point q1, const std::optional<Point> *lookahead)
{
    p0 = q0;
    p1 = q1;
    look = lookahead;
    sep = distance(q0, q1);
    same_row = std::abs(q0.y - q1.y) < kSameRowTolUm;
}

double
GateWindow::tailAt(double r) const
{
    r = std::max(0.0, r - kDiskEdgeTolUm);
    double bound = same_row ? std::sqrt(std::max(r, 0.5 * sep))
                            : std::sqrt(r) + std::sqrt(std::max(r, sep - r));
    if (look->has_value())
        bound += std::sqrt(r);
    return bound * (1.0 - kTailRelTol);
}

double
GateWindow::radiusFor(double t) const
{
    const bool has_look = look->has_value();
    const double half = 0.5 * sep;
    if (same_row) {
        // sqrt(max(r, D/2)) [+ sqrt(r)]: flat below D/2 without a
        // lookahead point.
        if (!has_look)
            return t * t > half ? t * t : 0.0;
        if (t * t >= 4.0 * half)
            return 0.25 * t * t;
        const double s = t - std::sqrt(half);
        return s > 0.0 ? s * s : 0.0;
    }
    // (1 + L) sqrt(r) + sqrt(max(r, D - r)), L = 1 with a lookahead
    // point: (2 + L) sqrt(r) from D/2 on; below, with a = 1 + L,
    // a s + sqrt(D - s^2) = t at s = sqrt(r) is a quadratic in s whose
    // smaller root lies in [0, sqrt(D/2)] for t in [sqrt(D), (1 + a)
    // sqrt(D/2)].
    const double k = has_look ? 3.0 : 2.0;
    if (t * t >= k * k * half)
        return t * t / (k * k);
    if (t * t <= sep)
        return 0.0;
    const double a = k - 1.0;
    const double s =
        (a * t - std::sqrt(std::max(0.0, (1.0 + a * a) * sep - t * t))) /
        (1.0 + a * a);
    return s > 0.0 ? s * s : 0.0;
}

double
GateWindow::grownRadius(double pitch) const
{
    const double next = std::max(2.0 * radius, radius + pitch);
    if (same_row && !look->has_value())
        return std::max(next, sep + kDiskEdgeTolUm);
    return next;
}

double
firstGateWindowRadius(const PlacementState &state, const StagedGate &g,
                      const GateWindow &w, int num_free)
{
    const Architecture &arch = state.arch();
    const TrapId t0 = state.trapIdOf(g.q0);
    const TrapId t1 = state.trapIdOf(g.q1);
    double cheapest = kAssignInfeasible;
    for (const int site : {nearestSiteForGate(arch, t0, t1),
                           arch.nearestSiteOfTrap(t0),
                           arch.nearestSiteOfTrap(t1)})
        cheapest = std::min(cheapest, edgeWeight(arch.sitePosition(site),
                                                 w.p0, w.p1, *w.look));
    const double floor =
        arch.maxSitePitch() *
        std::sqrt(static_cast<double>(num_free) / (2.0 * std::numbers::pi));
    return std::max(w.radiusFor(cheapest + kCostMargin), floor);
}

GatePlacerStats &
GatePlacerStats::operator+=(const GatePlacerStats &o)
{
    calls += o.calls;
    certified += o.certified;
    window_growths += o.window_growths;
    fallbacks += o.fallbacks;
    window_cells += o.window_cells;
    full_cells += o.full_cells;
    edges_relaxed += o.edges_relaxed;
    return *this;
}

std::vector<int>
placeGatesReference(const PlacementState &state,
                    const GatePlacementRequest &req)
{
    GatePlacerScratch p;
    applyPins(state, req, p);
    if (!p.free_gates.empty())
        solveFullMatrix(state, req, p);
    return std::move(p.result);
}

std::vector<int>
placeGates(const PlacementState &state, const GatePlacementRequest &req,
           GatePlacerStats *stats, PlacementScratch *scratch)
{
    std::optional<PlacementScratch> local;
    PlacementScratch &s = scratch ? *scratch : local.emplace();
    GatePlacerScratch &p = s.gates;
    applyPins(state, req, p);
    GatePlacerStats st;
    st.calls = 1;
    if (!p.free_gates.empty()) {
        st.full_cells = static_cast<std::int64_t>(p.free_gates.size()) *
                        state.arch().numSites();
        solveWindows(state, req, s, st);
    }
    if (stats)
        *stats += st;
    return std::move(p.result);
}

} // namespace zac
