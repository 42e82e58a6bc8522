/**
 * @file
 * Gate placement: assigning each 2Q gate of a Rydberg stage to a
 * Rydberg site (paper Sec. V-B2).
 *
 * Unpinned gates are matched to sites with a Jonker–Volgenant
 * minimum-weight full matching whose edge weight is the Eq. 1 movement
 * cost plus the reuse-lookahead cost (the distance of the next stage's
 * incoming partner qubit to the candidate site).
 *
 * placeGatesReference() builds the dense |gates| x |free sites| matrix
 * and matches over every free site: the original path, and the
 * semantic reference. placeGates() returns the same sites from one
 * sparse solve on windows. Each gate lists the free sites of its
 * window Omega_cand (sites near its qubits and its lookahead point)
 * cheaper than a tail, a lower bound on the cost of every free site it
 * does not list, on the dense path's columns. The tail follows from
 * the triangle inequality between the gate's two qubits (GateWindow),
 * and the first window is sized by inverting it at the cost of the
 * gate's cheapest near site plus a margin. Where the full matrix could
 * choose a site outside a window, the sparse Jonker–Volgenant solver
 * has that window grown and continues the same augmenting path. It
 * therefore makes the dense solver's choices, so ties resolve exactly
 * as the reference resolves them, with no certificate and no dense
 * fallback; the windows change only the work per call.
 */

#ifndef ZAC_CORE_GATE_PLACER_HPP
#define ZAC_CORE_GATE_PLACER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/placement_state.hpp"
#include "matching/jonker_volgenant.hpp"
#include "transpile/stages.hpp"

namespace zac
{

/** Placement request for the gates of one Rydberg stage. */
struct GatePlacementRequest
{
    /** The stage's gates. */
    const std::vector<StagedGate> *gates = nullptr;
    /**
     * Per gate: pinned site id (reuse inherits the matched gate's site)
     * or -1 for free gates the matcher may place anywhere.
     */
    std::vector<int> pinned_site;
    /**
     * Per gate: position of the next stage's incoming partner qubit
     * q'' if this gate is reused next stage (adds sqrt(d(site, q''))
     * to the edge weight), or nullopt.
     */
    std::vector<std::optional<Point>> lookahead;
};

/**
 * Counters describing how placeGates() resolved its calls. A call with
 * a free gate is exactly one of: certified (settled on windows) or
 * fallbacks (settled after a window grew to cover every free site).
 */
struct GatePlacerStats
{
    std::int64_t calls = 0;          ///< placeGates() invocations
    std::int64_t certified = 0;      ///< settled on windows
    std::int64_t window_growths = 0; ///< windows grown at their tail
    std::int64_t fallbacks = 0;      ///< a window grew to all sites
    std::int64_t window_cells = 0;   ///< sites costed per window built
    std::int64_t full_cells = 0;     ///< |free gates| x |sites|
    std::int64_t edges_relaxed = 0;  ///< the solver's reduced costs

    GatePlacerStats &operator+=(const GatePlacerStats &o);
};

/**
 * Candidate window of one free gate: the free sites within `radius` of
 * its qubits or its lookahead point. It lists those cheaper than
 * `tail`, a lower bound on the cost of every free site it does not
 * list; once the disks cover every free site it lists them all and
 * has no tail.
 *
 * The tail bounds a free site farther than r from both qubits and the
 * lookahead point, where D = |p0 p1| and d0 + d1 >= D (triangle
 * inequality). With the qubits on different rows its qubit terms sum
 * to sqrt(d0) + sqrt(d1) >= sqrt(r) + sqrt(max(r, D - r)): the square
 * root is concave, so at a fixed d0 + d1 the sum is least with one term
 * at r. On one row they combine by max, at least sqrt(max(r, D / 2)).
 * A lookahead point adds sqrt(r). The tail is that bound shrunk by a
 * relative 1e-12, so that it holds in floating point too: a computed
 * distance is within a few ulps of the exact one, so the triangle
 * inequality holds between computed distances up to a relative
 * ~1e-15, and a site's computed cost and the computed bound round by a
 * few ulps more.
 */
struct GateWindow
{
    Point p0, p1;
    const std::optional<Point> *look = nullptr;
    double sep = 0.0;      ///< D = |p0 p1|
    bool same_row = false; ///< qubit terms combine by max (Eq. 1)
    double radius = 0.0;
    double tail = -kAssignInfeasible; ///< nothing listed yet
    std::vector<SparseEdge> edges;    ///< listed sites, ascending cost

    /** Aim the window at a gate's qubits and lookahead point. */
    void aim(Point q0, Point q1, const std::optional<Point> *lookahead);
    /**
     * The tail of a window of radius @p r: a lower bound on the cost of
     * every site whose distance() to both qubits and the lookahead
     * point exceeds r - kDiskEdgeTolUm (the sites sitesInDisk() may
     * leave out).
     */
    double tailAt(double r) const;
    /**
     * The radius at which the exact bound reaches cost @p t, in closed
     * form (0 when it is at least @p t everywhere).
     */
    double radiusFor(double t) const;
    /**
     * The radius that follows `radius`: max(2 radius, radius + @p pitch),
     * and at least D on one row without a lookahead point, where the
     * bound is flat below D / 2. Its tailAt() exceeds tailAt(radius).
     */
    double grownRadius(double pitch) const;
};

/**
 * The first radius of free gate @p g's window @p w (aimed at it) in a
 * call with @p num_free free gates: w.radiusFor(t) at t = the cost of
 * the gate's cheapest near site (nearestSiteForGate() and each qubit's
 * nearestSiteOfTrap()) plus a margin, and at least
 * pitch * sqrt(num_free / 2 pi), a disk of about num_free / 2 sites.
 */
double firstGateWindowRadius(const PlacementState &state,
                             const StagedGate &g, const GateWindow &w,
                             int num_free);

/**
 * Reusable buffers of placeGates(), value-reset at every call; the
 * per-site arrays only where the last call set them.
 */
struct GatePlacerScratch
{
    std::vector<int> result;       ///< per gate: site id (-1 pending)
    std::vector<char> site_taken;  ///< per site: pinned by reuse
    std::vector<int> pinned_sites; ///< the pinned sites, ascending
    std::vector<int> free_gates;   ///< indices of unpinned gates
    int num_free_sites = 0;        ///< sites not pinned
    std::vector<GateWindow> wins;  ///< per free gate
    SparseCostGraph graph;
    std::vector<int> disk;             ///< sites a window's disks hold
    std::vector<std::uint64_t> seen;   ///< per site: stamp
    std::uint64_t stamp = 0;
};

struct PlacementScratch; // core/movement.hpp

/**
 * Compute the site id for every gate of the stage on exact windows
 * (the result is bit-identical to placeGatesReference()).
 *
 * @param stats optional counters, accumulated across calls.
 * @param scratch reusable buffers (null: call-local ones).
 * @throws zac::FatalError if the stage has more gates than sites.
 */
std::vector<int> placeGates(const PlacementState &state,
                            const GatePlacementRequest &request,
                            GatePlacerStats *stats = nullptr,
                            PlacementScratch *scratch = nullptr);

/** The original dense full-matrix path (reference semantics). */
std::vector<int> placeGatesReference(const PlacementState &state,
                                     const GatePlacementRequest &request);

} // namespace zac

#endif // ZAC_CORE_GATE_PLACER_HPP
