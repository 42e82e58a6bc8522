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
 * does not list, on the dense path's columns. Where the full matrix
 * could choose a site outside a window, the sparse Jonker–Volgenant
 * solver has that window grown and continues the same augmenting
 * path. It therefore makes the dense solver's choices, so ties resolve
 * exactly as the reference resolves them, with no certificate and no
 * dense fallback.
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
 */
struct GateWindow
{
    Point p0, p1;
    const std::optional<Point> *look = nullptr;
    /**
     * A site farther than R from both qubits and the lookahead point
     * costs at least cost_k * sqrt(R): max-combined qubit terms (same
     * row) add one sqrt(R), summed ones two, the lookahead one more.
     * Rounding is monotone and 2x and 3x round like those sums, so the
     * bound holds in floating point.
     */
    double cost_k = 2.0;
    double radius = 0.0;
    double tail = -kAssignInfeasible; ///< nothing listed yet
    std::vector<SparseEdge> edges;    ///< listed sites, ascending cost
};

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
