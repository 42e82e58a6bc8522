/**
 * @file
 * Placement cost functions (paper Eq. 1-3).
 *
 * The movement-cost kernel is sqrt(distance), proportional to movement
 * duration. A gate's cost to a site is the *sum* of its qubits' kernels
 * when the qubits sit in different SLM rows (sequential drop-off forced
 * by the AOD non-stacking constraint) and the *max* when they share a
 * row (one stretched AOD row moves both at once).
 */

#ifndef ZAC_CORE_COST_HPP
#define ZAC_CORE_COST_HPP

#include "arch/spec.hpp"

namespace zac
{

/** Tolerance for "same SLM row" (same y coordinate) tests, in um. */
inline constexpr double kSameRowTolUm = 1e-6;

/**
 * Movement cost of gate g(q, q') to site @p site_pos (Eq. 1).
 *
 * @param site_pos reference (left-trap) position of the Rydberg site.
 * @param m_q,m_q2 current positions of the gate's qubits.
 */
double gateCost(Point site_pos, Point m_q, Point m_q2);

/**
 * The gate's nearest Rydberg site omega^near_g (Sec. V-A): the middle
 * site (floor-averaged row/col) between the two qubits' nearest sites
 * when those share a zone; otherwise the site nearest the qubits'
 * midpoint.
 */
int nearestSiteForGate(const Architecture &arch, Point m_q, Point m_q2);

/**
 * nearestSiteForGate for qubits parked at traps @p t0 / @p t1: the two
 * per-qubit nearest sites come from the Architecture's precomputed
 * per-trap table (O(1)) instead of point queries. Identical result to
 * the Point overload evaluated at the trap positions.
 */
int nearestSiteForGate(const Architecture &arch, TrapId t0, TrapId t1);

/**
 * Stage-transition cost proxy used to commit reuse vs no-reuse: each
 * moved qubit contributes two atom transfers plus its move duration,
 * summed left to right from 0. A term never falls as its distance
 * grows, in floating point too (see transitionCostFloor()).
 *
 * @param move_dists_um distances of the individual qubit movements.
 * @param t_transfer_us the atom-transfer time.
 */
double transitionCost(const std::vector<double> &move_dists_um,
                      double t_transfer_us);

} // namespace zac

#endif // ZAC_CORE_COST_HPP
