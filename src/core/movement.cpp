#include "core/movement.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "common/logging.hpp"
#include "core/cost.hpp"
#include "core/qubit_placer.hpp"
#include "core/reuse.hpp"

namespace zac
{

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Everything produced while building one boundary variant. */
struct BoundaryResult
{
    std::vector<Movement> move_out;
    std::vector<Movement> move_in;
    std::vector<int> gate_sites;  ///< for the entering stage
    double cost = 0.0;
    int reused = 0;
    int direct = 0;               ///< direct in-zone moves (extension)
};

/**
 * Per-stage qubit -> 2Q-partner table replacing the O(#gates)
 * partnerInStage() scans (each stage touches a qubit at most once, so
 * a flat array keyed by qubit suffices). The table holds @p prev's
 * partners or none: only @p prev's entries are cleared.
 */
void
buildPartnerTable(const RydbergStage &prev, const RydbergStage &stage,
                  std::vector<int> &partner)
{
    for (const StagedGate &g : prev.gates) {
        partner[static_cast<std::size_t>(g.q0)] = -1;
        partner[static_cast<std::size_t>(g.q1)] = -1;
    }
    for (const StagedGate &g : stage.gates) {
        if (partner[static_cast<std::size_t>(g.q0)] == -1)
            partner[static_cast<std::size_t>(g.q0)] = g.q1;
        if (partner[static_cast<std::size_t>(g.q1)] == -1)
            partner[static_cast<std::size_t>(g.q1)] = g.q0;
    }
}

/** Append the distance of every move in @p moves, in order. */
void
appendMoveDists(const Architecture &arch, const std::vector<Movement> &moves,
                std::vector<double> &dists)
{
    for (const Movement &m : moves)
        dists.push_back(distance(arch.trapPosition(m.from),
                                 arch.trapPosition(m.to)));
}

double
movementCostUs(const Architecture &arch,
               const std::vector<Movement> &out,
               const std::vector<Movement> &in, std::vector<double> &dists)
{
    dists.clear();
    dists.reserve(out.size() + in.size());
    appendMoveDists(arch, out, dists);
    appendMoveDists(arch, in, dists);
    return transitionCost(dists, arch.params().t_transfer_us);
}

void
grow(TrapBox &box, Point p)
{
    box.lo = {std::min(box.lo.x, p.x), std::min(box.lo.y, p.y)};
    box.hi = {std::max(box.hi.x, p.x), std::max(box.hi.y, p.y)};
}

/** The distance of @p p to the point of @p box nearest it. */
double
boxDistance(Point p, const TrapBox &box)
{
    return distance(p, {std::clamp(p.x, box.lo.x, box.hi.x),
                        std::clamp(p.y, box.lo.y, box.hi.y)});
}

} // namespace

FloorBoxes
floorBoxes(const Architecture &arch)
{
    FloorBoxes b;
    b.sites = {arch.site(0).pos_left, arch.site(0).pos_left};
    for (const RydbergSite &s : arch.sites()) {
        grow(b.sites, s.pos_left);
        grow(b.sites, s.pos_right);
    }
    if (arch.numStorageTraps() == 0)
        return b;
    // A trap's coordinates grow with its row and column (positive
    // pitch, monotone rounding), so each storage SLM's first and last
    // traps bound its traps, bit for bit.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    b.storage = {{kInf, kInf}, {-kInf, -kInf}};
    for (const ZoneSpec &zone : arch.storageZones()) {
        for (const int id : zone.slm_ids) {
            const SlmSpec &slm = arch.slms()[static_cast<std::size_t>(id)];
            grow(b.storage, arch.trapPosition(TrapRef{id, 0, 0}));
            grow(b.storage, arch.trapPosition(
                                TrapRef{id, slm.rows - 1, slm.cols - 1}));
        }
    }
    // Per axis, how far the boxes lie apart (0 where they overlap).
    const double dx = std::max({0.0, b.sites.lo.x - b.storage.hi.x,
                                b.storage.lo.x - b.sites.hi.x});
    const double dy = std::max({0.0, b.sites.lo.y - b.storage.hi.y,
                                b.storage.lo.y - b.sites.hi.y});
    b.gap = distance({0.0, 0.0}, {dx, dy});
    return b;
}

std::vector<Movement>
buildMoveIns(PlacementState &state, const RydbergStage &stage,
             const std::vector<int> &sites)
{
    const Architecture &arch = state.arch();
    std::vector<Movement> moves;
    moves.reserve(2 * stage.gates.size());
    for (std::size_t i = 0; i < stage.gates.size(); ++i) {
        const StagedGate &g = stage.gates[i];
        const RydbergSite &site =
            arch.site(sites[i]);
        const TrapRef t0 = state.trapOf(g.q0);
        const TrapRef t1 = state.trapOf(g.q1);
        const bool q0_here = t0 == site.left || t0 == site.right;
        const bool q1_here = t1 == site.left || t1 == site.right;
        if (q0_here && q1_here)
            continue;
        if (q0_here || q1_here) {
            // One qubit is reused in place; the partner takes the
            // other trap of the site.
            const TrapRef stay_trap = q0_here ? t0 : t1;
            const int move = q0_here ? g.q1 : g.q0;
            const TrapRef move_trap = q0_here ? t1 : t0;
            const TrapRef dest =
                stay_trap == site.left ? site.right : site.left;
            moves.push_back({move, move_trap, dest});
            continue;
        }
        // Fresh gate: left/right by current x order to avoid crossing.
        const Point p0 = arch.trapPosition(state.trapIdOf(g.q0));
        const Point p1 = arch.trapPosition(state.trapIdOf(g.q1));
        const int left_q = p0.x <= p1.x ? g.q0 : g.q1;
        const TrapRef left_t = left_q == g.q0 ? t0 : t1;
        const int right_q = left_q == g.q0 ? g.q1 : g.q0;
        const TrapRef right_t = left_q == g.q0 ? t1 : t0;
        moves.push_back({left_q, left_t, site.left});
        moves.push_back({right_q, right_t, site.right});
    }
    // Apply as a permutation: vacate every source first so in-zone
    // direct moves may target traps other movers are leaving.
    for (const Movement &m : moves)
        state.liftQubit(m.qubit);
    for (const Movement &m : moves)
        state.place(m.qubit, m.to);
    return moves;
}

/*
 * Why the floor is at most the cost, bit for bit. Both are
 * transitionCost() of a distance list, and each floor term is matched
 * with a cost term at least as large, in the same relative order:
 *  - Move-outs come first in both. After them, the floor lists their
 *    distances as movementCostUs() computes them. Before them, it lists
 *    each leaving qubit's distance to the storage box, in the order
 *    buildMoveOutHalf() sends them to storage traps (gate order, q0
 *    before q1).
 *  - Move-ins follow, in gate order. A qubit in storage is never at
 *    its gate's site, so it moves in; after the move-outs a zone qubit
 *    may stay put and adds no term. When both of a gate's qubits move
 *    in, buildMoveIns() lists the one with the smaller x first, and
 *    with both in storage at the floor the floor does too, from the
 *    positions the move-ins see (the move-outs do not move them).
 *  - Before the move-outs, a gate with a qubit still to move out has
 *    both qubits in storage at its move-ins, but that qubit's trap, so
 *    its x, is not known yet. The floor lists the gap for both: equal
 *    terms match the cost's in either order, and the gap is at most
 *    either qubit's distance from any storage trap to any site trap.
 *    The other way, shrinking the sum by a relative margin that covers
 *    any summation order, would rest on a rounding-error bound instead
 *    of the same monotone steps; the gap loses only the other qubit's
 *    distance past the gap, in gates that mix the two stages.
 *  - A term never falls as its distance grows, and rounding is
 *    monotone. A box term: with q the point of the box nearest p (p
 *    clamped per axis) and s the trap p moves to, inside the box, q.x
 *    lies between p.x and s.x, so |p.x - q.x| <= |p.x - s.x| exactly
 *    and after rounding, likewise in y. The gap: per axis, the space
 *    between the boxes is at most |p.x - s.x| for any p in one box and
 *    s in the other, exactly and after rounding. Then the squares,
 *    their sum, the square roots, sqrt(d / a) and the term follow.
 *  - Sums: fl(a + b) <= fl(a' + b') for a <= a' and b <= b', and a
 *    cost term without a floor term only adds a term >= 0. By
 *    induction along the cost's list, each partial floor is at most
 *    the matching partial cost.
 */
double
transitionCostFloor(const PlacementState &state, const RydbergStage *leaving,
                    const RydbergStage &stage,
                    const std::vector<Movement> &move_out,
                    const FloorBoxes &boxes, std::vector<double> &dists)
{
    const Architecture &arch = state.arch();
    dists.clear();
    appendMoveDists(arch, move_out, dists);
    if (leaving != nullptr)
        for (const StagedGate &g : leaving->gates)
            for (const int q : {g.q0, g.q1})
                dists.push_back(boxDistance(state.posOf(q), boxes.storage));
    for (const StagedGate &g : stage.gates) {
        TrapId first = state.trapIdOf(g.q0);
        TrapId second = state.trapIdOf(g.q1);
        if (leaving != nullptr &&
            !(arch.isStorageTrap(first) && arch.isStorageTrap(second))) {
            dists.push_back(boxes.gap);
            dists.push_back(boxes.gap);
            continue;
        }
        if (arch.trapPosition(second).x < arch.trapPosition(first).x)
            std::swap(first, second);
        for (const TrapId t : {first, second})
            if (arch.isStorageTrap(t))
                dists.push_back(boxDistance(arch.trapPosition(t),
                                            boxes.sites));
    }
    return transitionCost(dists, arch.params().t_transfer_us);
}

namespace
{

/**
 * The move-out half of a boundary variant: move stage @p t's
 * non-staying qubits to storage and apply the moves to @p state
 * (nothing when @p t < 0). Sets @p result's move_out, reused and
 * direct.
 *
 * @param matching reuse matching between stages t and t+1 (empty for
 *                 the no-reuse variant).
 * @param next_partner per qubit: its 2Q partner in stage t+1, or -1.
 */
void
buildMoveOutHalf(PlacementState &state, const StagedCircuit &staged, int t,
                 const ReuseMatching &matching,
                 const std::vector<int> &next_partner,
                 const ZacOptions &opts, PlacementProfile *profile,
                 PlacementScratch &scratch, BoundaryResult &result)
{
    if (t < 0)
        return;
    const RydbergStage &cur_stage =
        staged.rydberg[static_cast<std::size_t>(t)];
    const RydbergStage &next_stage =
        staged.rydberg[static_cast<std::size_t>(t) + 1];

    // ---- qubits staying at their sites across the boundary (the
    // flags are all clear on entry, and cleared again below).
    std::vector<char> &stays = scratch.stays;
    // Inlined reusedQubits(): the stays flags double as the dedup
    // set, so the per-variant vector + sort/unique disappears.
    for (std::size_t i = 0; i < cur_stage.gates.size(); ++i) {
        const int j =
            matching.next_of_cur.empty() ? -1 : matching.next_of_cur[i];
        if (j < 0)
            continue;
        const StagedGate &g = cur_stage.gates[i];
        const StagedGate &h = next_stage.gates[static_cast<std::size_t>(j)];
        for (int q : {g.q0, g.q1}) {
            if (h.touches(q) && !stays[static_cast<std::size_t>(q)]) {
                stays[static_cast<std::size_t>(q)] = 1;
                ++result.reused;
            }
        }
    }

    // ---- non-reuse qubit placement (move-out).
    const double t0 = profile ? nowSeconds() : 0.0;
    QubitPlacementRequest &qreq = scratch.qreq;
    qreq.k = opts.candidate_k;
    qreq.alpha = opts.lookahead_alpha;
    qreq.leaving.clear();
    qreq.related.clear();
    qreq.leaving.reserve(2 * cur_stage.gates.size());
    qreq.related.reserve(2 * cur_stage.gates.size());
    for (const StagedGate &g : cur_stage.gates) {
        for (int q : {g.q0, g.q1}) {
            if (stays[static_cast<std::size_t>(q)])
                continue;
            const int partner = next_partner[static_cast<std::size_t>(q)];
            if (opts.use_direct_reuse && partner >= 0) {
                // Sec. X extension: active in both stages — stay in
                // the zone and move site-to-site during the next
                // move-in, skipping the storage round trip.
                ++result.direct;
                continue;
            }
            qreq.leaving.push_back(q);
            if (partner >= 0)
                qreq.related.emplace_back(state.posOf(partner));
            else
                qreq.related.emplace_back(std::nullopt);
        }
    }
    const std::vector<TrapRef> dests =
        opts.use_dynamic_placement
            ? placeQubitsInStorage(
                  state, qreq, profile ? &profile->qubit_placer : nullptr,
                  &scratch)
            : returnQubitsHome(state, qreq.leaving);
    result.move_out.reserve(qreq.leaving.size());
    for (std::size_t i = 0; i < qreq.leaving.size(); ++i) {
        const int q = qreq.leaving[i];
        result.move_out.push_back({q, state.trapOf(q), dests[i]});
        state.place(q, dests[i]);
    }
    for (const StagedGate &g : cur_stage.gates) {
        stays[static_cast<std::size_t>(g.q0)] = 0;
        stays[static_cast<std::size_t>(g.q1)] = 0;
    }
    if (profile)
        profile->qubit_placement_seconds += nowSeconds() - t0;
}

/**
 * The move-in half of a boundary variant: place the gates of stage
 * t+1 (stage 0 when @p t < 0), move their qubits in, and cost the
 * variant. Sets @p result's gate_sites, move_in and cost.
 *
 * @param matching reuse matching between stages t and t+1, whose
 *                 reused gates keep their stage-t sites @p cur_sites.
 * @param next_matching reuse matching between stages t+1 and t+2, used
 *                 for the gate-placement lookahead.
 */
void
buildMoveInHalf(PlacementState &state, const StagedCircuit &staged, int t,
                const ReuseMatching &matching,
                const ReuseMatching &next_matching,
                const std::vector<int> &cur_sites, PlacementProfile *profile,
                PlacementScratch &scratch, BoundaryResult &result)
{
    const int next_t = t + 1;
    const RydbergStage &next_stage =
        staged.rydberg[static_cast<std::size_t>(next_t)];
    GatePlacementRequest &greq = scratch.greq;
    greq.gates = &next_stage.gates;
    greq.pinned_site.assign(next_stage.gates.size(), -1);
    greq.lookahead.assign(next_stage.gates.size(), std::nullopt);
    if (t >= 0 && !matching.next_of_cur.empty()) {
        for (std::size_t i = 0; i < matching.next_of_cur.size(); ++i) {
            const int j = matching.next_of_cur[i];
            if (j >= 0)
                greq.pinned_site[static_cast<std::size_t>(j)] =
                    cur_sites[i];
        }
    }
    if (next_matching.size > 0 &&
        next_t + 1 < staged.numRydbergStages()) {
        // If gate g(q,q') of stage t+1 is reused by g'(q,q'') in stage
        // t+2, add q'''s distance to the candidate site (Sec. V-B2).
        const RydbergStage &after =
            staged.rydberg[static_cast<std::size_t>(next_t) + 1];
        for (std::size_t i = 0; i < next_matching.next_of_cur.size();
             ++i) {
            const int j = next_matching.next_of_cur[i];
            if (j < 0)
                continue;
            const StagedGate &g = next_stage.gates[i];
            const StagedGate &g2 =
                after.gates[static_cast<std::size_t>(j)];
            const int shared = g2.touches(g.q0) ? g.q0 : g.q1;
            const int incoming = g2.other(shared);
            greq.lookahead[i] = state.posOf(incoming);
        }
    }
    const double t1 = profile ? nowSeconds() : 0.0;
    result.gate_sites =
        placeGates(state, greq, profile ? &profile->gate_placer : nullptr,
                   &scratch);
    const double t2 = profile ? nowSeconds() : 0.0;
    result.move_in = buildMoveIns(state, next_stage, result.gate_sites);
    result.cost = movementCostUs(state.arch(), result.move_out,
                                 result.move_in, scratch.dists);
    if (profile) {
        profile->gate_placement_seconds += t2 - t1;
        profile->move_build_seconds += nowSeconds() - t2;
    }
}

/** The rival cost of a variant built in full. */
constexpr double kNoRival = std::numeric_limits<double>::infinity();

/**
 * Build one boundary variant: its move-out half, then its move-in
 * half. Mutates @p state; the caller journals/undoes or keeps the
 * mutations.
 *
 * @param rival_cost the cost of the variant this one competes with.
 *                 When transitionCostFloor() after the move-outs is at
 *                 least @p rival_cost, this variant cannot cost less
 *                 and stops there, with the floor as its cost and no
 *                 gate sites or move-ins. kNoRival: build it in full.
 */
BoundaryResult
buildBoundary(PlacementState &state, const StagedCircuit &staged, int t,
              const ReuseMatching &matching,
              const ReuseMatching &next_matching,
              const std::vector<int> &cur_sites,
              const std::vector<int> &next_partner, const ZacOptions &opts,
              const FloorBoxes &boxes, double rival_cost,
              PlacementProfile *profile, PlacementScratch &scratch)
{
    BoundaryResult result;
    buildMoveOutHalf(state, staged, t, matching, next_partner, opts,
                     profile, scratch, result);
    if (rival_cost != kNoRival) {
        const double t0 = profile ? nowSeconds() : 0.0;
        const double floor = transitionCostFloor(
            state, nullptr, staged.rydberg[static_cast<std::size_t>(t) + 1],
            result.move_out, boxes, scratch.dists);
        if (profile)
            profile->move_build_seconds += nowSeconds() - t0;
        if (rival_cost <= floor) {
            result.cost = floor;
            if (profile)
                ++profile->pruned_variants;
            return result;
        }
    }
    buildMoveInHalf(state, staged, t, matching, next_matching, cur_sites,
                    profile, scratch, result);
    return result;
}

} // namespace

PlacementPlan
runDynamicPlacement(const Architecture &arch, const StagedCircuit &staged,
                    const std::vector<TrapRef> &initial,
                    const ZacOptions &opts, PlacementProfile *profile,
                    PlacementScratch *scratch)
{
    if (static_cast<int>(initial.size()) != staged.numQubits)
        fatal("runDynamicPlacement: initial placement size mismatch");
    const int num_stages = staged.numRydbergStages();

    PlacementPlan plan;
    plan.initial = initial;
    plan.gate_sites.resize(static_cast<std::size_t>(num_stages));
    plan.transitions.resize(static_cast<std::size_t>(num_stages));
    if (num_stages == 0)
        return plan;

    std::optional<PlacementScratch> local;
    PlacementScratch &s = scratch ? *scratch : local.emplace();
    s.stays.assign(static_cast<std::size_t>(staged.numQubits), 0);
    PlacementState state(arch, staged.numQubits);
    for (int q = 0; q < staged.numQubits; ++q)
        state.place(q, initial[static_cast<std::size_t>(q)]);

    const ReuseMatching no_match = emptyReuseMatching(0, 0);

    // Reuse matchings are combinatorial, so the boundary t -> t+1 can
    // use the (t+1) -> (t+2) matching for its lookahead. They depend
    // only on the staged circuit: compute each once up front instead of
    // twice per boundary (as the reuse variant and the next boundary's
    // lookahead both ask for the same matching), and hand out const
    // references instead of vector copies. Without reuse the cache
    // holds the right-sized all-unmatched placeholders.
    std::vector<ReuseMatching> matchings;
    {
        const double t0 = profile ? nowSeconds() : 0.0;
        matchings.reserve(static_cast<std::size_t>(
            std::max(0, num_stages - 1)));
        for (int t = 0; t + 1 < num_stages; ++t) {
            if (opts.use_reuse)
                matchings.push_back(computeReuseMatching(
                    staged.rydberg[static_cast<std::size_t>(t)],
                    staged.rydberg[static_cast<std::size_t>(t) + 1]));
            else
                matchings.push_back(emptyReuseMatching(
                    staged.rydberg[static_cast<std::size_t>(t)]
                        .gates.size(),
                    staged.rydberg[static_cast<std::size_t>(t) + 1]
                        .gates.size()));
        }
        if (profile)
            profile->reuse_matching_seconds += nowSeconds() - t0;
    }
    auto matching_at = [&](int t) -> const ReuseMatching & {
        if (t < 0 || t + 1 >= num_stages)
            return no_match;
        return matchings[static_cast<std::size_t>(t)];
    };

    std::vector<int> next_partner(
        static_cast<std::size_t>(staged.numQubits), -1);
    const FloorBoxes boxes = floorBoxes(arch);

    // ---- stage 0: no reuse possible (nothing is in the zone yet).
    {
        BoundaryResult r =
            buildBoundary(state, staged, -1, no_match, matching_at(0),
                          {}, next_partner, opts, boxes, kNoRival, profile,
                          s);
        plan.gate_sites[0] = std::move(r.gate_sites);
        plan.transitions[0].move_in = std::move(r.move_in);
    }

    // Rollbacks count as move building.
    auto rollback = [&](auto &&undo) {
        const double t0 = profile ? nowSeconds() : 0.0;
        const std::size_t written = undo();
        if (profile) {
            profile->move_build_seconds += nowSeconds() - t0;
            profile->rollback_qubits += static_cast<std::int64_t>(written);
        }
    };

    auto commit = [&](int t, BoundaryResult &winner) {
        plan.reused_qubits += winner.reused;
        plan.direct_moves += winner.direct;
        plan.gate_sites[static_cast<std::size_t>(t) + 1] =
            std::move(winner.gate_sites);
        plan.transitions[static_cast<std::size_t>(t) + 1].move_out =
            std::move(winner.move_out);
        plan.transitions[static_cast<std::size_t>(t) + 1].move_in =
            std::move(winner.move_in);
    };

    // ---- boundaries t -> t+1.
    for (int t = 0; t + 1 < num_stages; ++t) {
        const ReuseMatching &with_reuse = matching_at(t);
        const ReuseMatching &lookahead = matching_at(t + 1);
        const RydbergStage &cur_stage =
            staged.rydberg[static_cast<std::size_t>(t)];
        const RydbergStage &next_stage =
            staged.rydberg[static_cast<std::size_t>(t) + 1];
        buildPartnerTable(cur_stage, next_stage, next_partner);

        // Both variants run journaled. The reuse variant is undone at
        // once, its end traps kept; if it wins, the plain variant is
        // undone and those traps replayed. Either way the cost is the
        // qubits the variants moved. When the plain variant's floor
        // before any move already loses, the reuse variant is kept as
        // it is and the plain variant never runs. That floor models
        // the plain variant without direct reuse.
        std::optional<BoundaryResult> reuse_variant;
        if (opts.use_reuse && !with_reuse.empty()) {
            double floor = -std::numeric_limits<double>::infinity();
            if (!opts.use_direct_reuse) {
                const double t0 = profile ? nowSeconds() : 0.0;
                floor = transitionCostFloor(state, &cur_stage, next_stage,
                                            {}, boxes, s.dists);
                if (profile)
                    profile->move_build_seconds += nowSeconds() - t0;
            }
            state.journalBegin();
            reuse_variant = buildBoundary(
                state, staged, t, with_reuse, lookahead,
                plan.gate_sites[static_cast<std::size_t>(t)],
                next_partner, opts, boxes, kNoRival, profile, s);
            if (reuse_variant->cost <= floor) {
                state.journalCommit();
                ++plan.reuse_boundaries;
                if (profile)
                    ++profile->settled_boundaries;
                commit(t, *reuse_variant);
                continue;
            }
            rollback([&] { return state.journalUndo(&s.reuse_ends); });
            state.journalBegin();
        }
        // The no-reuse variant: the unsized all-unmatched placeholder
        // behaves identically to a per-boundary sized one (no pins, no
        // stays) without the two vector allocations. It stops after
        // its move-outs when its floor shows that the reuse variant
        // wins; its floor is then its cost, so the reuse variant wins
        // below as it would have.
        BoundaryResult plain = buildBoundary(
            state, staged, t, no_match, lookahead,
            plan.gate_sites[static_cast<std::size_t>(t)], next_partner,
            opts, boxes, reuse_variant ? reuse_variant->cost : kNoRival,
            profile, s);

        BoundaryResult *winner = &plain;
        if (reuse_variant.has_value() &&
            reuse_variant->cost <= plain.cost) {
            winner = &*reuse_variant;
            ++plan.reuse_boundaries;
            rollback([&] {
                return state.journalUndoAndReplay(s.reuse_ends);
            });
        } else if (state.journaling()) {
            state.journalCommit();
        }
        commit(t, *winner);
    }

    const double t0 = profile ? nowSeconds() : 0.0;
    checkPlacementPlan(arch, staged, plan);
    if (profile)
        profile->check_seconds += nowSeconds() - t0;
    return plan;
}

void
checkPlacementPlan(const Architecture &arch, const StagedCircuit &staged,
                   const PlacementPlan &plan)
{
    const int num_stages = staged.numRydbergStages();
    if (static_cast<int>(plan.gate_sites.size()) != num_stages ||
        static_cast<int>(plan.transitions.size()) != num_stages)
        panic("placement plan: stage count mismatch");

    // Replay the plan on flat TrapId/site bitmaps, checking occupancy
    // and gate co-location.
    std::vector<TrapId> pos(plan.initial.size(), kInvalidTrapId);
    std::vector<char> occupied(static_cast<std::size_t>(arch.numTraps()),
                               0);
    for (std::size_t q = 0; q < plan.initial.size(); ++q) {
        if (!plan.initial[q].valid())
            panic("placement plan: unplaced qubit");
        const TrapId id = arch.trapId(plan.initial[q]);
        if (occupied[static_cast<std::size_t>(id)])
            panic("placement plan: duplicate initial trap");
        occupied[static_cast<std::size_t>(id)] = 1;
        pos[q] = id;
    }

    auto apply = [&](const std::vector<Movement> &moves) {
        for (const Movement &m : moves) {
            const TrapId from = arch.trapId(m.from);
            if (pos[static_cast<std::size_t>(m.qubit)] != from)
                panic("placement plan: movement source mismatch");
            occupied[static_cast<std::size_t>(from)] = 0;
        }
        for (const Movement &m : moves) {
            const TrapId to = arch.trapId(m.to);
            if (occupied[static_cast<std::size_t>(to)])
                panic("placement plan: movement collision at target");
            occupied[static_cast<std::size_t>(to)] = 1;
            pos[static_cast<std::size_t>(m.qubit)] = to;
        }
    };

    // Per-site "used this stage" stamps (a flat array reused across
    // stages instead of a per-stage std::set<int>).
    std::vector<int> site_stamp(static_cast<std::size_t>(arch.numSites()),
                                -1);
    for (int t = 0; t < num_stages; ++t) {
        apply(plan.transitions[static_cast<std::size_t>(t)].move_out);
        apply(plan.transitions[static_cast<std::size_t>(t)].move_in);
        const RydbergStage &stage =
            staged.rydberg[static_cast<std::size_t>(t)];
        const auto &sites =
            plan.gate_sites[static_cast<std::size_t>(t)];
        if (sites.size() != stage.gates.size())
            panic("placement plan: gate/site count mismatch");
        for (std::size_t i = 0; i < stage.gates.size(); ++i) {
            if (site_stamp[static_cast<std::size_t>(sites[i])] == t)
                panic("placement plan: two gates share a site");
            site_stamp[static_cast<std::size_t>(sites[i])] = t;
            const RydbergSite &site = arch.site(sites[i]);
            const TrapId left = arch.trapId(site.left);
            const TrapId right = arch.trapId(site.right);
            const TrapId t0 = pos[static_cast<std::size_t>(
                stage.gates[i].q0)];
            const TrapId t1 = pos[static_cast<std::size_t>(
                stage.gates[i].q1)];
            const bool ok = (t0 == left && t1 == right) ||
                            (t0 == right && t1 == left);
            if (!ok)
                panic("placement plan: gate qubits not at their site "
                      "for stage " + std::to_string(t));
        }
    }
}

} // namespace zac
