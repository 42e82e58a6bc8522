/**
 * @file
 * Unit tests for ZAC's placement components: placement state, cost
 * functions (Eq. 1-3), SA initial placement, reuse matching, gate
 * placement, qubit placement, and job splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/presets.hpp"
#include "arch/scaling.hpp"
#include "common/logging.hpp"
#include "circuit/generators.hpp"
#include "common/rng.hpp"
#include "core/cost.hpp"
#include "core/gate_placer.hpp"
#include "core/jobs.hpp"
#include "core/movement.hpp"
#include "core/placement_state.hpp"
#include "core/qubit_placer.hpp"
#include "core/reuse.hpp"
#include "core/sa_placer.hpp"
#include "matching/jonker_volgenant.hpp"
#include "transpile/optimize.hpp"
#include "zair/machine.hpp"

#include "golden.hpp"
#include "test_archs.hpp"

namespace zac
{
namespace
{

// ------------------------------------------------------ placement state

TEST(PlacementState, PlaceSwapAndOccupancy)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 3);
    st.place(0, {0, 99, 0});
    st.place(1, {0, 99, 1});
    st.place(2, {0, 98, 0});
    EXPECT_EQ(st.occupant({0, 99, 1}), 1);
    EXPECT_TRUE(st.isEmpty({0, 97, 5}));
    EXPECT_THROW(st.place(1, {0, 98, 0}), PanicError); // occupied
    // Out-of-range refs read as empty rather than throwing.
    EXPECT_EQ(st.occupant({0, 100, 0}), -1);
    EXPECT_EQ(st.occupant(TrapRef{}), -1);
    EXPECT_EQ(st.occupant(arch.trapId({0, 98, 0})), 2);
}

TEST(PlacementState, HomeTracksLastStorageTrap)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 1);
    st.place(0, {0, 99, 0});
    EXPECT_EQ(st.homeOf(0), (TrapRef{0, 99, 0}));
    // Moving to a site keeps the storage home.
    st.place(0, arch.site(0).left);
    EXPECT_EQ(st.homeOf(0), (TrapRef{0, 99, 0}));
    st.place(0, {0, 95, 7});
    EXPECT_EQ(st.homeOf(0), (TrapRef{0, 95, 7}));
}

TEST(PlacementState, JournalUndoRestoresTrapAndHome)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 2);
    st.place(0, {0, 99, 0});
    st.place(1, {0, 99, 1});
    st.journalBegin();
    st.place(0, {0, 90, 5});
    EXPECT_EQ(st.homeOf(0), (TrapRef{0, 90, 5}));
    st.journalUndo();
    EXPECT_EQ(st.trapOf(0), (TrapRef{0, 99, 0}));
    EXPECT_EQ(st.homeOf(0), (TrapRef{0, 99, 0}));
    EXPECT_EQ(st.occupant({0, 90, 5}), -1);
}

// ---------------------------------------------------------- cost (Eq 1)

TEST(Cost, PaperWorkedExample)
{
    // Fig. 5: omega_0,0 at (0,19); q0 at (13,9), q1 at (1,9). Same SLM
    // row, so the cost is max(sqrt(16.40), sqrt(10.05)) = 4.05.
    const double c = gateCost({0.0, 19.0}, {13.0, 9.0}, {1.0, 9.0});
    EXPECT_NEAR(c, 4.05, 0.005);
}

TEST(Cost, DifferentRowsSumSameRowMax)
{
    const Point site{0.0, 0.0};
    const double same =
        gateCost(site, {3.0, 4.0}, {6.0, 4.0}); // same row
    EXPECT_NEAR(same, std::sqrt(std::hypot(6.0, 4.0)), 1e-12);
    const double diff =
        gateCost(site, {3.0, 4.0}, {6.0, 5.0}); // different rows
    EXPECT_NEAR(diff,
                std::sqrt(5.0) + std::sqrt(std::hypot(6.0, 5.0)),
                1e-12);
    EXPECT_GT(diff, same);
}

TEST(Cost, NearestSiteForGateUsesMiddleSite)
{
    const Architecture arch = presets::referenceZoned();
    // Qubits directly under site columns 2 and 8 -> middle column 5.
    const Point under_c2{35.0 + 2 * 12.0, 297.0};
    const Point under_c8{35.0 + 8 * 12.0, 297.0};
    EXPECT_EQ(nearestSiteForGate(arch, under_c2, under_c8),
              arch.siteIndex(0, 0, 5));
}

TEST(Cost, TransitionCostAddsTransfersAndMoves)
{
    const double t = transitionCost({0.0, 10.0}, 15.0);
    EXPECT_NEAR(t, 2 * 15.0 + (2 * 15.0 + moveDurationUs(10.0)),
                1e-9);
    EXPECT_DOUBLE_EQ(transitionCost({}, 15.0), 0.0);
}

// --------------------------------------------------- initial placement

TEST(SaPlacer, TrivialPlacementFillsNearestRow)
{
    const Architecture arch = presets::referenceZoned();
    const auto traps = trivialInitialPlacement(arch, 5);
    for (int q = 0; q < 5; ++q) {
        EXPECT_EQ(traps[static_cast<std::size_t>(q)],
                  (TrapRef{0, 99, q}));
    }
    EXPECT_THROW(trivialInitialPlacement(arch, 10001), FatalError);
}

TEST(SaPlacer, ProximityOrderIsMonotone)
{
    const Architecture arch = presets::referenceZoned();
    const auto order = storageTrapsByProximity(arch);
    ASSERT_EQ(order.size(), 10000u);
    // Distances to the nearest site row never decrease.
    double prev = -1.0;
    for (std::size_t i = 0; i < order.size(); i += 517) {
        const double d = 307.0 - arch.trapPosition(order[i]).y;
        EXPECT_GE(d + 1e-9, prev);
        prev = d;
    }
}

class SaImprovesProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SaImprovesProperty, CostNeverWorseThanTrivial)
{
    const Architecture arch = presets::referenceZoned();
    const Circuit pre =
        preprocess(bench_circuits::paperBenchmark(GetParam()));
    const StagedCircuit staged = scheduleStages(pre, arch.numSites());
    const auto trivial =
        trivialInitialPlacement(arch, staged.numQubits);
    SaOptions opts;
    opts.max_iterations = 300;
    opts.seed = 5;
    const auto sa = saInitialPlacement(arch, staged, opts);
    EXPECT_LE(initialPlacementCost(arch, staged, sa),
              initialPlacementCost(arch, staged, trivial) + 1e-9);
    // Distinct traps.
    std::set<TrapRef> seen(sa.begin(), sa.end());
    EXPECT_EQ(seen.size(), sa.size());
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, SaImprovesProperty,
                         ::testing::Values("bv_n14", "ghz_n23",
                                           "ising_n42", "qft_n18",
                                           "knn_n31"));

TEST(SaPlacer, DeterministicPerSeed)
{
    const Architecture arch = presets::referenceZoned();
    const Circuit pre =
        preprocess(bench_circuits::paperBenchmark("wstate_n27"));
    const StagedCircuit staged = scheduleStages(pre, arch.numSites());
    SaOptions opts;
    opts.max_iterations = 200;
    opts.seed = 11;
    const auto a = saInitialPlacement(arch, staged, opts);
    const auto b = saInitialPlacement(arch, staged, opts);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- reuse

TEST(Reuse, PaperFig6Example)
{
    // l2: g0(0,1), g1(3,4); l4: g2(1,2), g3(3,5), g4(0,4).
    RydbergStage cur;
    cur.gates = {{0, 0, 1}, {1, 3, 4}};
    RydbergStage next;
    next.gates = {{2, 1, 2}, {3, 3, 5}, {4, 0, 4}};
    const ReuseMatching m = computeReuseMatching(cur, next);
    EXPECT_EQ(m.size, 2);
    // Every matched pair shares a qubit.
    for (std::size_t i = 0; i < cur.gates.size(); ++i) {
        const int j = m.next_of_cur[i];
        ASSERT_GE(j, 0);
        const StagedGate &g = cur.gates[i];
        const StagedGate &h = next.gates[static_cast<std::size_t>(j)];
        EXPECT_TRUE(h.touches(g.q0) || h.touches(g.q1));
    }
    const auto stay = reusedQubits(cur, next, m);
    EXPECT_EQ(stay.size(), 2u);
}

TEST(Reuse, SamePairGateKeepsBothQubits)
{
    RydbergStage cur;
    cur.gates = {{0, 0, 1}};
    RydbergStage next;
    next.gates = {{1, 1, 0}};
    const ReuseMatching m = computeReuseMatching(cur, next);
    EXPECT_EQ(m.size, 1);
    EXPECT_EQ(reusedQubits(cur, next, m).size(), 2u);
}

TEST(Reuse, EmptyMatchingHasNoStays)
{
    RydbergStage cur;
    cur.gates = {{0, 0, 1}};
    RydbergStage next;
    next.gates = {{1, 2, 3}};
    const ReuseMatching m = computeReuseMatching(cur, next);
    EXPECT_EQ(m.size, 0);
    EXPECT_TRUE(reusedQubits(cur, next, m).empty());
}

// --------------------------------------------------------- gate placer

TEST(GatePlacer, AssignsDistinctSitesAndRespectsPins)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 6);
    for (int q = 0; q < 6; ++q)
        st.place(q, {0, 99, q});
    std::vector<StagedGate> gates = {{0, 0, 1}, {1, 2, 3}, {2, 4, 5}};
    GatePlacementRequest req;
    req.gates = &gates;
    req.pinned_site = {-1, 42, -1};
    req.lookahead.assign(3, std::nullopt);
    const std::vector<int> sites = placeGates(st, req);
    EXPECT_EQ(sites[1], 42);
    std::set<int> uniq(sites.begin(), sites.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (int s : sites) {
        EXPECT_GE(s, 0);
        EXPECT_LT(s, arch.numSites());
    }
}

TEST(GatePlacer, PrefersNearbyColumns)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 2);
    // Qubits near x of site column 10.
    st.place(0, {0, 99, 58}); // x = 174
    st.place(1, {0, 99, 60}); // x = 180
    std::vector<StagedGate> gates = {{0, 0, 1}};
    GatePlacementRequest req;
    req.gates = &gates;
    req.pinned_site = {-1};
    req.lookahead = {std::nullopt};
    const int site = placeGates(st, req)[0];
    // Site row 0 (closest to storage), column near 174/12 - 35/12 ~ 11.
    EXPECT_EQ(arch.site(site).r, 0);
    EXPECT_NEAR(arch.site(site).c, 11, 1);
}

TEST(GatePlacer, LookaheadShiftsChoiceTowardPartner)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 3);
    st.place(0, {0, 99, 50});
    st.place(1, {0, 99, 52});
    st.place(2, {0, 99, 0}); // far-left incoming partner
    std::vector<StagedGate> gates = {{0, 0, 1}};
    GatePlacementRequest plain;
    plain.gates = &gates;
    plain.pinned_site = {-1};
    plain.lookahead = {std::nullopt};
    const int without = placeGates(st, plain)[0];
    GatePlacementRequest pull = plain;
    pull.lookahead = {st.posOf(2)};
    const int with = placeGates(st, pull)[0];
    EXPECT_LE(arch.site(with).c, arch.site(without).c);
}

TEST(GatePlacer, FailsWhenMoreGatesThanSites)
{
    const Architecture arch = presets::multiZoneArch1(); // 60 sites
    PlacementState st(arch, 10);
    for (int q = 0; q < 10; ++q)
        st.place(q, {0, 2, q});
    std::vector<StagedGate> gates;
    std::vector<int> pins;
    for (int i = 0; i < 5; ++i) {
        gates.push_back({i, 2 * i, 2 * i + 1});
        pins.push_back(i); // all pinned...
    }
    GatePlacementRequest req;
    req.gates = &gates;
    req.pinned_site = pins;
    req.pinned_site[0] = req.pinned_site[1]; // duplicate pin
    req.lookahead.assign(5, std::nullopt);
    EXPECT_THROW(placeGates(st, req), PanicError);
}

// -------------------------------------------------------- qubit placer

TEST(QubitPlacer, ReturnsDistinctEmptyStorageTraps)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 4);
    st.place(0, {0, 99, 0});
    st.place(1, {0, 99, 1});
    // Move 0 and 1 into the zone.
    st.place(0, arch.site(5).left);
    st.place(1, arch.site(5).right);
    st.place(2, {0, 99, 2});
    st.place(3, {0, 99, 3});
    QubitPlacementRequest req;
    req.leaving = {0, 1};
    req.related = {std::nullopt, std::nullopt};
    const auto traps = placeQubitsInStorage(st, req);
    ASSERT_EQ(traps.size(), 2u);
    EXPECT_NE(traps[0], traps[1]);
    for (const TrapRef &t : traps) {
        EXPECT_TRUE(arch.isStorageTrap(t));
        EXPECT_TRUE(st.isEmpty(t));
    }
}

TEST(QubitPlacer, RelatedQubitPullsPlacement)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 2);
    st.place(0, {0, 99, 50});
    st.place(0, arch.site(10).left); // home stays at col 50
    st.place(1, {0, 99, 0});         // partner far left
    QubitPlacementRequest plain;
    plain.leaving = {0};
    plain.related = {std::nullopt};
    const TrapRef without = placeQubitsInStorage(st, plain)[0];
    QubitPlacementRequest pulled = plain;
    pulled.related = {st.posOf(1)};
    const TrapRef with = placeQubitsInStorage(st, pulled)[0];
    EXPECT_LE(arch.trapPosition(with).x,
              arch.trapPosition(without).x + 1e-9);
}

TEST(QubitPlacer, HomeReturnIsStatic)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 2);
    st.place(0, {0, 99, 4});
    st.place(0, arch.site(3).left);
    st.place(1, {0, 99, 5});
    const auto homes = returnQubitsHome(st, {0});
    EXPECT_EQ(homes[0], (TrapRef{0, 99, 4}));
}

TEST(QubitPlacer, ExpandsWhenNeighborhoodIsFull)
{
    // Small storage (arch1: 3x40): crowd the nearest traps and check
    // the matcher still finds distinct homes for many leavers.
    const Architecture arch = presets::multiZoneArch1();
    const int n = 30;
    PlacementState st(arch, n);
    const auto init = trivialInitialPlacement(arch, n);
    for (int q = 0; q < n; ++q)
        st.place(q, init[static_cast<std::size_t>(q)]);
    // Move 20 qubits into the zone, then bring them all back.
    QubitPlacementRequest req;
    for (int q = 0; q < 20; ++q) {
        st.place(q, q % 2 == 0 ? arch.site(q / 2).left
                               : arch.site(q / 2).right);
        req.leaving.push_back(q);
        req.related.emplace_back(std::nullopt);
    }
    const auto traps = placeQubitsInStorage(st, req);
    std::set<TrapRef> uniq(traps.begin(), traps.end());
    EXPECT_EQ(uniq.size(), traps.size());
}

TEST(QubitPlacer, NearestEmptyTrapsMatchFullScan)
{
    // The counted query must select the same set as a full
    // rank-every-empty-trap scan by (distance, trap), under random
    // occupancy: from storage traps and from Rydberg sites (where
    // leaving qubits sit), at counts whose cut falls inside a tie shell
    // and above the number of empty traps (every empty trap), also on
    // two storage SLMs of different pitch. The set comes back in
    // TrapRef order.
    for (const Architecture &arch :
         {presets::referenceZoned(), presets::multiZoneArch1(),
          presets::multiZoneArch2(), test_archs::twoPitchStorage()}) {
        Rng rng(99);
        const auto &storage = arch.allStorageTraps();
        const int n = std::min<int>(
            60, static_cast<int>(storage.size()) / 2);
        PlacementState st(arch, n);
        for (int q = 0; q < n; ++q) {
            TrapRef t;
            do {
                t = storage[rng.nextBelow(storage.size())];
            } while (!st.isEmpty(t));
            st.place(q, t);
        }
        const std::size_t empties =
            storage.size() - static_cast<std::size_t>(n);
        int tie_cuts = 0;
        for (int i = 0; i < 40; ++i) {
            Point p;
            if (i % 2 == 0) {
                p = arch.trapPosition(storage[rng.nextBelow(storage.size())]);
            } else {
                const auto sites =
                    static_cast<std::uint64_t>(arch.numSites());
                const RydbergSite &site =
                    arch.site(static_cast<int>(rng.nextBelow(sites)));
                p = i % 4 == 1 ? site.pos_left : site.pos_right;
            }
            using Ranked = std::pair<double, TrapRef>;
            std::vector<Ranked> ranked;
            for (const TrapRef &t : storage)
                if (st.isEmpty(t))
                    ranked.emplace_back(distance(arch.trapPosition(t), p), t);
            std::sort(ranked.begin(), ranked.end());
            ASSERT_EQ(ranked.size(), empties);

            std::vector<std::size_t> counts = {1, 5, 17, 64, empties - 1,
                                               empties, empties + 7};
            // Counts that split a shell of equally distant traps.
            std::vector<std::size_t> ties;
            for (std::size_t c = 1; c < ranked.size(); ++c)
                if (ranked[c - 1].first == ranked[c].first)
                    ties.push_back(c);
            if (!ties.empty()) {
                counts.push_back(ties.front());
                counts.push_back(ties[ties.size() / 2]);
                counts.push_back(ties.back());
                ++tie_cuts;
            }
            for (const std::size_t count : counts) {
                std::vector<TrapRef> expected;
                for (std::size_t j = 0; j < std::min(count, ranked.size()); ++j)
                    expected.push_back(ranked[j].second);
                std::sort(expected.begin(), expected.end());
                EXPECT_EQ(nearestEmptyStorageTraps(st, p, count), expected)
                    << arch.name() << " count=" << count << " at ("
                    << p.x << ", " << p.y << ")";
            }
        }
        EXPECT_GT(tie_cuts, 0) << arch.name();
    }
}

/**
 * A leaving stage whose local candidates are all taken, on nearly full
 * storage: the vacated homes are refilled from the far end, so the
 * empty traps lie far from the zone.
 */
struct CrowdedLeave
{
    PlacementState state;
    QubitPlacementRequest req;
};

CrowdedLeave
crowdedLeave(const Architecture &arch, int num_qubits, int leaving)
{
    CrowdedLeave c{PlacementState(arch, num_qubits), {}};
    const auto init = trivialInitialPlacement(arch, num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        c.state.place(q, init[static_cast<std::size_t>(q)]);
    for (int q = 0; q < leaving; ++q) {
        const RydbergSite &site = arch.site(q / 2);
        c.state.place(q, q % 2 == 0 ? site.left : site.right);
        c.state.place(num_qubits - 1 - q, init[static_cast<std::size_t>(q)]);
        c.req.leaving.push_back(q);
        // Every third qubit has a partner in the next stage.
        if (q % 3 == 0)
            c.req.related.emplace_back(c.state.posOf(num_qubits - 1 - q));
        else
            c.req.related.emplace_back(std::nullopt);
    }
    return c;
}

/**
 * placeQubitsInStorage()'s first expansion as one dense matrix, built
 * from the public queries: per qubit its local candidates at k = 2 *
 * req.k (home, the box of its anchors, the k-neighbourhood of the trap
 * nearest it) and its 2n nearest empty traps; columns are their union
 * in TrapRef order.
 */
std::vector<TrapRef>
denseExpandedPlacement(const PlacementState &st,
                       const QubitPlacementRequest &req)
{
    const Architecture &arch = st.arch();
    const std::size_t n = req.leaving.size();
    std::vector<std::set<TrapRef>> cands(n);
    std::set<TrapRef> all;
    for (std::size_t i = 0; i < n; ++i) {
        const Point cur = st.posOf(req.leaving[i]);
        const TrapRef home = st.homeOf(req.leaving[i]);
        const TrapRef near = arch.nearestStorageTrap(cur);
        std::vector<Point> anchors = {arch.trapPosition(near)};
        if (home.valid())
            anchors.push_back(arch.trapPosition(home));
        if (req.related[i].has_value())
            anchors.push_back(
                arch.trapPosition(arch.nearestStorageTrap(*req.related[i])));
        std::set<TrapRef> c;
        for (const TrapRef &t : arch.storageTrapsInBox(anchors))
            c.insert(t);
        c.insert(near);
        for (const TrapRef &t : arch.storageNeighbors(near, 2 * req.k))
            c.insert(t);
        if (home.valid())
            c.insert(home);
        for (const TrapRef &t : nearestEmptyStorageTraps(st, cur, 2 * n))
            c.insert(t);
        for (const TrapRef &t : c)
            if (st.isEmpty(t)) {
                cands[i].insert(t);
                all.insert(t);
            }
    }
    const std::vector<TrapRef> cols(all.begin(), all.end());
    CostMatrix cost(static_cast<int>(n), static_cast<int>(cols.size()));
    for (std::size_t i = 0; i < n; ++i) {
        const Point cur = st.posOf(req.leaving[i]);
        for (const TrapRef &t : cands[i]) {
            const Point tp = arch.trapPosition(t);
            double w = sqrtDistance(tp, cur);
            if (req.related[i].has_value())
                w += req.alpha * sqrtDistance(tp, *req.related[i]);
            const auto c = std::lower_bound(cols.begin(), cols.end(), t) -
                           cols.begin();
            cost.at(static_cast<int>(i), static_cast<int>(c)) = w;
        }
    }
    const Assignment a = minWeightFullMatching(cost);
    std::vector<TrapRef> out;
    if (!a.feasible)
        return out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(cols[static_cast<std::size_t>(a.row_to_col[i])]);
    return out;
}

TEST(QubitPlacer, ExpandedWindowsMatchDenseSolve)
{
    // Nearly full storage, where the nearest set of every qubit is
    // every empty trap (multiZoneArch1/2: 120 traps), and two storage
    // SLMs of different pitch. The windows grown on demand must give
    // the dense matrix's plan while costing fewer cells than the
    // nearest sets alone hold.
    struct Case
    {
        Architecture arch;
        int num_qubits;
        int leaving;
    };
    for (const Case &tc :
         {Case{presets::multiZoneArch1(), 110, 20},
          Case{presets::multiZoneArch2(), 104, 24},
          Case{test_archs::twoPitchStorage(), 200, 30}}) {
        CrowdedLeave c = crowdedLeave(tc.arch, tc.num_qubits, tc.leaving);
        QubitPlacerStats stats;
        const auto traps = placeQubitsInStorage(c.state, c.req, &stats);
        EXPECT_EQ(traps, denseExpandedPlacement(c.state, c.req))
            << tc.arch.name();
        EXPECT_EQ(stats.expanded_solves, 1) << tc.arch.name();
        EXPECT_GT(stats.window_growths, 0) << tc.arch.name();
        const auto n = static_cast<std::int64_t>(tc.leaving);
        const std::int64_t empties =
            tc.arch.numStorageTraps() - tc.num_qubits + n;
        EXPECT_LT(stats.candidate_cells, n * std::min(2 * n, empties))
            << tc.arch.name();
    }
}

TEST(QubitPlacer, ThrowingCallLeavesNoStaleColumns)
{
    // A call that throws after numbering its columns must not change
    // the next plan on its scratch. An alpha of 1e308 passes the
    // option check, but it overflows the Eq. 3 lookahead term to
    // infinity, which the solver rejects once the local solve's
    // columns are numbered.
    const Architecture arch = presets::multiZoneArch1();
    const int num_qubits = 60;
    PlacementState st(arch, num_qubits);
    const auto init = trivialInitialPlacement(arch, num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        st.place(q, init[static_cast<std::size_t>(q)]);
    QubitPlacementRequest req;
    for (int q = 0; q < 10; ++q) {
        const RydbergSite &site = arch.site(q / 2);
        st.place(q, q % 2 == 0 ? site.left : site.right);
        req.leaving.push_back(q);
        req.related.emplace_back(st.posOf(num_qubits - 1 - q));
    }
    QubitPlacerStats stats;
    const std::vector<TrapRef> fresh = placeQubitsInStorage(st, req, &stats);
    EXPECT_EQ(stats.expanded_solves, 0);
    PlacementScratch scratch;
    QubitPlacementRequest overflow = req;
    overflow.alpha = 1e308;
    EXPECT_THROW(placeQubitsInStorage(st, overflow, nullptr, &scratch),
                 FatalError);
    ASSERT_FALSE(scratch.storage.cols.empty());
    EXPECT_EQ(placeQubitsInStorage(st, req, nullptr, &scratch), fresh);
}

TEST(QubitPlacer, FullStorageIsFatal)
{
    // Every storage trap is taken and n qubits leave the zone: with
    // fewer empty traps than leaving qubits, even the expanded solve
    // has no full matching.
    const Architecture arch = presets::multiZoneArch1();
    const std::vector<TrapRef> &storage = arch.allStorageTraps();
    const int traps = static_cast<int>(storage.size());
    const int n = 6;
    PlacementState st(arch, traps + n);
    for (int q = 0; q < traps; ++q)
        st.place(q, storage[static_cast<std::size_t>(q)]);
    QubitPlacementRequest req;
    for (int i = 0; i < n; ++i) {
        const RydbergSite &site = arch.site(i / 2);
        st.place(traps + i, i % 2 == 0 ? site.left : site.right);
        req.leaving.push_back(traps + i);
        req.related.emplace_back(std::nullopt);
    }
    QubitPlacerStats stats;
    EXPECT_THROW(placeQubitsInStorage(st, req, &stats), FatalError);
    EXPECT_EQ(stats.solves, 0);
}

// -------------------------------- pre-index semantics, golden digests

/**
 * storageTrapsByProximity() keys each storage row once; its order
 * equals a per-trap scan of every site row, sorted by the same rule,
 * on scaled architectures up to 204,304 storage traps.
 */
TEST(SaPlacer, ProximityOrderMatchesPerTrapScan)
{
    for (int n : {10, 128, 640, 2000}) {
        const Architecture arch = scaledZoned(n);
        std::set<double> site_rows;
        for (const RydbergSite &site : arch.sites())
            site_rows.insert(site.pos_left.y);
        std::vector<std::pair<TrapRef, double>> keyed;
        for (const TrapRef &t : arch.allStorageTraps()) {
            const double y = arch.trapPosition(t).y;
            double d = std::numeric_limits<double>::max();
            for (double sy : site_rows)
                d = std::min(d, std::abs(sy - y));
            keyed.emplace_back(t, d);
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const auto &a, const auto &b) {
                             if (std::abs(a.second - b.second) > 1e-9)
                                 return a.second < b.second;
                             if (a.first.r != b.first.r)
                                 return a.first.r < b.first.r;
                             return a.first.c < b.first.c;
                         });
        std::vector<TrapRef> want;
        for (const auto &k : keyed)
            want.push_back(k.first);
        EXPECT_EQ(storageTrapsByProximity(arch), want) << "n = " << n;
    }
}

TEST(SaPlacer, ProximityOrderMatchesLegacy)
{
    for (const Architecture &arch :
         {presets::referenceZoned(), presets::multiZoneArch1(),
          presets::multiZoneArch2(), presets::logicalBlockArch()}) {
        golden::expectGolden(
            "proximity/" + arch.name() + "/traps",
            golden::trapsDigest(storageTrapsByProximity(arch)));
    }
}

TEST(SaPlacer, InitialCostMatchesLegacyBitExactly)
{
    const Architecture arch = presets::referenceZoned();
    for (const char *name : {"ghz_n23", "ising_n42", "qft_n18"}) {
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark(name));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        const auto trivial =
            trivialInitialPlacement(arch, staged.numQubits);
        // The digest pins the cost's bits: the indexed evaluation path
        // must run the same arithmetic as the pre-index one.
        golden::expectGolden(
            std::string("cost/reference/") + name + "/trivial",
            golden::costDigest(
                initialPlacementCost(arch, staged, trivial)));
    }
}

/**
 * The acceptance gate of the flat-index rewrite: with a fixed seed the
 * indexed SA must return the *bit-identical* trap assignment the
 * pre-index implementation produced (its golden digest) — speed must
 * not change semantics.
 */
TEST(SaPlacer, FixedSeedOutputBitIdenticalToLegacy)
{
    {
        const Architecture arch = presets::referenceZoned();
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark("ising_n42"));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        for (std::uint64_t seed : {1ull, 7ull, 123ull}) {
            SaOptions opts;
            opts.max_iterations = 1000;
            opts.seed = seed;
            golden::expectGolden(
                "sa/reference/ising_n42/seed" + std::to_string(seed) +
                    "/traps",
                golden::trapsDigest(saInitialPlacement(arch, staged, opts)));
        }
    }
    {
        // Two entanglement zones exercise the cross-zone midpoint
        // branch of nearestSiteForGate.
        const Architecture arch = presets::multiZoneArch2();
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark("qft_n18"));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        SaOptions opts;
        opts.max_iterations = 1000;
        opts.seed = 42;
        golden::expectGolden(
            "sa/arch2/qft_n18/seed42/traps",
            golden::trapsDigest(saInitialPlacement(arch, staged, opts)));
    }
}

// ----------------------------------------------------------------- jobs

TEST(Jobs, CompatibleMovementsStayTogether)
{
    const Architecture arch = presets::referenceZoned();
    std::vector<Movement> moves = {
        {0, {0, 99, 0}, arch.site(0).left},
        {1, {0, 99, 2}, arch.site(1).left},
    };
    const auto jobs = splitIntoJobs(arch, moves);
    EXPECT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].size(), 2u);
}

TEST(Jobs, CrossingMovementsSplit)
{
    const Architecture arch = presets::referenceZoned();
    std::vector<Movement> moves = {
        {0, {0, 99, 0}, arch.site(5).left},
        {1, {0, 99, 20}, arch.site(0).left}, // crosses qubit 0
    };
    const auto jobs = splitIntoJobs(arch, moves);
    EXPECT_EQ(jobs.size(), 2u);
}

class JobsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(JobsProperty, GroupsAreAodCompatibleAndCoverAll)
{
    const Architecture arch = presets::referenceZoned();
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
    // Random storage -> site movements.
    std::set<TrapRef> used_src;
    std::set<int> used_site;
    std::vector<Movement> moves;
    for (int q = 0; q < 24; ++q) {
        TrapRef src{0, 90 + static_cast<int>(rng.nextBelow(10)),
                    static_cast<int>(rng.nextBelow(100))};
        if (!used_src.insert(src).second)
            continue;
        int site = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(arch.numSites())));
        if (!used_site.insert(site).second)
            continue;
        moves.push_back({q, src,
                         rng.nextBool() ? arch.site(site).left
                                        : arch.site(site).right});
    }
    const auto jobs = splitIntoJobs(arch, moves);
    std::size_t covered = 0;
    for (const auto &job : jobs) {
        covered += job.size();
        std::vector<Point> b, e;
        for (const Movement &m : job) {
            b.push_back(arch.trapPosition(m.from));
            e.push_back(arch.trapPosition(m.to));
        }
        EXPECT_TRUE(movementsAodCompatible(b, e));
    }
    EXPECT_EQ(covered, moves.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobsProperty, ::testing::Range(0, 20));

} // namespace
} // namespace zac
