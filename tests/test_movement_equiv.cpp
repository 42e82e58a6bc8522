/**
 * @file
 * Bit-identity gates of the dynamic-placement pipeline:
 *
 *  - the windowed placeGates() must return the bit-identical assignment
 *    of the full-matrix reference on randomized stages over every
 *    preset architecture, including mirror-symmetric stages whose cost
 *    ties leave several optimal assignments, stages whose optimum sits
 *    exactly where the window tail's bound is attained, and far-apart
 *    gates at scale, whose windows must stay small; every window
 *    growth must raise the tail;
 *  - the journaled PlacementState undo must return the exact state
 *    before the variant, and its replay of an undone variant the exact
 *    state that variant ended in (traps, homes, occupancy), checked
 *    against copies of the state;
 *  - the plain variant's cost floor must not exceed its cost, exactly:
 *    after its move-outs on random and tied moves, and before any move
 *    against the full variant, with the real placers or random picks;
 *  - runDynamicPlacement() plans, and compile()'s ZAIR program and
 *    fidelity, must match the golden digests (golden.hpp) on the 17
 *    paper circuits under every option preset, on multi-zone
 *    architectures, and on scaled circuits whose storage placement
 *    takes the expanded sparse solve; compileStreamed() must write
 *    compile()'s bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "arch/presets.hpp"
#include "arch/scaling.hpp"
#include "circuit/generators.hpp"
#include "circuit/scaling.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/cost.hpp"
#include "core/gate_placer.hpp"
#include "core/movement.hpp"
#include "core/sa_placer.hpp"
#include "transpile/optimize.hpp"
#include "zair/serialize.hpp"

#include "golden.hpp"
#include "test_archs.hpp"

namespace zac
{
namespace
{

// ------------------------------------------- windowed vs reference JV

/**
 * Random stage generator on @p arch: min_gates..max_gates gates (as
 * many as the zone fits) over distinct qubits, qubits scattered over
 * storage traps (and occasionally parked in the zone), random reuse
 * pins and random lookahead points. Checks placeGates() against the
 * reference and returns the call's free (unpinned) gate count.
 */
int
randomizedPlaceGatesRound(const Architecture &arch, int min_gates,
                          int max_gates, Rng &rng, GatePlacerStats &stats)
{
    // Qubit parking pool: the storage traps nearest the entanglement
    // zone (the region the pipeline actually populates — deep-storage
    // scatter makes every window degenerate to the dense solve), or
    // the site traps themselves on monolithic architectures.
    std::vector<TrapRef> storage;
    if (arch.allStorageTraps().empty()) {
        for (const RydbergSite &s : arch.sites()) {
            storage.push_back(s.left);
            storage.push_back(s.right);
        }
    } else {
        storage = storageTrapsByProximity(arch);
        storage.resize(std::min(storage.size(),
                                static_cast<std::size_t>(
                                    4 * arch.numSites())));
    }
    max_gates = std::min(max_gates,
                         std::min(arch.numSites(),
                                  static_cast<int>(storage.size()) / 2) /
                             2);
    if (max_gates < min_gates)
        return 0;
    const int num_gates =
        min_gates + static_cast<int>(rng.nextBelow(
                        static_cast<std::uint64_t>(max_gates - min_gates + 1)));
    const int n = 2 * num_gates;

    // Gate pairs park near each other (like SA-placed partners do);
    // far-apart pairs would legitimately degenerate every window to
    // the dense solve and leave nothing to certify.
    PlacementState st(arch, n);
    for (int g = 0; g < num_gates; ++g) {
        const std::size_t base = rng.nextBelow(storage.size());
        for (int side = 0; side < 2; ++side) {
            const int q = 2 * g + side;
            TrapRef t;
            std::size_t idx = base;
            do {
                t = storage[idx % storage.size()];
                idx += 1 + rng.nextBelow(7);
            } while (!st.isEmpty(t));
            st.place(q, t);
        }
    }
    // Park a few qubits at sites (as after a previous stage).
    for (int q = 0; q < n; q += 5) {
        const int s = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(arch.numSites())));
        const RydbergSite &site = arch.site(s);
        const TrapRef dest = rng.nextBool() ? site.left : site.right;
        if (st.isEmpty(dest))
            st.place(q, dest);
    }

    std::vector<StagedGate> gates;
    for (int i = 0; i < num_gates; ++i)
        gates.push_back({i, 2 * i, 2 * i + 1});
    GatePlacementRequest req;
    req.gates = &gates;
    req.pinned_site.assign(gates.size(), -1);
    req.lookahead.assign(gates.size(), std::nullopt);
    std::vector<char> pinned(static_cast<std::size_t>(arch.numSites()),
                             0);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (rng.nextBool(0.2)) {
            const int s = static_cast<int>(rng.nextBelow(
                static_cast<std::uint64_t>(arch.numSites())));
            if (!pinned[static_cast<std::size_t>(s)]) {
                pinned[static_cast<std::size_t>(s)] = 1;
                req.pinned_site[i] = s;
            }
        }
        if (rng.nextBool(0.3)) {
            const TrapRef t = storage[rng.nextBelow(storage.size())];
            req.lookahead[i] = arch.trapPosition(t);
        }
    }

    const std::vector<int> reference = placeGatesReference(st, req);
    const std::vector<int> windowed = placeGates(st, req, &stats);
    EXPECT_EQ(windowed, reference)
        << arch.name() << " gates=" << num_gates;
    return static_cast<int>(
        std::count(req.pinned_site.begin(), req.pinned_site.end(), -1));
}

TEST(GatePlacerEquiv, WindowedMatchesReferenceOnAllPresets)
{
    const Architecture presets[] = {
        presets::referenceZoned(), presets::multiZoneArch1(),
        presets::multiZoneArch2(), presets::logicalBlockArch(),
        presets::monolithic()};
    for (const Architecture &arch : presets) {
        Rng rng(2026);
        GatePlacerStats stats;
        for (int round = 0; round < 60; ++round)
            randomizedPlaceGatesRound(arch, 1, arch.numSites(), rng,
                                      stats);
        // On architectures with enough sites for windows to pay, the
        // window must actually engage (not grow to every site every
        // time); on tiny grids the windows legitimately cover the zone
        // at once. Calls with every gate pinned settle before any
        // counter.
        if (arch.numSites() >= 100) {
            EXPECT_GT(stats.certified, 0) << arch.name();
        }
        EXPECT_LE(stats.certified + stats.fallbacks, stats.calls)
            << arch.name();
    }
}

/**
 * Contested stages at scale: 16 to ~200 gates clustered next to the
 * zone of scaledZoned(256), with pins and lookahead, so the windows
 * overlap and the solver grows them mid-path. Every call must equal
 * the reference. Calls with 16 or more free gates must settle on
 * windows, apart from the most crowded ones, where a window grows to
 * every free site; together they cost under half the full matrix's
 * cells.
 */
TEST(GatePlacerEquiv, ContestedStagesMatchReferenceAtScale)
{
    const Architecture arch = scaledZoned(256);
    Rng rng(1606);
    GatePlacerStats stats;
    int contested = 0;
    int contested_certified = 0;
    for (int round = 0; round < 20; ++round) {
        const GatePlacerStats before = stats;
        const int free_gates = randomizedPlaceGatesRound(
            arch, 16, arch.numSites(), rng, stats);
        if (free_gates >= 16) {
            ++contested;
            contested_certified += static_cast<int>(stats.certified -
                                                    before.certified);
        }
    }
    EXPECT_GE(contested, 15);
    EXPECT_GE(3 * contested_certified, contested);
    EXPECT_GT(stats.window_growths, contested);
    EXPECT_LT(2 * stats.window_cells, stats.full_cells);
}

/** Per site column x: the trap pairs on one row at x - d and x + d. */
using MirrorPairs =
    std::map<double, std::vector<std::pair<TrapRef, TrapRef>>>;

MirrorPairs
mirrorPairs(const Architecture &arch)
{
    std::map<std::pair<double, double>, TrapRef> traps;
    for (const TrapRef &t : arch.allStorageTraps())
        traps[{arch.trapPosition(t).x, arch.trapPosition(t).y}] = t;
    for (const RydbergSite &s : arch.sites()) {
        traps[{s.pos_left.x, s.pos_left.y}] = s.left;
        traps[{s.pos_right.x, s.pos_right.y}] = s.right;
    }
    MirrorPairs pairs;
    for (const RydbergSite &s : arch.sites())
        pairs[s.pos_left.x];
    for (auto &[x, list] : pairs)
        for (const auto &[pos, t] : traps) {
            const auto mirror = traps.find({2.0 * x - pos.first, pos.second});
            if (mirror != traps.end() && pos.first < x)
                list.push_back({t, mirror->second});
        }
    return pairs;
}

/**
 * A stage symmetric about one site column: every gate's qubits sit on
 * one row at x - d and x + d, pins are on the axis and lookahead points
 * on it too. The preset coordinates are exact in binary, so a site and
 * its mirror image cost exactly the same for every gate, and any
 * assignment with a gate off the axis has a mirror-image twin of equal
 * cost. The windowed result must still be the reference's. Counts in
 * @p tied_on_windows the calls with such a twin that settled on
 * windows, none of which covers every free site (the call costed fewer
 * cells than one full window has).
 */
void
mirrorPlaceGatesRound(const Architecture &arch, const MirrorPairs &pairs,
                      Rng &rng, GatePlacerStats &stats,
                      int &tied_on_windows)
{
    auto axis = pairs.begin();
    std::advance(axis, static_cast<long>(rng.nextBelow(pairs.size())));
    const double x = axis->first;
    std::vector<std::pair<TrapRef, TrapRef>> cand = axis->second;
    for (std::size_t i = cand.size(); i > 1; --i)
        std::swap(cand[i - 1], cand[rng.nextBelow(i)]);
    const int max_gates = std::min<int>(
        static_cast<int>(cand.size()), std::min(8, arch.numSites() / 2));
    if (max_gates < 2)
        return;
    const int num_gates =
        2 + static_cast<int>(rng.nextBelow(
                static_cast<std::uint64_t>(max_gates - 1)));

    PlacementState st(arch, 2 * num_gates);
    std::vector<StagedGate> gates;
    for (const auto &[a, b] : cand) {
        if (static_cast<int>(gates.size()) == num_gates)
            break;
        if (!st.isEmpty(a) || !st.isEmpty(b))
            continue;
        const int g = static_cast<int>(gates.size());
        st.place(2 * g, a);
        st.place(2 * g + 1, b);
        gates.push_back({g, 2 * g, 2 * g + 1});
    }

    std::map<std::pair<double, double>, int> site_at;
    std::vector<int> axis_sites;
    for (int s = 0; s < arch.numSites(); ++s) {
        const Point p = arch.sitePosition(s);
        site_at[{p.x, p.y}] = s;
        if (p.x == x)
            axis_sites.push_back(s);
    }
    GatePlacementRequest req;
    req.gates = &gates;
    req.pinned_site.assign(gates.size(), -1);
    req.lookahead.assign(gates.size(), std::nullopt);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (rng.nextBool(0.2) && !axis_sites.empty()) {
            req.pinned_site[i] = axis_sites.back();
            axis_sites.pop_back();
        } else if (rng.nextBool(0.3)) {
            const Point p = arch.sitePosition(static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(arch.numSites()))));
            req.lookahead[i] = Point{x, p.y};
        }
    }

    const GatePlacerStats before = stats;
    const std::vector<int> reference = placeGatesReference(st, req);
    const std::vector<int> windowed = placeGates(st, req, &stats);
    EXPECT_EQ(windowed, reference)
        << arch.name() << " axis x=" << x << " gates=" << gates.size();

    // The mirror image of the reference's assignment is a second
    // optimum when it exists and moves a gate.
    bool twin = false;
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Point p = arch.sitePosition(reference[i]);
        const auto m = site_at.find({2.0 * x - p.x, p.y});
        if (m == site_at.end()) {
            twin = false;
            break;
        }
        twin = twin || m->second != reference[i];
    }
    const auto num_free_sites = static_cast<std::int64_t>(
        arch.numSites() -
        std::count_if(req.pinned_site.begin(), req.pinned_site.end(),
                      [](int s) { return s >= 0; }));
    if (twin && stats.certified > before.certified &&
        stats.window_cells - before.window_cells < num_free_sites)
        ++tied_on_windows;
}

TEST(GatePlacerEquiv, MirrorSymmetricTiesMatchReference)
{
    const Architecture presets[] = {
        presets::referenceZoned(), presets::multiZoneArch1(),
        presets::multiZoneArch2(), presets::logicalBlockArch(),
        presets::monolithic()};
    int tied_on_windows = 0;
    for (const Architecture &arch : presets) {
        const MirrorPairs pairs = mirrorPairs(arch);
        Rng rng(515);
        GatePlacerStats stats;
        for (int round = 0; round < 60; ++round)
            mirrorPlaceGatesRound(arch, pairs, rng, stats,
                                  tied_on_windows);
    }
    // Second optima settle on windows, without a full window.
    EXPECT_GT(tied_on_windows, 0);
}

TEST(GatePlacerEquiv, SitesInDiskMatchesFullScan)
{
    for (const Architecture &arch :
         {presets::referenceZoned(), presets::multiZoneArch2(),
          presets::logicalBlockArch()}) {
        Rng rng(7);
        for (int i = 0; i < 50; ++i) {
            const Point c{rng.nextDouble() * 400.0 - 50.0,
                          rng.nextDouble() * 400.0 - 50.0};
            const double radius = rng.nextDouble() * 150.0;
            std::vector<int> got;
            arch.sitesInDisk(c, radius, got);
            std::vector<int> expected;
            for (int s = 0; s < arch.numSites(); ++s)
                if (distance(arch.sitePosition(s), c) <= radius + 1e-9)
                    expected.push_back(s);
            EXPECT_EQ(got, expected) << arch.name() << " r=" << radius;
        }
        // Edge cases: centers at sites, radii at exact site distances.
        // Window tails need every site within radius - kDiskEdgeTolUm.
        for (int i = 0; i < 200; ++i) {
            const auto site = [&] {
                return arch.sitePosition(static_cast<int>(rng.nextBelow(
                    static_cast<std::uint64_t>(arch.numSites()))));
            };
            const Point c =
                i % 2 == 0 ? site()
                           : Point{rng.nextDouble() * 400.0 - 50.0,
                                   rng.nextDouble() * 400.0 - 50.0};
            const double radius = distance(site(), c);
            std::vector<int> got;
            arch.sitesInDisk(c, radius, got);
            std::vector<int> expected;
            for (int s = 0; s < arch.numSites(); ++s)
                if (distance(arch.sitePosition(s), c) <= radius + 1e-9)
                    expected.push_back(s);
            EXPECT_EQ(got, expected) << arch.name() << " r=" << radius;
        }
    }
}

// ------------------------------------------ window tails and radii

/**
 * One entanglement zone of rows x cols sites at @p pitch from
 * @p origin (a site's right trap 2 um to its right) and one
 * single-trap storage SLM at each of @p traps; trap i is
 * TrapRef{2 + i, 0, 0}.
 */
Architecture
gridWithTraps(Point origin, double pitch, int rows, int cols,
              const std::vector<Point> &traps)
{
    Architecture arch("grid_with_traps");
    SlmSpec left;
    left.id = 0;
    left.sep_x = pitch;
    left.sep_y = pitch;
    left.rows = rows;
    left.cols = cols;
    left.origin = origin;
    SlmSpec right = left;
    right.id = 1;
    right.origin.x += 2.0;
    ZoneSpec zone;
    zone.id = 0;
    zone.offset = origin;
    zone.width = (cols - 1) * pitch + 2.0;
    zone.height = (rows - 1) * pitch;
    zone.slm_ids = {arch.addSlm(left), arch.addSlm(right)};
    arch.addZone(ZoneKind::Entanglement, zone);

    ZoneSpec storage;
    storage.id = 0;
    storage.offset = traps.front();
    Point top = traps.front();
    for (const Point &t : traps) {
        SlmSpec slm;
        slm.id = 2 + static_cast<int>(storage.slm_ids.size());
        slm.rows = 1;
        slm.cols = 1;
        slm.origin = t;
        storage.slm_ids.push_back(arch.addSlm(slm));
        storage.offset = {std::min(storage.offset.x, t.x),
                          std::min(storage.offset.y, t.y)};
        top = {std::max(top.x, t.x), std::max(top.y, t.y)};
    }
    storage.width = top.x - storage.offset.x;
    storage.height = top.y - storage.offset.y;
    arch.addZone(ZoneKind::Storage, storage);
    arch.addAod(AodSpec{});
    arch.finalize();
    return arch;
}

/**
 * A gate whose window tail is attained at its first radius: site `s`
 * lies on the segment between the qubits at p0 and p1 (d0 + d1 = D), at
 * distance `radius` from p0 and from the lookahead point, if any, so
 * that its cost is the bound's exact value there. `pin` is the gate's
 * cheapest near site; a second gate pins it, which makes `s` an
 * optimum. The grid's bottom-left site is at `origin`; coordinates are
 * dyadic, so every distance, root and radius below is exact.
 */
struct TailEqualityCase
{
    const char *name;
    Point origin;
    double pitch;
    int rows, cols;
    Point p0, p1;
    std::optional<Point> look;
    Point s, pin;
    double radius;
    double cost; ///< s's cost: the bound at `radius`
};

TEST(GatePlacerEquiv, SiteAtFirstRadiusWhereTheBoundIsTight)
{
    // Different rows: the bound is sqrt(R) + sqrt(D - R) (+ sqrt(R)),
    // the anchor p1's own site. One row: sqrt(max(R, D/2)) (+ sqrt(R)),
    // the anchor the middle site.
    const TailEqualityCase cases[] = {
        {"different rows", {0.0, 0.0}, 6.0, 7, 3, {6.0, -3.0625},
         {6.0, 36.0}, std::nullopt, {6.0, 0.0}, {6.0, 36.0}, 3.0625,
         7.75},
        {"different rows, lookahead", {0.0, 0.0}, 36.75, 4, 3,
         {36.75, -100.0}, {36.75, 110.25}, Point{36.75, -100.0},
         {36.75, 0.0}, {36.75, 110.25}, 100.0, 30.5},
        {"one row", {13.75, 0.0}, 17.25, 1, 11, {75.0, 0.0},
         {125.0, 0.0}, std::nullopt, {117.25, 0.0}, {100.0, 0.0}, 42.25,
         6.5},
        {"one row, lookahead", {87.875, 0.0}, 6.5625, 1, 5, {100.0, 0.0},
         {110.0, 0.0}, Point{100.0, 0.0}, {107.5625, 0.0}, {101.0, 0.0},
         7.5625, 5.5},
    };
    for (const TailEqualityCase &c : cases) {
        SCOPED_TRACE(c.name);
        const Point far{c.origin.x - 300.0, c.origin.y - 300.0};
        const Architecture arch =
            gridWithTraps(c.origin, c.pitch, c.rows, c.cols,
                          {c.p0, c.p1, far, {far.x + 3.0, far.y}});
        PlacementState st(arch, 4);
        for (int q = 0; q < 4; ++q)
            st.place(q, TrapRef{2 + q, 0, 0});
        const std::vector<StagedGate> gates = {{0, 0, 1}, {1, 2, 3}};
        const int s = arch.nearestSite(c.s);
        const int pin = arch.nearestSite(c.pin);
        ASSERT_EQ(distance(arch.sitePosition(s), c.s), 0.0);
        ASSERT_EQ(distance(arch.sitePosition(pin), c.pin), 0.0);
        GatePlacementRequest req;
        req.gates = &gates;
        req.pinned_site = {-1, pin};
        req.lookahead = {c.look, std::nullopt};
        const auto costAt = [&](Point site) {
            return gateCost(site, c.p0, c.p1) +
                   (c.look ? sqrtDistance(site, *c.look) : 0.0);
        };

        GateWindow w;
        w.aim(st.posOf(0), st.posOf(1), &req.lookahead[0]);
        ASSERT_EQ(firstGateWindowRadius(st, gates[0], w, 1), c.radius);
        EXPECT_EQ(distance(c.s, c.p0), c.radius);
        if (c.look) {
            EXPECT_EQ(distance(c.s, *c.look), c.radius);
        }
        EXPECT_EQ(costAt(c.s), c.cost);
        EXPECT_EQ(w.radiusFor(c.cost), c.radius);
        // The tail sits just below the attained bound.
        EXPECT_LT(w.tailAt(c.radius), c.cost);
        EXPECT_GT(w.tailAt(c.radius), c.cost * (1.0 - 1e-6));

        const std::vector<int> reference = placeGatesReference(st, req);
        GatePlacerStats stats;
        EXPECT_EQ(placeGates(st, req, &stats), reference);
        EXPECT_EQ(costAt(arch.sitePosition(reference[0])), c.cost);
        EXPECT_EQ(stats.certified + stats.fallbacks, 1);
    }
}

/** Grow @p w from its radius past @p extent; each growth raises the tail. */
void
expectGrowthRaisesTail(GateWindow w, double pitch, double extent)
{
    double tail = w.tailAt(w.radius);
    while (w.radius < extent) {
        const double from = w.radius;
        w.radius = w.grownRadius(pitch);
        const double next = w.tailAt(w.radius);
        ASSERT_GT(next, tail) << "radius " << from << " -> " << w.radius
                              << ", D " << w.sep << ", one row "
                              << w.same_row << ", lookahead "
                              << w.look->has_value();
        tail = next;
    }
}

/** A qubit pool: the storage traps nearest the zone, and site traps. */
std::vector<TrapRef>
nearZoneTraps(const Architecture &arch)
{
    std::vector<TrapRef> pool = storageTrapsByProximity(arch);
    pool.resize(std::min(pool.size(),
                         static_cast<std::size_t>(4 * arch.numSites())));
    for (const RydbergSite &site : arch.sites()) {
        pool.push_back(site.left);
        pool.push_back(site.right);
    }
    return pool;
}

/**
 * Calls with 1-3 free gates whose qubits sit at least 100 um apart on
 * scaledZoned(2000), with and without lookahead points, as in the late
 * stages of deep circuits. Every call equals the reference, every
 * growth from a first radius raises the tail, and the windows, growths
 * included, cost under half the cells of first windows anchored at the
 * gates' midpoint sites (nearestSiteForGate()), each only as wide as
 * the bound needs to reach that site's own cost (0.39 of them when
 * written; most of the rest are lookahead disks and one-row gates,
 * whose bound needs a radius past D / 2).
 */
TEST(GatePlacerEquiv, FarApartGatesOpenSmallWindowsAtScale)
{
    const Architecture arch = scaledZoned(2000);
    const std::vector<TrapRef> pool = nearZoneTraps(arch);
    const double pitch = arch.maxSitePitch();
    Rng rng(2512);
    GatePlacerStats stats;
    std::int64_t midpoint_cells = 0;
    for (int round = 0; round < 40; ++round) {
        const int num_gates = 1 + static_cast<int>(rng.nextBelow(3));
        PlacementState st(arch, 2 * num_gates);
        std::vector<StagedGate> gates;
        for (int g = 0; g < num_gates; ++g) {
            TrapRef a, b;
            do {
                a = pool[rng.nextBelow(pool.size())];
                b = pool[rng.nextBelow(pool.size())];
            } while (!st.isEmpty(a) || !st.isEmpty(b) ||
                     distance(arch.trapPosition(a),
                              arch.trapPosition(b)) < 100.0);
            st.place(2 * g, a);
            st.place(2 * g + 1, b);
            gates.push_back({g, 2 * g, 2 * g + 1});
        }
        GatePlacementRequest req;
        req.gates = &gates;
        req.pinned_site.assign(gates.size(), -1);
        req.lookahead.assign(gates.size(), std::nullopt);
        for (auto &look : req.lookahead)
            if (rng.nextBool())
                look = arch.trapPosition(pool[rng.nextBelow(pool.size())]);

        const std::vector<int> reference = placeGatesReference(st, req);
        EXPECT_EQ(placeGates(st, req, &stats), reference)
            << "round " << round;

        for (const StagedGate &g : gates) {
            GateWindow w;
            w.aim(st.posOf(g.q0), st.posOf(g.q1),
                  &req.lookahead[static_cast<std::size_t>(g.id)]);
            w.radius = firstGateWindowRadius(st, g, w, num_gates);
            expectGrowthRaisesTail(w, pitch, 4000.0);

            const Point mid = arch.sitePosition(nearestSiteForGate(
                arch, st.trapIdOf(g.q0), st.trapIdOf(g.q1)));
            const double mid_cost =
                gateCost(mid, w.p0, w.p1) +
                (w.look->has_value() ? sqrtDistance(mid, **w.look) : 0.0);
            const double radius = w.radiusFor(mid_cost);
            std::vector<int> disk;
            arch.sitesInDisk(w.p0, radius, disk);
            arch.sitesInDisk(w.p1, radius, disk);
            if (w.look->has_value())
                arch.sitesInDisk(**w.look, radius, disk);
            std::sort(disk.begin(), disk.end());
            midpoint_cells += std::unique(disk.begin(), disk.end()) -
                              disk.begin();
        }
    }
    EXPECT_LT(2 * stats.window_cells, midpoint_cells)
        << "window cells " << stats.window_cells << ", midpoint "
        << midpoint_cells;
}

TEST(GatePlacerEquiv, EveryGrowthRaisesTheTail)
{
    // Below D/2 the one-row bound is flat; a growth from there must
    // still raise it.
    const std::optional<Point> none;
    const std::optional<Point> look = Point{40.0, 10.0};
    for (const std::optional<Point> *l : {&none, &look})
        for (const double dy : {0.0, 7.5}) {
            GateWindow w;
            w.aim({0.0, 0.0}, {163.0, dy}, l);
            for (const double r : {0.5, 3.0, 40.0, 81.0, 200.0}) {
                w.radius = r;
                expectGrowthRaisesTail(w, 15.0, 4000.0);
            }
        }
}

// --------------------------------------------- journaled state undo

/** Every qubit's trap, trap id and home, and every trap's occupant. */
void
expectSameState(const PlacementState &got, const PlacementState &want)
{
    ASSERT_EQ(got.numQubits(), want.numQubits());
    for (int q = 0; q < got.numQubits(); ++q) {
        EXPECT_EQ(got.trapOf(q), want.trapOf(q)) << q;
        EXPECT_EQ(got.trapIdOf(q), want.trapIdOf(q)) << q;
        EXPECT_EQ(got.homeOf(q), want.homeOf(q)) << q;
    }
    for (TrapId id = 0; id < got.arch().numTraps(); ++id)
        ASSERT_EQ(got.occupant(id), want.occupant(id)) << id;
}

/** An empty storage trap of @p st, drawn at random. */
TrapRef
emptyStorageTrap(const PlacementState &st, Rng &rng)
{
    const auto &storage = st.arch().allStorageTraps();
    TrapRef t;
    do {
        t = storage[rng.nextBelow(storage.size())];
    } while (!st.isEmpty(t));
    return t;
}

/**
 * Apply one random burst of lifts and places to @p st, leaving qubit
 * @p keep untouched (-1: none); with @p settle no qubit stays lifted.
 */
void
randomBurst(PlacementState &st, int keep, bool settle, Rng &rng)
{
    const Architecture &arch = st.arch();
    const int n = st.numQubits();
    std::vector<int> lifted;
    for (int step = 0; step < 30; ++step) {
        const int q =
            static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
        if (q == keep)
            continue;
        const bool is_lifted =
            std::find(lifted.begin(), lifted.end(), q) != lifted.end();
        if (!is_lifted && rng.nextBool(0.4)) {
            st.liftQubit(q);
            lifted.push_back(q);
            continue;
        }
        TrapRef dest;
        if (rng.nextBool()) {
            dest = emptyStorageTrap(st, rng);
        } else {
            const RydbergSite &site = arch.site(static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(arch.numSites()))));
            dest = rng.nextBool() ? site.left : site.right;
            if (!st.isEmpty(dest))
                continue;
        }
        st.place(q, dest);
        lifted.erase(std::remove(lifted.begin(), lifted.end(), q),
                     lifted.end());
    }
    if (settle)
        for (int q : lifted)
            st.place(q, emptyStorageTrap(st, rng));
}

/** @p n qubits on distinct random storage traps of @p arch. */
PlacementState
randomStorageState(const Architecture &arch, int n, Rng &rng)
{
    PlacementState st(arch, n);
    for (int q = 0; q < n; ++q)
        st.place(q, emptyStorageTrap(st, rng));
    return st;
}

TEST(PlacementStateJournal, UndoRestoresTheStateBefore)
{
    const Architecture arch = presets::referenceZoned();
    Rng rng(11);
    const int n = 24;
    for (int round = 0; round < 40; ++round) {
        PlacementState st = randomStorageState(arch, n, rng);
        // Mutations outside the journal: some qubits sit in the zone.
        for (int q = 0; q < n; q += 3) {
            const RydbergSite &site = arch.site(
                static_cast<int>(rng.nextBelow(
                    static_cast<std::uint64_t>(arch.numSites()))));
            const TrapRef dest = rng.nextBool() ? site.left : site.right;
            if (st.isEmpty(dest))
                st.place(q, dest);
        }
        const PlacementState before = st;
        st.journalBegin();
        // Lifts, places and re-places; some qubits end lifted.
        randomBurst(st, -1, rng.nextBool(), rng);
        st.journalUndo();
        EXPECT_FALSE(st.journaling());
        expectSameState(st, before);
    }
}

TEST(PlacementStateJournal, ReplayRestoresTheKeptEndState)
{
    // runDynamicPlacement()'s boundary on random variants: variant A
    // journaled, undone with its end state captured; variant B
    // journaled, then either committed or undone with A replayed. Each
    // end is checked against a copy of the state it must equal.
    const Architecture arch = presets::referenceZoned();
    Rng rng(23);
    const int n = 24;
    int replays = 0;
    for (int round = 0; round < 60; ++round) {
        PlacementState st = randomStorageState(arch, n, rng);
        // Qubit 0 sits in the zone. A moves it out and back in (its
        // home becomes A's storage trap), B sends it to storage.
        const TrapRef zone_trap = arch.site(round % arch.numSites()).left;
        const TrapRef a_zone_trap =
            arch.site((round + 1) % arch.numSites()).right;
        st.place(0, zone_trap);
        const TrapRef home_before = st.homeOf(0);
        const PlacementState before = st;

        st.journalBegin();
        const TrapRef a_home = emptyStorageTrap(st, rng);
        st.place(0, a_home);
        st.place(0, a_zone_trap);
        randomBurst(st, 0, true, rng);
        const PlacementState after_a = st;
        std::vector<QubitTrap> ends;
        st.journalUndo(&ends);
        expectSameState(st, before);
        EXPECT_EQ(st.homeOf(0), home_before);
        for (const QubitTrap &e : ends) {
            EXPECT_EQ(e.trap, after_a.trapIdOf(e.q));
            EXPECT_EQ(e.home, after_a.homeOf(e.q));
        }

        st.journalBegin();
        const TrapRef b_home = emptyStorageTrap(st, rng);
        st.place(0, b_home);
        randomBurst(st, 0, true, rng);
        if (rng.nextBool()) {
            st.journalUndoAndReplay(ends);
            ++replays;
            expectSameState(st, after_a);
            // Back in the zone, qubit 0's home is the storage trap it
            // sat in under A, not B's.
            EXPECT_EQ(st.trapOf(0), a_zone_trap);
            EXPECT_EQ(st.homeOf(0), a_home);
        } else {
            const PlacementState after_b = st;
            st.journalCommit();
            expectSameState(st, after_b);
            EXPECT_EQ(st.homeOf(0), b_home);
        }
        EXPECT_FALSE(st.journaling());
    }
    EXPECT_GT(replays, 15);
}

TEST(PlacementStateJournal, CommitKeepsMutations)
{
    const Architecture arch = presets::referenceZoned();
    PlacementState st(arch, 2);
    st.place(0, {0, 99, 0});
    st.place(1, {0, 99, 1});
    st.journalBegin();
    st.place(0, {0, 90, 5});
    st.journalCommit();
    EXPECT_EQ(st.trapOf(0), (TrapRef{0, 90, 5}));
    EXPECT_EQ(st.occupant({0, 99, 0}), -1);
    EXPECT_THROW(st.journalUndo(), PanicError);
}

// ------------------------------------------ the plain variant's floor

/** transitionCost() of @p out, then @p in, as runDynamicPlacement()
 *  sums them. */
double
movesCost(const Architecture &arch, const std::vector<Movement> &out,
          const std::vector<Movement> &in)
{
    std::vector<double> dists;
    for (const std::vector<Movement> *moves : {&out, &in})
        for (const Movement &m : *moves)
            dists.push_back(distance(arch.trapPosition(m.from),
                                     arch.trapPosition(m.to)));
    return transitionCost(dists, arch.params().t_transfer_us);
}

/** A site trap and the storage traps whose nearest box point it is. */
struct FloorTie
{
    int site = -1;
    bool left = true; ///< the tied trap is the site's left trap
    std::vector<TrapRef> sources;
};

/**
 * Every site trap that is the point of @p box nearest some storage
 * trap, with those storage traps: a qubit there that moves to that
 * trap costs exactly its floor term.
 */
std::vector<FloorTie>
floorTies(const Architecture &arch, const TrapBox &box)
{
    std::vector<FloorTie> ties;
    std::map<std::pair<double, double>, std::size_t> at;
    for (int s = 0; s < arch.numSites(); ++s) {
        for (const bool left : {true, false}) {
            const Point p =
                left ? arch.site(s).pos_left : arch.site(s).pos_right;
            at[{p.x, p.y}] = ties.size();
            ties.push_back({s, left, {}});
        }
    }
    for (const TrapRef &t : arch.allStorageTraps()) {
        const Point p = arch.trapPosition(t);
        const auto it = at.find({std::clamp(p.x, box.lo.x, box.hi.x),
                                 std::clamp(p.y, box.lo.y, box.hi.y)});
        if (it != at.end())
            ties[it->second].sources.push_back(t);
    }
    std::erase_if(ties, [](const FloorTie &t) { return t.sources.empty(); });
    return ties;
}

/**
 * One seeded round: gates on distinct random sites; each gate qubit in
 * storage, at a trap of its gate's site (it stays), or at a trap of a
 * site no gate uses (it moves site to site); idle qubits in storage,
 * whose move-outs (some of length zero) precede the move-ins. In a tie
 * round every gate keeps one qubit in place and brings the other in
 * from a storage trap whose nearest box point is the site's other
 * trap, so the floor equals the cost. Checks transitionCostFloor()
 * against the cost of buildMoveIns()'s moves, exactly.
 */
void
floorRound(const Architecture &arch, const FloorBoxes &boxes,
           const std::vector<FloorTie> &ties, bool tie_round, Rng &rng)
{
    // Distinct sites (tie rounds: the sites of distinct tied traps).
    const int candidates =
        tie_round ? static_cast<int>(ties.size()) : arch.numSites();
    const int max_gates = rng.nextInt(
        1, std::min(12, tie_round ? candidates : candidates / 2));
    std::vector<int> order;
    for (int i = 0; i < candidates; ++i)
        order.push_back(i);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    std::vector<int> sites;
    std::vector<char> used(static_cast<std::size_t>(arch.numSites()), 0);
    std::vector<const FloorTie *> gate_tie;
    for (const int i : order) {
        if (static_cast<int>(sites.size()) == max_gates)
            break;
        const FloorTie *tie =
            tie_round ? &ties[static_cast<std::size_t>(i)] : nullptr;
        const int s = tie ? tie->site : i;
        if (used[static_cast<std::size_t>(s)])
            continue;
        used[static_cast<std::size_t>(s)] = 1;
        sites.push_back(s);
        gate_tie.push_back(tie);
    }
    const int num_gates = static_cast<int>(sites.size());
    const int n = 2 * num_gates + rng.nextInt(0, 4);
    PlacementState st(arch, n);

    auto place_in_storage = [&](int q) {
        st.place(q, emptyStorageTrap(st, rng));
    };
    RydbergStage stage;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const int q0 = static_cast<int>(2 * i);
        stage.gates.push_back({q0, q0, q0 + 1});
        const RydbergSite &site = arch.site(sites[i]);
        if (const FloorTie *tie = gate_tie[i]) {
            const int stay = q0 + static_cast<int>(rng.nextBelow(2));
            st.place(stay, tie->left ? site.right : site.left);
            TrapRef src;
            do {
                src = tie->sources[rng.nextBelow(tie->sources.size())];
            } while (!st.isEmpty(src));
            st.place(stay == q0 ? q0 + 1 : q0, src);
            continue;
        }
        for (const int q : {q0, q0 + 1}) {
            const std::uint64_t kind = rng.nextBelow(4);
            if (kind == 0) {
                const TrapRef t = rng.nextBool() ? site.left : site.right;
                if (st.isEmpty(t)) {
                    st.place(q, t);
                    continue;
                }
            } else if (kind == 1) {
                const int s = static_cast<int>(rng.nextBelow(
                    static_cast<std::uint64_t>(arch.numSites())));
                const RydbergSite &other = arch.site(s);
                const TrapRef t = rng.nextBool() ? other.left : other.right;
                if (!used[static_cast<std::size_t>(s)] && st.isEmpty(t)) {
                    st.place(q, t);
                    continue;
                }
            }
            place_in_storage(q);
        }
    }
    std::vector<Movement> out;
    for (int q = 2 * num_gates; q < n; ++q) {
        place_in_storage(q);
        const TrapRef to = st.trapOf(q);
        const RydbergSite &from = arch.site(static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(arch.numSites()))));
        out.push_back({q, rng.nextBool() ? to : from.left, to});
    }

    std::vector<double> dists;
    const double floor =
        transitionCostFloor(st, nullptr, stage, out, boxes, dists);
    const std::vector<Movement> in = buildMoveIns(st, stage, sites);
    const double cost = movesCost(arch, out, in);
    EXPECT_LE(floor, cost) << arch.name();
    if (tie_round) {
        EXPECT_EQ(floor, cost) << arch.name();
    }
}

TEST(PlainVariantFloor, NeverExceedsTheMoveInCost)
{
    Rng rng(41);
    int tie_rounds = 0;
    for (const Architecture &arch :
         {scaledZoned(256), scaledZoned(256, 2), scaledZoned(40),
          presets::multiZoneArch2()}) {
        const FloorBoxes boxes = floorBoxes(arch);
        const std::vector<FloorTie> ties = floorTies(arch, boxes.sites);
        for (int round = 0; round < 300; ++round)
            floorRound(arch, boxes, ties, false, rng);
        for (int round = 0; !ties.empty() && round < 100; ++round) {
            floorRound(arch, boxes, ties, true, rng);
            ++tie_rounds;
        }
    }
    // The scaled architectures' storage reaches past the zone's lower
    // corners, which are tied traps.
    EXPECT_EQ(tie_rounds, 300);
}

/**
 * One seeded round of a boundary's plain variant, from the state
 * before any move. Stage t's gates sit on distinct random sites (the
 * zone holds no other qubit), every other qubit in storage. Stage t+1
 * pairs qubits of both kinds at random; its first gate pairs a qubit
 * leaving the zone with one in storage. The variant then runs in full:
 * its move-outs and sites come from the real placers, or are picked at
 * random (half the move-outs to the nearest empty storage trap, which
 * tightens the floor's terms). transitionCostFloor() before any move
 * must not exceed the variant's transitionCost(), exactly.
 */
void
preMoveFloorRound(const Architecture &arch, const FloorBoxes &boxes,
                  bool real_placers, Rng &rng)
{
    std::vector<int> site_order;
    for (int i = 0; i < arch.numSites(); ++i)
        site_order.push_back(i);
    for (std::size_t i = site_order.size(); i > 1; --i)
        std::swap(site_order[i - 1], site_order[rng.nextBelow(i)]);
    const int k = rng.nextInt(1, std::min(12, arch.numSites() / 2));
    const int n = 2 * k + rng.nextInt(1, 12);
    PlacementState st(arch, n);
    RydbergStage cur;
    for (int i = 0; i < k; ++i) {
        const RydbergSite &site =
            arch.site(site_order[static_cast<std::size_t>(i)]);
        const bool flip = rng.nextBool();
        st.place(2 * i, flip ? site.right : site.left);
        st.place(2 * i + 1, flip ? site.left : site.right);
        cur.gates.push_back({i, 2 * i, 2 * i + 1});
    }
    for (int q = 2 * k; q < n; ++q)
        st.place(q, emptyStorageTrap(st, rng));

    // Stage t+1: qubit 0 (zone) with qubit 2k (storage), then random
    // pairs of the rest.
    std::vector<int> rest;
    for (int q = 1; q < n; ++q)
        if (q != 2 * k)
            rest.push_back(q);
    for (std::size_t i = rest.size(); i > 1; --i)
        std::swap(rest[i - 1], rest[rng.nextBelow(i)]);
    RydbergStage next;
    next.gates.push_back({0, 0, 2 * k});
    const int pairs = rng.nextInt(
        0, std::min(static_cast<int>(rest.size()) / 2,
                    arch.numSites() - 1));
    for (int j = 0; j < pairs; ++j)
        next.gates.push_back({j + 1, rest[static_cast<std::size_t>(2 * j)],
                              rest[static_cast<std::size_t>(2 * j + 1)]});

    std::vector<double> dists;
    const double floor =
        transitionCostFloor(st, &cur, next, {}, boxes, dists);

    // Move-outs, in buildMoveOutHalf()'s order.
    QubitPlacementRequest qreq;
    std::vector<int> partner(static_cast<std::size_t>(n), -1);
    for (const StagedGate &g : next.gates) {
        partner[static_cast<std::size_t>(g.q0)] = g.q1;
        partner[static_cast<std::size_t>(g.q1)] = g.q0;
    }
    for (const StagedGate &g : cur.gates)
        for (const int q : {g.q0, g.q1}) {
            qreq.leaving.push_back(q);
            const int p = partner[static_cast<std::size_t>(q)];
            qreq.related.push_back(p >= 0 ? std::optional(st.posOf(p))
                                          : std::nullopt);
        }
    std::vector<TrapRef> dests;
    if (real_placers)
        dests = placeQubitsInStorage(st, qreq);
    std::vector<Movement> out;
    for (std::size_t i = 0; i < qreq.leaving.size(); ++i) {
        const int q = qreq.leaving[i];
        TrapRef to;
        if (real_placers)
            to = dests[i];
        else if (rng.nextBool())
            to = nearestEmptyStorageTraps(st, st.posOf(q), 1).front();
        else
            to = emptyStorageTrap(st, rng);
        out.push_back({q, st.trapOf(q), to});
        if (!real_placers)
            st.place(q, to);
    }
    if (real_placers)
        for (const Movement &m : out)
            st.place(m.qubit, m.to);

    std::vector<int> sites;
    if (real_placers) {
        GatePlacementRequest greq;
        greq.gates = &next.gates;
        greq.pinned_site.assign(next.gates.size(), -1);
        greq.lookahead.assign(next.gates.size(), std::nullopt);
        sites = placeGates(st, greq);
    } else {
        for (std::size_t i = site_order.size(); i > 1; --i)
            std::swap(site_order[i - 1], site_order[rng.nextBelow(i)]);
        sites.assign(site_order.begin(),
                     site_order.begin() +
                         static_cast<std::ptrdiff_t>(next.gates.size()));
    }
    const std::vector<Movement> in = buildMoveIns(st, next, sites);
    EXPECT_LE(floor, movesCost(arch, out, in)) << arch.name();
}

TEST(PlainVariantFloor, StorageBoxBoundsEveryStorageTrap)
{
    // floorBoxes() reads the box off each storage SLM's corner traps;
    // it must equal the box of every storage trap, exactly.
    for (const Architecture &arch :
         {presets::referenceZoned(), scaledZoned(256), scaledZoned(40),
          presets::multiZoneArch1(), presets::multiZoneArch2(),
          test_archs::twoPitchStorage()}) {
        const FloorBoxes boxes = floorBoxes(arch);
        const Point first =
            arch.trapPosition(arch.allStorageTraps().front());
        Point lo = first, hi = first;
        for (const TrapRef &t : arch.allStorageTraps()) {
            const Point p = arch.trapPosition(t);
            lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
            hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
        }
        EXPECT_EQ(boxes.storage.lo, lo) << arch.name();
        EXPECT_EQ(boxes.storage.hi, hi) << arch.name();
    }
}

TEST(PlainVariantFloor, BeforeAnyMoveNeverExceedsTheFullCost)
{
    Rng rng(43);
    for (const Architecture &arch :
         {scaledZoned(256), scaledZoned(256, 2), scaledZoned(40),
          presets::multiZoneArch2()}) {
        const FloorBoxes boxes = floorBoxes(arch);
        // multiZoneArch2's storage lies between its two zones, so the
        // boxes overlap; the scaled architectures' do not.
        if (arch.name() == presets::multiZoneArch2().name())
            EXPECT_EQ(boxes.gap, 0.0);
        else
            EXPECT_GT(boxes.gap, 0.0) << arch.name();
        for (int round = 0; round < 300; ++round)
            preMoveFloorRound(arch, boxes, round % 2 == 0, rng);
    }
}

TEST(PlainVariantFloor, SettlesBoundariesOnlyWithoutDirectReuse)
{
    // The floor before any move models the plain variant without
    // direct reuse, so runDynamicPlacement() takes it only then.
    const Architecture arch = presets::referenceZoned();
    const StagedCircuit staged = scheduleStages(
        preprocess(bench_circuits::paperBenchmark("ising_n42")),
        arch.numSites());
    const std::vector<TrapRef> initial =
        trivialInitialPlacement(arch, staged.numQubits);
    ZacOptions direct = ZacOptions::full();
    direct.use_direct_reuse = true;
    for (const bool use_direct : {false, true}) {
        PlacementProfile profile;
        const PlacementPlan plan = runDynamicPlacement(
            arch, staged, initial,
            use_direct ? direct : ZacOptions::full(), &profile);
        EXPECT_LE(profile.settled_boundaries, plan.reuse_boundaries);
        if (use_direct)
            EXPECT_EQ(profile.settled_boundaries, 0);
        else
            EXPECT_GT(profile.settled_boundaries, 0);
    }
}

// -------------------------------- dynamic placement vs golden digests

using golden::expectGolden;
using golden::fidelityDigest;
using golden::planDigest;
using golden::programDigest;

std::vector<std::string>
paperCircuitNames()
{
    std::vector<std::string> names;
    for (const auto &rec : bench_circuits::paperBenchmarkRecords())
        names.push_back(rec.name);
    return names;
}

TEST(DynamicPlacementEquiv, PlansBitIdenticalToLegacyOnPaperCircuits)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 300;
    for (const std::string &name : paperCircuitNames()) {
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark(name));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        SaOptions sa;
        sa.max_iterations = opts.sa_iterations;
        sa.seed = opts.seed;
        const std::vector<TrapRef> initial =
            saInitialPlacement(arch, staged, sa);

        const PlacementPlan fresh =
            runDynamicPlacement(arch, staged, initial, opts);
        expectGolden("paper/sa300/" + name + "/plan", planDigest(fresh));
    }
}

/**
 * The Fig. 11 ablation presets on trivial initial placement, plus full
 * options with the Sec. X direct-reuse path. The first three share the
 * paper preset grid's keys (PaperPresetGolden below).
 */
TEST(DynamicPlacementEquiv, AblationVariantsMatchLegacy)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions direct = ZacOptions::full();
    direct.use_direct_reuse = true; // exercise the Sec. X path
    const std::pair<const char *, ZacOptions> variants[] = {
        {"vanilla", ZacOptions::vanilla()},
        {"dynPlace", ZacOptions::dynPlace()},
        {"dynPlaceReuse", ZacOptions::dynPlaceReuse()},
        {"full-direct-trivial", direct}};
    for (const char *name : {"qft_n18", "ising_n42", "ghz_n23"}) {
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark(name));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        const std::vector<TrapRef> initial =
            trivialInitialPlacement(arch, staged.numQubits);
        for (const auto &[label, opts] : variants) {
            const std::string key = std::string("paper/") + label + "/" +
                                    name + "/plan";
            expectGolden(key, planDigest(runDynamicPlacement(
                                  arch, staged, initial, opts)));
        }
    }
}

TEST(DynamicPlacementEquiv, MultiZonePlansMatchLegacy)
{
    for (const Architecture &arch :
         {presets::multiZoneArch1(), presets::multiZoneArch2()}) {
        const Circuit pre = preprocess(bench_circuits::ising(24));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());
        const std::vector<TrapRef> initial =
            trivialInitialPlacement(arch, staged.numQubits);
        for (const auto &[label, opts] :
             {std::pair{"full-trivial", ZacOptions::full()},
              std::pair{"dynPlaceReuse", ZacOptions::dynPlaceReuse()}}) {
            const std::string key =
                arch.name() + "/ising_n24/" + label + "/plan";
            expectGolden(key, planDigest(runDynamicPlacement(
                                  arch, staged, initial, opts)));
        }
    }
}

/**
 * When a boundary's leaving qubits find their local storage candidates
 * taken, the candidates violate Hall's condition and storage placement
 * takes the nearest-empty expansion (qftnn n=128 on scaledZoned(128):
 * 216 expanded solves). The windowed solve over that graph must
 * reproduce the golden plan, also on nearly full storage, where every
 * qubit's nearest set is every empty trap (multiZoneArch1/2: 120
 * traps), and on two storage SLMs of different pitch.
 */
TEST(DynamicPlacementEquiv, ExpandedStoragePlansMatchLegacyAtScale)
{
    ZacOptions opts;
    opts.sa_iterations = 300;
    std::int64_t pruned = 0;
    std::int64_t settled = 0;
    struct Case
    {
        std::string label;
        Architecture arch;
        scaling::Family family;
        int num_qubits;
    };
    using scaling::Family;
    for (const Case &tc :
         {Case{"scaled128/qftnn_n128", scaledZoned(128), Family::QftNn,
               128},
          Case{"scaled256/qaoa3r_n256", scaledZoned(256), Family::Qaoa,
               256},
          Case{"arch1/qftnn_n116", presets::multiZoneArch1(),
               Family::QftNn, 116},
          Case{"arch2/qaoa3r_n116", presets::multiZoneArch2(),
               Family::Qaoa, 116},
          Case{"two_pitch/qaoa3r_n300", test_archs::twoPitchStorage(),
               Family::Qaoa, 300},
          Case{"two_pitch/qv_n60", test_archs::twoPitchStorage(),
               Family::Qv, 60}}) {
        const Architecture &arch = tc.arch;
        const StagedCircuit staged = scheduleStages(
            preprocess(scaling::generate(tc.family, tc.num_qubits)),
            arch.numSites());
        SaOptions sa;
        sa.max_iterations = opts.sa_iterations;
        sa.seed = opts.seed;
        for (const bool use_sa : {true, false}) {
            const std::vector<TrapRef> initial =
                use_sa ? saInitialPlacement(arch, staged, sa)
                       : trivialInitialPlacement(arch, staged.numQubits);
            const std::string label =
                "expanded/" + tc.label + (use_sa ? "/sa300" : "/trivial");
            PlacementProfile profile;
            const PlacementPlan plan =
                runDynamicPlacement(arch, staged, initial, opts, &profile);
            expectGolden(label + "/plan", planDigest(plan));
            EXPECT_GT(profile.qubit_placer.expanded_solves, 0) << label;
            EXPECT_GT(profile.qubit_placer.window_growths, 0) << label;
            // The digests cover boundaries whose plain variant stopped
            // after its move-outs or never ran, each of which the reuse
            // variant won.
            const std::int64_t early =
                profile.pruned_variants + profile.settled_boundaries;
            EXPECT_GT(early, 0) << label;
            EXPECT_LE(early, plan.reuse_boundaries) << label;
            pruned += profile.pruned_variants;
            settled += profile.settled_boundaries;
        }
    }
    EXPECT_GT(pruned, 0);
    EXPECT_GT(settled, 0);
}

/**
 * Full-pipeline determinism gate: compile() twice must agree bit-for-
 * bit, and its plan, ZAIR program and fidelity must match the golden
 * digests of the same input (the 300-iteration SA keys the paper-
 * circuit plan test above shares).
 */
TEST(DynamicPlacementEquiv, CompileOutputBitIdenticalViaLegacyPlan)
{
    const Architecture arch = presets::referenceZoned();
    ZacOptions opts;
    opts.sa_iterations = 300;
    const ZacCompiler compiler(arch, opts);
    for (const char *name :
         {"bv_n14", "qft_n18", "ising_n42", "wstate_n27", "knn_n31"}) {
        const Circuit pre =
            preprocess(bench_circuits::paperBenchmark(name));
        const StagedCircuit staged =
            scheduleStages(pre, arch.numSites());

        const ZacResult a = compiler.compileStaged(staged);
        const ZacResult b = compiler.compileStaged(staged);
        EXPECT_EQ(a.plan, b.plan) << name;
        EXPECT_EQ(zairProgramToJson(a.program).dump(),
                  zairProgramToJson(b.program).dump())
            << name;

        const std::string key = std::string("paper/sa300/") + name;
        expectGolden(key + "/plan", planDigest(a.plan));
        expectGolden(key + "/program", programDigest(a.program));
        expectGolden(key + "/fidelity", fidelityDigest(a.fidelity));
    }
}

// ----------------------------------- compile() on every option preset

ZacOptions
presetOptions(const std::string &preset)
{
    if (preset == "vanilla")
        return ZacOptions::vanilla();
    if (preset == "dynPlace")
        return ZacOptions::dynPlace();
    if (preset == "dynPlaceReuse")
        return ZacOptions::dynPlaceReuse();
    return ZacOptions::full();
}

/**
 * The 17 paper circuits on referenceZoned() under each Fig. 11 preset
 * (SA with 1000 iterations and seed 1 where the preset enables it,
 * trivial initial placement otherwise): plan, program and fidelity
 * match the golden digests, and compileStreamed() writes exactly the
 * bytes of compile()'s program.
 */
class PaperPresetGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PaperPresetGolden, CompileMatchesGoldenDigests)
{
    const Architecture arch = presets::referenceZoned();
    const ZacOptions opts = presetOptions(GetParam());
    const ZacCompiler compiler(arch, opts);
    for (const std::string &name : paperCircuitNames()) {
        const Circuit circuit = bench_circuits::paperBenchmark(name);
        const std::string key = "paper/" + GetParam() + "/" + name;
        const ZacResult r = compiler.compile(circuit);
        expectGolden(key + "/plan", planDigest(r.plan));
        expectGolden(key + "/program", programDigest(r.program));
        expectGolden(key + "/fidelity", fidelityDigest(r.fidelity));

        const ZacStreamedResult s = compiler.compileStreamed(circuit);
        EXPECT_EQ(s.program_json, zairProgramToJson(r.program).dump())
            << key;
        EXPECT_EQ(fidelityDigest(s.fidelity), fidelityDigest(r.fidelity))
            << key;
    }
}

INSTANTIATE_TEST_SUITE_P(Presets, PaperPresetGolden,
                         ::testing::Values("vanilla", "dynPlace",
                                           "dynPlaceReuse", "full"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace zac
