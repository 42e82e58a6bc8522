/**
 * @file
 * Unit tests for the architecture specification, presets, geometry
 * queries, and JSON serialization (paper Sec. III, Fig. 20).
 */

#include <gtest/gtest.h>

#include <limits>

#include "arch/presets.hpp"
#include "arch/serialize.hpp"
#include "arch/spec.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/placement_state.hpp"

#include "golden.hpp"
#include "test_archs.hpp"

namespace zac
{
namespace
{

/** Every preset architecture, for randomized equivalence sweeps. */
std::vector<Architecture>
allPresets()
{
    std::vector<Architecture> archs;
    archs.push_back(presets::referenceZoned());
    archs.push_back(presets::monolithic());
    archs.push_back(presets::multiZoneArch1());
    archs.push_back(presets::multiZoneArch2());
    archs.push_back(presets::logicalBlockArch());
    return archs;
}

/** Bounding box of every trap, padded, as a random-point domain. */
void
archBounds(const Architecture &arch, Point &lo, Point &hi)
{
    lo = {std::numeric_limits<double>::max(),
          std::numeric_limits<double>::max()};
    hi = {std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::lowest()};
    for (int id = 0; id < arch.numTraps(); ++id) {
        const Point p = arch.trapPosition(static_cast<TrapId>(id));
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
    }
    lo.x -= 25.0;
    lo.y -= 25.0;
    hi.x += 25.0;
    hi.y += 25.0;
}

Point
randomPoint(Rng &rng, const Point &lo, const Point &hi)
{
    return {lo.x + rng.nextDouble() * (hi.x - lo.x),
            lo.y + rng.nextDouble() * (hi.y - lo.y)};
}

// ------------------------------------------------------------- presets

TEST(ArchPresets, ReferenceZonedMatchesFig20)
{
    const Architecture arch = presets::referenceZoned();
    // 7x20 Rydberg sites, 100x100 storage traps.
    EXPECT_EQ(arch.numSites(), 140);
    EXPECT_EQ(arch.numStorageTraps(), 10000);
    ASSERT_EQ(arch.entanglementZones().size(), 1u);
    ASSERT_EQ(arch.storageZones().size(), 1u);

    // Entanglement SLM pair at (35,307) and (37,307), pitch 12 x 10.
    const RydbergSite &s00 = arch.site(arch.siteIndex(0, 0, 0));
    EXPECT_DOUBLE_EQ(s00.pos_left.x, 35.0);
    EXPECT_DOUBLE_EQ(s00.pos_left.y, 307.0);
    EXPECT_DOUBLE_EQ(s00.pos_right.x, 37.0);
    const RydbergSite &s12 = arch.site(arch.siteIndex(0, 1, 2));
    EXPECT_DOUBLE_EQ(s12.pos_left.x, 35.0 + 2 * 12.0);
    EXPECT_DOUBLE_EQ(s12.pos_left.y, 307.0 + 10.0);

    // Storage pitch 3 um from the origin; top row at y = 297.
    const Point top = arch.trapPosition({0, 99, 0});
    EXPECT_DOUBLE_EQ(top.y, 297.0);
    EXPECT_DOUBLE_EQ(arch.trapPosition({0, 0, 5}).x, 15.0);
}

TEST(ArchPresets, MultiAodVariants)
{
    EXPECT_EQ(presets::referenceZoned(1).aods().size(), 1u);
    EXPECT_EQ(presets::referenceZoned(4).aods().size(), 4u);
}

TEST(ArchPresets, MonolithicHasNoStorage)
{
    const Architecture arch = presets::monolithic();
    EXPECT_EQ(arch.numSites(), 100);
    EXPECT_EQ(arch.numStorageTraps(), 0);
    EXPECT_TRUE(arch.storageZones().empty());
}

TEST(ArchPresets, MultiZoneArch2HasTwoEntanglementZones)
{
    const Architecture a1 = presets::multiZoneArch1();
    const Architecture a2 = presets::multiZoneArch2();
    EXPECT_EQ(a1.entanglementZones().size(), 1u);
    EXPECT_EQ(a2.entanglementZones().size(), 2u);
    // Same number of Rydberg sites for the Sec. VII-H comparison.
    EXPECT_EQ(a1.numSites(), 60);
    EXPECT_EQ(a2.numSites(), 60);
    EXPECT_EQ(a1.numStorageTraps(), 120);
    EXPECT_EQ(a2.numStorageTraps(), 120);
}

TEST(ArchPresets, LogicalArchSupports3x5Sites)
{
    const Architecture arch = presets::logicalBlockArch();
    EXPECT_EQ(arch.numSites(), 15); // floor(7/2) x floor(20/4)
    EXPECT_GE(arch.numStorageTraps(), 128);
}

// ---------------------------------------------------------- validation

TEST(ArchSpec, EntanglementZoneNeedsTwoSlms)
{
    Architecture arch;
    SlmSpec slm;
    slm.rows = 2;
    slm.cols = 2;
    const int idx = arch.addSlm(slm);
    ZoneSpec zone;
    zone.slm_ids = {idx};
    EXPECT_THROW(arch.addZone(ZoneKind::Entanglement, zone),
                 FatalError);
}

TEST(ArchSpec, EntanglementSlmPairMustMatchDims)
{
    Architecture arch;
    SlmSpec a;
    a.rows = 2;
    a.cols = 3;
    SlmSpec b = a;
    b.rows = 4;
    b.origin = {2.0, 0.0};
    ZoneSpec zone;
    zone.slm_ids = {arch.addSlm(a), arch.addSlm(b)};
    arch.addZone(ZoneKind::Entanglement, zone);
    AodSpec aod;
    arch.addAod(aod);
    EXPECT_THROW(arch.finalize(), FatalError);
}

TEST(ArchSpec, FinalizeRequiresAodAndZone)
{
    Architecture arch;
    EXPECT_THROW(arch.finalize(), FatalError);
}

TEST(ArchSpec, RejectsBadSlm)
{
    Architecture arch;
    SlmSpec slm;
    slm.rows = 0;
    slm.cols = 5;
    EXPECT_THROW(arch.addSlm(slm), FatalError);
    slm.rows = 5;
    slm.sep_x = -1.0;
    EXPECT_THROW(arch.addSlm(slm), FatalError);

    // A trap count past TrapId's range is rejected, naming the SLM that
    // crosses it, before any site or trap table is built: one oversized
    // SLM, and two whose sum overflows.
    const auto finalizeMessage =
        [](const std::vector<std::pair<int, int>> &storage_dims) {
            Architecture big;
            ZoneSpec storage;
            for (const auto &[rows, cols] : storage_dims) {
                SlmSpec s;
                s.rows = rows;
                s.cols = cols;
                storage.slm_ids.push_back(big.addSlm(s));
            }
            big.addZone(ZoneKind::Storage, storage);
            SlmSpec left;
            left.rows = 1;
            left.cols = 1;
            left.origin = {0.0, 1e6};
            SlmSpec right = left;
            right.origin.x = 2.0;
            ZoneSpec zone;
            zone.slm_ids = {big.addSlm(left), big.addSlm(right)};
            big.addZone(ZoneKind::Entanglement, zone);
            AodSpec aod;
            aod.max_rows = 10;
            aod.max_cols = 10;
            big.addAod(aod);
            try {
                big.finalize();
            } catch (const FatalError &e) {
                return std::string(e.what());
            }
            return std::string("finalized");
        };
    const std::string one = finalizeMessage({{50000, 50000}});
    EXPECT_NE(one.find("SLM 0 (50000 x 50000)"), std::string::npos)
        << one;
    const std::string sum =
        finalizeMessage({{40000, 40000}, {40000, 40000}});
    EXPECT_NE(sum.find("SLM 1 (40000 x 40000)"), std::string::npos)
        << sum;
}

TEST(ArchSpec, TrapPositionBoundsChecked)
{
    const Architecture arch = presets::referenceZoned();
    EXPECT_THROW(arch.trapPosition({0, 100, 0}), PanicError);
    EXPECT_THROW(arch.trapPosition({99, 0, 0}), PanicError);
}

// -------------------------------------------------------------- queries

TEST(ArchQueries, NearestSiteAndTrap)
{
    const Architecture arch = presets::referenceZoned();
    // Right at site (0,0)'s left trap.
    EXPECT_EQ(arch.nearestSite({35.0, 307.0}),
              arch.siteIndex(0, 0, 0));
    // Nearer to site (2,5).
    EXPECT_EQ(arch.nearestSite({35.0 + 5 * 12.0 + 1.0,
                                307.0 + 2 * 10.0 - 1.0}),
              arch.siteIndex(0, 2, 5));
    // Storage: clamped to the grid.
    EXPECT_EQ(arch.nearestStorageTrap({-5.0, -5.0}),
              (TrapRef{0, 0, 0}));
    EXPECT_EQ(arch.nearestStorageTrap({7.4, 298.0}),
              (TrapRef{0, 99, 2}));
}

TEST(ArchQueries, StorageNeighborsRespectBounds)
{
    const Architecture arch = presets::referenceZoned();
    const auto corner = arch.storageNeighbors({0, 0, 0}, 2);
    EXPECT_EQ(corner.size(), 4u); // only +x and +y directions
    const auto middle = arch.storageNeighbors({0, 50, 50}, 1);
    EXPECT_EQ(middle.size(), 4u);
    const auto middle2 = arch.storageNeighbors({0, 50, 50}, 2);
    EXPECT_EQ(middle2.size(), 8u);
}

TEST(ArchQueries, StorageTrapsInBox)
{
    const Architecture arch = presets::referenceZoned();
    // Box spanning traps (0,0)..(1,2): 2 rows x 3 cols.
    const auto traps =
        arch.storageTrapsInBox({{0.0, 0.0}, {6.0, 3.0}});
    EXPECT_EQ(traps.size(), 6u);
    // Degenerate box: exactly one trap.
    EXPECT_EQ(arch.storageTrapsInBox({{3.0, 3.0}}).size(), 1u);
}

TEST(ArchQueries, EntanglementZoneContainment)
{
    const Architecture arch = presets::referenceZoned();
    EXPECT_TRUE(arch.inEntanglementZone({35.0, 307.0}));
    EXPECT_TRUE(arch.inEntanglementZone({100.0, 340.0}));
    EXPECT_FALSE(arch.inEntanglementZone({100.0, 200.0}));
    EXPECT_EQ(arch.entanglementZoneAt({0.0, 0.0}), -1);

    const Architecture arch2 = presets::multiZoneArch2();
    EXPECT_EQ(arch2.entanglementZoneAt({10.0, 0.0}), 0);
    EXPECT_EQ(arch2.entanglementZoneAt({10.0, 50.0}), 1);
}

TEST(ArchQueries, SiteIndexLayout)
{
    const Architecture arch = presets::referenceZoned();
    EXPECT_EQ(arch.siteIndex(0, 0, 0), 0);
    EXPECT_EQ(arch.siteIndex(0, 0, 19), 19);
    EXPECT_EQ(arch.siteIndex(0, 1, 0), 20);
    EXPECT_EQ(arch.siteIndex(0, 6, 19), 139);
    EXPECT_EQ(arch.siteIndex(0, 7, 0), -1);
    EXPECT_THROW(arch.siteIndex(1, 0, 0), PanicError);
}

// ------------------------------------------------------- spatial index

TEST(ArchTrapIndex, RoundTripsAndTables)
{
    for (const Architecture &arch : allPresets()) {
        int expected = 0;
        for (const SlmSpec &s : arch.slms())
            expected += s.rows * s.cols;
        ASSERT_EQ(arch.numTraps(), expected) << arch.name();

        for (int id = 0; id < arch.numTraps(); ++id) {
            const TrapId tid = static_cast<TrapId>(id);
            const TrapRef t = arch.trapRef(tid);
            EXPECT_EQ(arch.trapId(t), tid);
            EXPECT_EQ(arch.trapPosition(tid), arch.trapPosition(t));
            EXPECT_EQ(arch.isStorageTrap(tid), arch.isStorageTrap(t));
            EXPECT_EQ(arch.nearestSiteOfTrap(tid),
                      arch.nearestSite(arch.trapPosition(tid)));
        }

        const auto &storage = arch.allStorageTraps();
        const auto &storage_ids = arch.storageTrapIds();
        ASSERT_EQ(storage.size(), storage_ids.size());
        ASSERT_EQ(static_cast<int>(storage.size()),
                  arch.numStorageTraps());
        for (std::size_t i = 0; i < storage.size(); ++i) {
            EXPECT_EQ(arch.trapId(storage[i]), storage_ids[i]);
            EXPECT_TRUE(arch.isStorageTrap(storage_ids[i]));
        }
    }
}

TEST(ArchTrapIndex, TrapIdOrderEqualsTrapRefOrder)
{
    for (const Architecture &arch : allPresets()) {
        for (int id = 1; id < arch.numTraps(); ++id) {
            const TrapRef a =
                arch.trapRef(static_cast<TrapId>(id - 1));
            const TrapRef b = arch.trapRef(static_cast<TrapId>(id));
            EXPECT_TRUE(a < b) << arch.name();
        }
    }
}

TEST(ArchTrapIndex, BoundsChecked)
{
    const Architecture arch = presets::referenceZoned();
    EXPECT_THROW(arch.trapId({0, 100, 0}), PanicError);
    EXPECT_THROW(arch.trapRef(static_cast<TrapId>(arch.numTraps())),
                 PanicError);
    EXPECT_THROW(arch.trapRef(kInvalidTrapId), PanicError);
    EXPECT_FALSE(arch.isStorageTrap(kInvalidTrapId));
}

TEST(ArchQueryEquivalence, NearestSiteMatchesLinearScan)
{
    Rng rng(2024);
    for (const Architecture &arch : allPresets()) {
        Point lo, hi;
        archBounds(arch, lo, hi);
        Fnv1a sites;
        for (int i = 0; i < 2000; ++i) {
            const Point p = randomPoint(rng, lo, hi);
            // First-minimum scan over every Rydberg site.
            int best = -1;
            double best_d = std::numeric_limits<double>::max();
            for (int s = 0; s < arch.numSites(); ++s) {
                const double d = distance(p, arch.site(s).pos_left);
                if (d < best_d) {
                    best_d = d;
                    best = s;
                }
            }
            EXPECT_EQ(arch.nearestSite(p), best)
                << arch.name() << " at (" << p.x << "," << p.y << ")";
            sites.i64(best);
        }
        golden::expectGolden("query/" + arch.name() + "/nearest_site",
                             sites.digest());
    }
}

TEST(ArchQueryEquivalence, NearestStorageTrapMatchesReferences)
{
    Rng rng(77);
    for (const Architecture &arch : allPresets()) {
        if (arch.numStorageTraps() == 0)
            continue;
        Point lo, hi;
        archBounds(arch, lo, hi);
        std::vector<TrapRef> gots;
        for (int i = 0; i < 2000; ++i) {
            const Point p = randomPoint(rng, lo, hi);
            const TrapRef got = arch.nearestStorageTrap(p);
            gots.push_back(got);
            // Brute-force first-minimum scan over every storage trap.
            TrapRef best;
            double best_d = std::numeric_limits<double>::max();
            for (const TrapRef &t : arch.allStorageTraps()) {
                const double d = distance(p, arch.trapPosition(t));
                if (d < best_d) {
                    best_d = d;
                    best = t;
                }
            }
            EXPECT_EQ(got, best) << arch.name();
        }
        // Generated from the pre-index per-SLM clamp-and-round query.
        golden::expectGolden("query/" + arch.name() +
                                 "/nearest_storage_trap",
                             golden::trapsDigest(gots));
    }
}

TEST(ArchQueryEquivalence, StorageTrapsInBoxMatchesScan)
{
    Rng rng(31337);
    for (const Architecture &arch : allPresets()) {
        Point lo, hi;
        archBounds(arch, lo, hi);
        for (int i = 0; i < 300; ++i) {
            std::vector<Point> anchors;
            const int n_anchors = 1 + static_cast<int>(rng.nextBelow(3));
            for (int a = 0; a < n_anchors; ++a)
                anchors.push_back(randomPoint(rng, lo, hi));
            double min_x = anchors[0].x, max_x = anchors[0].x;
            double min_y = anchors[0].y, max_y = anchors[0].y;
            for (const Point &p : anchors) {
                min_x = std::min(min_x, p.x);
                max_x = std::max(max_x, p.x);
                min_y = std::min(min_y, p.y);
                max_y = std::max(max_y, p.y);
            }
            std::vector<TrapRef> expected;
            for (const TrapRef &t : arch.allStorageTraps()) {
                const Point p = arch.trapPosition(t);
                if (p.x >= min_x - 1e-9 && p.x <= max_x + 1e-9 &&
                    p.y >= min_y - 1e-9 && p.y <= max_y + 1e-9)
                    expected.push_back(t);
            }
            std::sort(expected.begin(), expected.end());
            std::vector<TrapRef> got = arch.storageTrapsInBox(anchors);
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, expected) << arch.name();
        }
    }
}

TEST(ArchQueryEquivalence, StorageSpansInBoxMatchRefEnumeration)
{
    // Expanded to ids, the row spans must list exactly the traps of the
    // TrapRef-based enumeration, in the same order, also where zone
    // order and id order disagree (two_pitch_storage). Under random
    // occupancy the empty-trap scan over them must equal a brute-force
    // filter of that enumeration.
    Rng rng(777);
    std::vector<Architecture> archs = allPresets();
    archs.push_back(test_archs::twoPitchStorage());
    for (const Architecture &arch : archs) {
        std::vector<int> row_of; // storage row of each storage trap id
        row_of.assign(static_cast<std::size_t>(arch.numTraps()), -1);
        int rows = 0;
        for (const ZoneSpec &z : arch.storageZones())
            for (int slm : z.slm_ids) {
                const SlmSpec &s = arch.slms()[static_cast<std::size_t>(slm)];
                for (int r = 0; r < s.rows; ++r, ++rows)
                    for (int c = 0; c < s.cols; ++c)
                        row_of[static_cast<std::size_t>(
                            arch.trapId(TrapRef{slm, r, c}))] = rows;
            }
        const auto &storage = arch.allStorageTraps();
        Point lo, hi;
        archBounds(arch, lo, hi);
        for (int i = 0; i < 100; ++i) {
            PlacementState state(arch, static_cast<int>(storage.size() / 2));
            std::vector<char> occupied(
                static_cast<std::size_t>(arch.numTraps()), 0);
            for (int q = 0; q < state.numQubits(); ++q) {
                TrapRef t;
                do {
                    t = storage[rng.nextBelow(storage.size())];
                } while (!state.isEmpty(t));
                state.place(q, t);
                occupied[static_cast<std::size_t>(arch.trapId(t))] = 1;
            }
            const Point a = randomPoint(rng, lo, hi);
            const Point b = randomPoint(rng, lo, hi);
            const Point box_lo{std::min(a.x, b.x), std::min(a.y, b.y)};
            const Point box_hi{std::max(a.x, b.x), std::max(a.y, b.y)};
            std::vector<TrapId> expected, expected_empty;
            for (const TrapRef &t :
                 arch.storageTrapsInBox({box_lo, box_hi})) {
                const TrapId id = arch.trapId(t);
                expected.push_back(id);
                if (!occupied[static_cast<std::size_t>(id)])
                    expected_empty.push_back(id);
            }
            std::vector<StorageSpan> spans;
            arch.storageSpansInBox(box_lo, box_hi, spans);
            std::vector<TrapId> got, got_empty;
            for (std::size_t k = 0; k < spans.size(); ++k) {
                const StorageSpan &s = spans[k];
                ASSERT_LE(0, s.lo);
                ASSERT_LE(s.lo, s.hi);
                ASSERT_LT(s.hi, s.cols);
                if (k > 0) {
                    EXPECT_LT(spans[k - 1].row, s.row);
                }
                for (int c = s.lo; c <= s.hi; ++c) {
                    EXPECT_EQ(row_of[static_cast<std::size_t>(s.first + c)],
                              s.row);
                    got.push_back(s.first + c);
                }
                EXPECT_EQ(arch.trapRef(s.first).c, 0);
                state.appendEmptyTraps(s, got_empty);
            }
            EXPECT_EQ(got, expected) << arch.name();
            EXPECT_EQ(got_empty, expected_empty) << arch.name();
        }
    }
}

TEST(ArchQueryEquivalence, StorageSpansInDiskMatchExactPredicate)
{
    // Per storage row, the span must hold exactly the traps with
    // distance(trapPosition(t), center) <= radius, also for radii equal
    // to a trap's distance and for centres far off the storage grid.
    Rng rng(2024);
    std::vector<Architecture> archs = allPresets();
    archs.push_back(test_archs::twoPitchStorage());
    for (const Architecture &arch : archs) {
        // Storage rows: SLMs in zone order, bottom row first.
        std::vector<std::pair<TrapId, int>> rows; // (column 0's id, cols)
        for (const ZoneSpec &z : arch.storageZones())
            for (int slm : z.slm_ids) {
                const SlmSpec &s = arch.slms()[static_cast<std::size_t>(slm)];
                for (int r = 0; r < s.rows; ++r)
                    rows.emplace_back(arch.trapId(TrapRef{slm, r, 0}), s.cols);
            }
        ASSERT_EQ(arch.numStorageRows(), static_cast<int>(rows.size()));
        if (rows.empty())
            continue;

        Point lo, hi;
        archBounds(arch, lo, hi);
        const auto &storage = arch.storageTrapIds();
        for (int i = 0; i < 1500; ++i) {
            // Every third centre is far away, where the chord estimate
            // of a span's ends can miss a trap on the disk's edge.
            Point center = randomPoint(rng, lo, hi);
            const double far = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 1e5 : 1e7);
            center.x += far * (rng.nextDouble() - 0.5);
            center.y += far * (rng.nextDouble() - 0.5);
            double radius = rng.nextDouble() * 0.5 * (hi.x - lo.x);
            if (i % 2 == 1) // exactly a trap's distance: inclusive
                radius = distance(
                    arch.trapPosition(storage[rng.nextBelow(storage.size())]),
                    center);
            std::vector<StorageSpan> expected;
            for (std::size_t r = 0; r < rows.size(); ++r) {
                const auto [row_first, cols] = rows[r];
                int first = -1, last = -1, inside = 0;
                for (int c = 0; c < cols; ++c)
                    if (distance(arch.trapPosition(row_first + c), center) <=
                        radius) {
                        first = first < 0 ? c : first;
                        last = c;
                        ++inside;
                    }
                if (inside == 0)
                    continue;
                ASSERT_EQ(inside, last - first + 1) << arch.name();
                expected.push_back(
                    {static_cast<int>(r), row_first, cols, first, last});
            }
            std::vector<StorageSpan> got;
            arch.storageSpansInDisk(center, radius, got);
            ASSERT_EQ(got.size(), expected.size()) << arch.name();
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].row, expected[k].row) << arch.name();
                EXPECT_EQ(got[k].first, expected[k].first) << arch.name();
                EXPECT_EQ(got[k].cols, expected[k].cols) << arch.name();
                EXPECT_EQ(got[k].lo, expected[k].lo) << arch.name();
                EXPECT_EQ(got[k].hi, expected[k].hi) << arch.name();
            }
        }
        std::vector<StorageSpan> none;
        arch.storageSpansInDisk(lo, -1.0, none);
        EXPECT_TRUE(none.empty());
    }
}

TEST(ArchQueryEquivalence, StorageNeighborsMatchesReference)
{
    Rng rng(4242);
    for (const Architecture &arch : allPresets()) {
        if (arch.numStorageTraps() == 0)
            continue;
        const auto &storage = arch.allStorageTraps();
        for (int i = 0; i < 200; ++i) {
            const TrapRef t =
                storage[rng.nextBelow(storage.size())];
            const int k = 1 + static_cast<int>(rng.nextBelow(4));
            const SlmSpec &s =
                arch.slms()[static_cast<std::size_t>(t.slm)];
            std::vector<TrapRef> expected;
            for (int d = 1; d <= k; ++d) {
                if (t.c - d >= 0)
                    expected.push_back({t.slm, t.r, t.c - d});
                if (t.c + d < s.cols)
                    expected.push_back({t.slm, t.r, t.c + d});
                if (t.r - d >= 0)
                    expected.push_back({t.slm, t.r - d, t.c});
                if (t.r + d < s.rows)
                    expected.push_back({t.slm, t.r + d, t.c});
            }
            EXPECT_EQ(arch.storageNeighbors(t, k), expected);
        }
    }
}

// -------------------------------------------------------- serialization

TEST(ArchSerialize, LoadsThePaperFig20Spec)
{
    // Abridged copy of the paper's Fig. 20 JSON (with its "dimenstion"
    // typo preserved).
    const char *spec = R"({
      "name": "full_compute_store_architecture",
      "operation_duration": {"rydberg": 0.36, "1qGate": 52,
                             "atom_transfer": 15},
      "operation_fidelity": {"two_qubit_gate": 0.995,
                             "single_qubit_gate": 0.9997,
                             "atom_transfer": 0.999},
      "qubit_spec": {"T": 1.5e6},
      "storage_zones": [{
        "zone_id": 0,
        "slms": [{"id": 0, "site_seperation": [3, 3],
                  "r": 100, "c": 100, "location": [0, 0]}],
        "offset": [0, 0], "dimenstion": [300, 300]}],
      "entanglement_zones": [{
        "zone_id": 0,
        "slms": [{"id": 1, "site_seperation": [12, 10], "r": 7,
                  "c": 20, "location": [35, 307]},
                 {"id": 2, "site_seperation": [12, 10], "r": 7,
                  "c": 20, "location": [37, 307]}],
        "offset": [35, 307], "dimension": [240, 70]}],
      "aods": [{"id": 0, "site_seperation": 2, "r": 100, "c": 100}]
    })";
    const Architecture arch = architectureFromJson(json::parse(spec));
    EXPECT_EQ(arch.name(), "full_compute_store_architecture");
    EXPECT_EQ(arch.numSites(), 140);
    EXPECT_EQ(arch.numStorageTraps(), 10000);
    EXPECT_DOUBLE_EQ(arch.params().t_rydberg_us, 0.36);
    EXPECT_DOUBLE_EQ(arch.params().t_1q_us, 52.0);
    EXPECT_DOUBLE_EQ(arch.params().f_2q, 0.995);
    EXPECT_DOUBLE_EQ(arch.params().t2_us, 1.5e6);
    EXPECT_DOUBLE_EQ(arch.site(0).pos_left.x, 35.0);
}

TEST(ArchSerialize, RoundTripsThroughJson)
{
    const Architecture arch = presets::referenceZoned(2);
    const json::Value v = architectureToJson(arch);
    const Architecture back = architectureFromJson(v);
    EXPECT_EQ(back.numSites(), arch.numSites());
    EXPECT_EQ(back.numStorageTraps(), arch.numStorageTraps());
    EXPECT_EQ(back.aods().size(), arch.aods().size());
    EXPECT_DOUBLE_EQ(back.site(37).pos_left.x,
                     arch.site(37).pos_left.x);
    EXPECT_DOUBLE_EQ(back.params().f_exc, arch.params().f_exc);
}

TEST(ArchSerialize, FileRoundTrip)
{
    const Architecture arch = presets::multiZoneArch2();
    const std::string path =
        ::testing::TempDir() + "/zac_arch_test.json";
    saveArchitecture(path, arch);
    const Architecture back = loadArchitecture(path);
    EXPECT_EQ(back.entanglementZones().size(), 2u);
    EXPECT_EQ(back.numSites(), 60);
}

} // namespace
} // namespace zac
