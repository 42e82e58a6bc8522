#include "arch/spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hpp"

namespace zac
{

namespace
{

/**
 * Indices of a regular 1-D grid (origin @p o, pitch @p sep, @p count
 * points) falling inside [lo, hi], boundary-inclusive up to a small
 * epsilon. Shared by every box/disk range query so the clamping and
 * epsilon treatment cannot diverge between them.
 */
struct GridRange
{
    int lo, hi; ///< empty when lo > hi
};

GridRange
gridRange(double lo, double hi, double o, double sep, int count)
{
    const double eps = 1e-9;
    return {std::max(0, static_cast<int>(
                            std::ceil((lo - o) / sep - eps))),
            std::min(count - 1, static_cast<int>(
                                    std::floor((hi - o) / sep + eps)))};
}

} // namespace

int
Architecture::addSlm(const SlmSpec &slm)
{
    if (finalized_)
        panic("architecture: addSlm after finalize");
    if (slm.rows <= 0 || slm.cols <= 0)
        fatal("architecture: SLM must have positive dimensions");
    if (slm.sep_x <= 0.0 || slm.sep_y <= 0.0)
        fatal("architecture: SLM separations must be positive");
    slms_.push_back(slm);
    return static_cast<int>(slms_.size()) - 1;
}

int
Architecture::addAod(const AodSpec &aod)
{
    if (finalized_)
        panic("architecture: addAod after finalize");
    if (aod.max_rows <= 0 || aod.max_cols <= 0)
        fatal("architecture: AOD must have positive capacity");
    aods_.push_back(aod);
    return static_cast<int>(aods_.size()) - 1;
}

void
Architecture::addZone(ZoneKind kind, const ZoneSpec &zone)
{
    if (finalized_)
        panic("architecture: addZone after finalize");
    validateZone(zone, kind);
    switch (kind) {
      case ZoneKind::Storage:
        storage_.push_back(zone);
        break;
      case ZoneKind::Entanglement:
        entangle_.push_back(zone);
        break;
      case ZoneKind::Readout:
        readout_.push_back(zone);
        break;
    }
}

void
Architecture::validateZone(const ZoneSpec &zone, ZoneKind kind) const
{
    for (int slm_id : zone.slm_ids)
        if (slm_id < 0 || slm_id >= static_cast<int>(slms_.size()))
            fatal("architecture: zone references unknown SLM " +
                  std::to_string(slm_id));
    if (kind == ZoneKind::Entanglement && zone.slm_ids.size() != 2)
        fatal("architecture: an entanglement zone needs exactly two SLM "
              "arrays (the left/right traps of its Rydberg sites)");
    if (kind == ZoneKind::Storage && zone.slm_ids.empty())
        fatal("architecture: a storage zone needs at least one SLM");
}

void
Architecture::finalize()
{
    if (finalized_)
        return;
    if (aods_.empty())
        fatal("architecture: at least one AOD is required");
    if (entangle_.empty())
        fatal("architecture: at least one entanglement zone is required");
    // Trap ids are TrapId (int32): past that range the id arithmetic
    // overflows and the trap tables could not be allocated anyway.
    std::int64_t num_traps = 0;
    for (std::size_t s = 0; s < slms_.size(); ++s) {
        num_traps += std::int64_t{slms_[s].rows} * slms_[s].cols;
        if (num_traps > std::numeric_limits<TrapId>::max())
            fatal("architecture: SLM " + std::to_string(s) + " (" +
                  std::to_string(slms_[s].rows) + " x " +
                  std::to_string(slms_[s].cols) +
                  ") takes the trap count past " +
                  std::to_string(std::numeric_limits<TrapId>::max()));
    }

    slmIsStorage_.assign(slms_.size(), 0);
    for (const ZoneSpec &z : storage_)
        for (int slm_id : z.slm_ids)
            slmIsStorage_[static_cast<std::size_t>(slm_id)] = 1;

    // Derive Rydberg sites per entanglement zone.
    sites_.clear();
    zoneSiteBase_.clear();
    for (std::size_t zi = 0; zi < entangle_.size(); ++zi) {
        const ZoneSpec &zone = entangle_[zi];
        const SlmSpec &s0 = slms_[static_cast<std::size_t>(zone.slm_ids[0])];
        const SlmSpec &s1 = slms_[static_cast<std::size_t>(zone.slm_ids[1])];
        if (s0.rows != s1.rows || s0.cols != s1.cols)
            fatal("architecture: entanglement-zone SLM pair must have "
                  "identical dimensions");
        const bool first_is_left = s0.origin.x <= s1.origin.x;
        const int left_id = zone.slm_ids[first_is_left ? 0 : 1];
        const int right_id = zone.slm_ids[first_is_left ? 1 : 0];
        const SlmSpec &left = slms_[static_cast<std::size_t>(left_id)];
        zoneSiteBase_.push_back(static_cast<int>(sites_.size()));
        for (int r = 0; r < left.rows; ++r) {
            for (int c = 0; c < left.cols; ++c) {
                RydbergSite site;
                site.zone_index = static_cast<int>(zi);
                site.r = r;
                site.c = c;
                site.left = {left_id, r, c};
                site.right = {right_id, r, c};
                site.pos_left = trapPosition(site.left);
                site.pos_right = trapPosition(site.right);
                sites_.push_back(site);
            }
        }
    }
    buildTrapIndex();
    finalized_ = true;
}

void
Architecture::buildTrapIndex()
{
    // Per-zone site grids, for O(#zones) nearestSite queries.
    siteGrids_.clear();
    for (std::size_t zi = 0; zi < entangle_.size(); ++zi) {
        const ZoneSpec &zone = entangle_[zi];
        const SlmSpec &s0 = slms_[static_cast<std::size_t>(zone.slm_ids[0])];
        const SlmSpec &s1 = slms_[static_cast<std::size_t>(zone.slm_ids[1])];
        const SlmSpec &left = s0.origin.x <= s1.origin.x ? s0 : s1;
        siteGrids_.push_back({left.origin.x, left.origin.y, left.sep_x,
                              left.sep_y, left.rows, left.cols,
                              zoneSiteBase_[zi]});
    }

    // Dense trap ids over every SLM, in (slm, r, c) lexicographic order.
    slmTrapBase_.assign(slms_.size(), 0);
    numTraps_ = 0;
    for (std::size_t s = 0; s < slms_.size(); ++s) {
        slmTrapBase_[s] = numTraps_;
        numTraps_ += slms_[s].rows * slms_[s].cols;
    }
    trapRefs_.clear();
    trapPos_.clear();
    trapIsStorage_.clear();
    trapRefs_.reserve(static_cast<std::size_t>(numTraps_));
    trapPos_.reserve(static_cast<std::size_t>(numTraps_));
    trapIsStorage_.reserve(static_cast<std::size_t>(numTraps_));
    for (std::size_t s = 0; s < slms_.size(); ++s) {
        const SlmSpec &slm = slms_[s];
        const char storage = slmIsStorage_[s];
        for (int r = 0; r < slm.rows; ++r) {
            for (int c = 0; c < slm.cols; ++c) {
                const TrapRef t{static_cast<int>(s), r, c};
                trapRefs_.push_back(t);
                trapPos_.push_back(trapPosition(t));
                trapIsStorage_.push_back(storage);
            }
        }
    }

    nearestSiteOfTrap_.resize(static_cast<std::size_t>(numTraps_));
    for (int id = 0; id < numTraps_; ++id)
        nearestSiteOfTrap_[static_cast<std::size_t>(id)] =
            nearestSite(trapPos_[static_cast<std::size_t>(id)]);

    entZoneOfTrap_.resize(static_cast<std::size_t>(numTraps_));
    for (int id = 0; id < numTraps_; ++id)
        entZoneOfTrap_[static_cast<std::size_t>(id)] =
            entanglementZoneAt(trapPos_[static_cast<std::size_t>(id)]);

    // Storage-trap caches, in the storage-zone / SLM declaration order
    // the on-demand enumeration used to produce.
    storageSlmIds_.clear();
    for (const ZoneSpec &z : storage_)
        for (int slm_id : z.slm_ids)
            storageSlmIds_.push_back(slm_id);
    storageTraps_.clear();
    storageTrapIds_.clear();
    for (int slm_id : storageSlmIds_) {
        const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
        for (int r = 0; r < s.rows; ++r) {
            for (int c = 0; c < s.cols; ++c) {
                const TrapRef t{slm_id, r, c};
                storageTraps_.push_back(t);
                storageTrapIds_.push_back(trapId(t));
            }
        }
    }
}

TrapId
Architecture::trapId(TrapRef t) const
{
    if (t.slm < 0 || t.slm >= static_cast<int>(slms_.size()))
        panic("architecture: invalid SLM in trap reference");
    const SlmSpec &slm = slms_[static_cast<std::size_t>(t.slm)];
    if (t.r < 0 || t.r >= slm.rows || t.c < 0 || t.c >= slm.cols)
        panic("architecture: trap (" + std::to_string(t.r) + "," +
              std::to_string(t.c) + ") out of range for SLM " +
              std::to_string(t.slm));
    return slmTrapBase_[static_cast<std::size_t>(t.slm)] +
           t.r * slm.cols + t.c;
}

TrapId
Architecture::tryTrapId(TrapRef t) const
{
    if (t.slm < 0 || t.slm >= static_cast<int>(slms_.size()))
        return kInvalidTrapId;
    const SlmSpec &slm = slms_[static_cast<std::size_t>(t.slm)];
    if (t.r < 0 || t.r >= slm.rows || t.c < 0 || t.c >= slm.cols)
        return kInvalidTrapId;
    return slmTrapBase_[static_cast<std::size_t>(t.slm)] +
           t.r * slm.cols + t.c;
}

TrapRef
Architecture::trapRef(TrapId id) const
{
    if (id < 0 || id >= numTraps_)
        panic("architecture: trap id out of range");
    return trapRefs_[static_cast<std::size_t>(id)];
}

Point
Architecture::trapPosition(TrapId id) const
{
    if (id < 0 || id >= numTraps_)
        panic("architecture: trap id out of range");
    return trapPos_[static_cast<std::size_t>(id)];
}

bool
Architecture::isStorageTrap(TrapId id) const
{
    return id >= 0 && id < numTraps_ &&
           trapIsStorage_[static_cast<std::size_t>(id)] != 0;
}

int
Architecture::nearestSiteOfTrap(TrapId id) const
{
    if (id < 0 || id >= numTraps_)
        panic("architecture: trap id out of range");
    return nearestSiteOfTrap_[static_cast<std::size_t>(id)];
}

int
Architecture::entanglementZoneOfTrap(TrapId id) const
{
    if (id < 0 || id >= numTraps_)
        panic("architecture: trap id out of range");
    return entZoneOfTrap_[static_cast<std::size_t>(id)];
}

Point
Architecture::trapPosition(TrapRef t) const
{
    if (t.slm < 0 || t.slm >= static_cast<int>(slms_.size()))
        panic("architecture: invalid SLM in trap reference");
    const SlmSpec &slm = slms_[static_cast<std::size_t>(t.slm)];
    if (t.r < 0 || t.r >= slm.rows || t.c < 0 || t.c >= slm.cols)
        panic("architecture: trap (" + std::to_string(t.r) + "," +
              std::to_string(t.c) + ") out of range for SLM " +
              std::to_string(t.slm));
    return {slm.origin.x + t.c * slm.sep_x,
            slm.origin.y + t.r * slm.sep_y};
}

const RydbergSite &
Architecture::site(int id) const
{
    if (id < 0 || id >= numSites())
        panic("architecture: site id out of range");
    return sites_[static_cast<std::size_t>(id)];
}

int
Architecture::siteIndex(int zone_index, int r, int c) const
{
    if (zone_index < 0 ||
        zone_index >= static_cast<int>(entangle_.size()))
        panic("architecture: entanglement zone index out of range");
    const ZoneSpec &zone = entangle_[static_cast<std::size_t>(zone_index)];
    const SlmSpec &slm =
        slms_[static_cast<std::size_t>(zone.slm_ids[0])];
    if (r < 0 || r >= slm.rows || c < 0 || c >= slm.cols)
        return -1;
    return zoneSiteBase_[static_cast<std::size_t>(zone_index)] +
           r * slm.cols + c;
}

int
Architecture::nearestSite(Point p) const
{
    // Within one regular grid the nearest site's row (column) index is
    // the clamped floor or ceil of the fractional index, so at most four
    // candidates per zone need exact evaluation. Candidates are visited
    // in ascending site-id order with strict less-than, reproducing the
    // tie-breaking of a full ascending linear scan.
    int best = -1;
    double best_d = std::numeric_limits<double>::max();
    for (const SiteGrid &g : siteGrids_) {
        const double fx = (p.x - g.ox) / g.sx;
        const double fy = (p.y - g.oy) / g.sy;
        const int c0 = std::clamp(
            static_cast<int>(std::floor(fx)), 0, g.cols - 1);
        const int c1 = std::clamp(
            static_cast<int>(std::ceil(fx)), 0, g.cols - 1);
        const int r0 = std::clamp(
            static_cast<int>(std::floor(fy)), 0, g.rows - 1);
        const int r1 = std::clamp(
            static_cast<int>(std::ceil(fy)), 0, g.rows - 1);
        for (int r = r0; r <= r1; r += std::max(1, r1 - r0)) {
            for (int c = c0; c <= c1; c += std::max(1, c1 - c0)) {
                const int id = g.base + r * g.cols + c;
                const double d = distance(
                    p, sites_[static_cast<std::size_t>(id)].pos_left);
                if (d < best_d) {
                    best_d = d;
                    best = id;
                }
            }
        }
    }
    return best;
}

void
Architecture::sitesInDisk(Point center, double radius,
                          std::vector<int> &out) const
{
    if (radius < 0.0)
        return;
    for (const SiteGrid &g : siteGrids_) {
        const GridRange rows =
            gridRange(center.y - radius, center.y + radius, g.oy, g.sy,
                      g.rows);
        for (int r = rows.lo; r <= rows.hi; ++r) {
            const double dy = g.oy + r * g.sy - center.y;
            const double span2 = radius * radius - dy * dy;
            if (span2 < 0.0)
                continue;
            const double span = std::sqrt(span2);
            const GridRange cols = gridRange(
                center.x - span, center.x + span, g.ox, g.sx, g.cols);
            for (int c = cols.lo; c <= cols.hi; ++c)
                out.push_back(g.base + r * g.cols + c);
        }
    }
}

double
Architecture::maxSitePitch() const
{
    double pitch = 0.0;
    for (const SiteGrid &g : siteGrids_)
        pitch = std::max({pitch, g.sx, g.sy});
    return pitch;
}

int
Architecture::numStorageTraps() const
{
    // finalize() bounds the total trap count by TrapId's range.
    std::int64_t n = 0;
    for (const ZoneSpec &z : storage_)
        for (int slm_id : z.slm_ids) {
            const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
            n += std::int64_t{s.rows} * s.cols;
        }
    return static_cast<int>(n);
}

bool
Architecture::isStorageTrap(TrapRef t) const
{
    return t.valid() && t.slm < static_cast<int>(slmIsStorage_.size()) &&
           slmIsStorage_[static_cast<std::size_t>(t.slm)] != 0;
}

const std::vector<TrapRef> &
Architecture::allStorageTraps() const
{
    return storageTraps_;
}

const std::vector<TrapId> &
Architecture::storageTrapIds() const
{
    return storageTrapIds_;
}

TrapRef
Architecture::nearestStorageTrap(Point p) const
{
    TrapRef best;
    double best_d = std::numeric_limits<double>::max();
    for (int slm_id : storageSlmIds_) {
        const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
        const double fx = (p.x - s.origin.x) / s.sep_x;
        const double fy = (p.y - s.origin.y) / s.sep_y;
        const int c = std::clamp(
            static_cast<int>(std::lround(fx)), 0, s.cols - 1);
        const int r = std::clamp(
            static_cast<int>(std::lround(fy)), 0, s.rows - 1);
        const TrapRef t{slm_id, r, c};
        const double d = distance(p, trapPosition(t));
        if (d < best_d) {
            best_d = d;
            best = t;
        }
    }
    if (!best.valid())
        fatal("architecture: no storage traps defined");
    return best;
}

std::vector<TrapRef>
Architecture::storageNeighbors(TrapRef t, int k) const
{
    if (!isStorageTrap(t))
        panic("storageNeighbors: not a storage trap");
    const SlmSpec &s = slms_[static_cast<std::size_t>(t.slm)];
    std::vector<TrapRef> out;
    for (int d = 1; d <= k; ++d) {
        if (t.c - d >= 0)
            out.push_back({t.slm, t.r, t.c - d});
        if (t.c + d < s.cols)
            out.push_back({t.slm, t.r, t.c + d});
        if (t.r - d >= 0)
            out.push_back({t.slm, t.r - d, t.c});
        if (t.r + d < s.rows)
            out.push_back({t.slm, t.r + d, t.c});
    }
    return out;
}

std::vector<TrapRef>
Architecture::storageTrapsInBox(const std::vector<Point> &anchors) const
{
    std::vector<TrapRef> out;
    if (anchors.empty())
        return out;
    double min_x = anchors[0].x, max_x = anchors[0].x;
    double min_y = anchors[0].y, max_y = anchors[0].y;
    for (const Point &p : anchors) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    }
    for (int slm_id : storageSlmIds_) {
        const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
        const GridRange cols =
            gridRange(min_x, max_x, s.origin.x, s.sep_x, s.cols);
        const GridRange rows =
            gridRange(min_y, max_y, s.origin.y, s.sep_y, s.rows);
        for (int r = rows.lo; r <= rows.hi; ++r)
            for (int c = cols.lo; c <= cols.hi; ++c)
                out.push_back({slm_id, r, c});
    }
    return out;
}

void
Architecture::storageSpansInBox(Point lo, Point hi,
                                std::vector<StorageSpan> &out) const
{
    int row_base = 0;
    for (int slm_id : storageSlmIds_) {
        const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
        const GridRange cols =
            gridRange(lo.x, hi.x, s.origin.x, s.sep_x, s.cols);
        const GridRange rows =
            gridRange(lo.y, hi.y, s.origin.y, s.sep_y, s.rows);
        if (cols.lo <= cols.hi) {
            const TrapId base =
                slmTrapBase_[static_cast<std::size_t>(slm_id)];
            for (int r = rows.lo; r <= rows.hi; ++r)
                out.push_back({row_base + r, base + r * s.cols, s.cols,
                               cols.lo, cols.hi});
        }
        row_base += s.rows;
    }
}

int
Architecture::numStorageRows() const
{
    int rows = 0;
    for (int slm_id : storageSlmIds_)
        rows += slms_[static_cast<std::size_t>(slm_id)].rows;
    return rows;
}

void
Architecture::storageSpansInDisk(Point center, double radius,
                                 std::vector<StorageSpan> &out) const
{
    if (!(radius >= 0.0))
        return;
    int row_base = 0;
    for (int slm_id : storageSlmIds_) {
        const SlmSpec &s = slms_[static_cast<std::size_t>(slm_id)];
        const GridRange rows = gridRange(center.y - radius,
                                         center.y + radius, s.origin.y,
                                         s.sep_y, s.rows);
        const int mid = std::clamp(
            static_cast<int>(
                std::lround((center.x - s.origin.x) / s.sep_x)),
            0, s.cols - 1);
        // One row of slack each way: the predicate decides.
        for (int r = std::max(0, rows.lo - 1);
             r <= std::min(s.rows - 1, rows.hi + 1); ++r) {
            const TrapId first =
                slmTrapBase_[static_cast<std::size_t>(slm_id)] + r * s.cols;
            const Point *pos = &trapPos_[static_cast<std::size_t>(first)];
            auto inside = [&](int c) {
                return distance(pos[c], center) <= radius;
            };
            // A column of least distance is within one of `mid`; if
            // none of those is inside, the row misses the disk.
            int in = -1;
            for (int c : {mid, mid - 1, mid + 1})
                if (c >= 0 && c < s.cols && inside(c)) {
                    in = c;
                    break;
                }
            if (in < 0)
                continue;
            const double dy = pos[0].y - center.y;
            const double half =
                std::sqrt(std::max(0.0, radius * radius - dy * dy));
            const GridRange cols = gridRange(center.x - half,
                                             center.x + half, s.origin.x,
                                             s.sep_x, s.cols);
            int lo = std::clamp(cols.lo, 0, in);
            int hi = std::clamp(cols.hi, in, s.cols - 1);
            while (lo > 0 && inside(lo - 1))
                --lo;
            while (!inside(lo))
                ++lo;
            while (hi < s.cols - 1 && inside(hi + 1))
                ++hi;
            while (!inside(hi))
                --hi;
            out.push_back({row_base + r, first, s.cols, lo, hi});
        }
        row_base += s.rows;
    }
}

bool
Architecture::inEntanglementZone(Point p) const
{
    return entanglementZoneAt(p) >= 0;
}

int
Architecture::entanglementZoneAt(Point p) const
{
    for (std::size_t i = 0; i < entangle_.size(); ++i) {
        const ZoneSpec &z = entangle_[i];
        if (p.x >= z.offset.x - 1e-9 &&
            p.x <= z.offset.x + z.width + 1e-9 &&
            p.y >= z.offset.y - 1e-9 &&
            p.y <= z.offset.y + z.height + 1e-9)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace zac
