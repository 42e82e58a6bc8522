/**
 * @file
 * The zoned-architecture specification (paper Sec. III, Fig. 3).
 *
 * Entities: AOD arrays, SLM arrays, zones (storage / entanglement /
 * readout) and the architecture that aggregates them. The class also
 * derives the placement-facing geometry: Rydberg sites (trap pairs in
 * entanglement zones) and storage-trap queries.
 */

#ifndef ZAC_ARCH_SPEC_HPP
#define ZAC_ARCH_SPEC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace zac
{

/**
 * Dense linearization of every SLM trap of an architecture (storage and
 * entanglement alike): trap (slm, r, c) maps to
 * slmTrapBase[slm] + r * cols + c. Ids are assigned in SLM order, then
 * row-major, so TrapId order equals TrapRef (slm, r, c) lexicographic
 * order. Used to key flat arrays in the placement/scheduling hot paths.
 */
using TrapId = std::int32_t;

/** Sentinel for "no trap" in TrapId-keyed structures. */
inline constexpr TrapId kInvalidTrapId = -1;

/**
 * Architecture::sitesInDisk() appends every site at least this far
 * inside the disk's edge (um): far above rounding (~x * 1e-16 for
 * coordinates of magnitude x) for coordinates up to ~1e6 um.
 */
inline constexpr double kDiskEdgeTolUm = 1e-6;

/** An acousto-optic deflector array (<aodArray> in Fig. 3). */
struct AodSpec
{
    int id = 0;
    double min_sep = 2.0;   ///< min row/col separation at any time (um)
    int max_rows = 100;
    int max_cols = 100;
};

/** A spatial-light-modulator trap array (<slmArray> in Fig. 3). */
struct SlmSpec
{
    int id = 0;
    double sep_x = 3.0;     ///< x separation between columns (um)
    double sep_y = 3.0;     ///< y separation between rows (um)
    int rows = 0;
    int cols = 0;
    Point origin;           ///< position of the bottom-left trap
};

/** Kind of a zone. */
enum class ZoneKind { Storage, Entanglement, Readout };

/** A physical region with its SLM arrays (<zone> in Fig. 3). */
struct ZoneSpec
{
    int id = 0;
    Point offset;           ///< bottom-left corner
    double width = 0.0;
    double height = 0.0;
    std::vector<int> slm_ids;   ///< indices into Architecture::slms()
};

/**
 * Neutral-atom hardware parameters (Table I plus the operation durations
 * carried in the artifact's architecture JSON, Fig. 20).
 */
struct NaHardwareParams
{
    double t_rydberg_us = 0.36;   ///< CZ (Rydberg pulse) duration
    double t_1q_us = 52.0;        ///< 1Q gate duration (conservative)
    double t_transfer_us = 15.0;  ///< atom transfer (pickup or drop)
    double f_2q = 0.995;          ///< CZ fidelity
    double f_1q = 0.9997;         ///< 1Q gate fidelity
    double f_transfer = 0.999;    ///< per atom transfer
    double f_exc = 0.9975;        ///< idle qubit excited by Rydberg laser
    double t2_us = 1.5e6;         ///< coherence time (1.5 s)
};

/** Reference to one trap of one SLM array. */
struct TrapRef
{
    int slm = -1;
    int r = 0;
    int c = 0;

    bool valid() const { return slm >= 0; }
    friend bool operator==(const TrapRef &a, const TrapRef &b)
    {
        return a.slm == b.slm && a.r == b.r && a.c == b.c;
    }
    friend auto operator<=>(const TrapRef &, const TrapRef &) = default;
};

/**
 * Columns lo..hi of one storage row, the traps first + lo .. first + hi.
 * Storage rows are numbered 0 .. Architecture::numStorageRows() - 1
 * over the storage SLMs in zone order, bottom row first.
 */
struct StorageSpan
{
    int row = 0;
    TrapId first = 0; ///< id of the row's column 0
    int cols = 0;     ///< the row's length
    int lo = 0;
    int hi = 0;
};

/**
 * A Rydberg site: the pair of traps in an entanglement zone where a CZ
 * is performed (paper Fig. 2b). The left trap is the site's reference
 * location for distance computations.
 */
struct RydbergSite
{
    int zone_index = 0;     ///< index into entanglementZones()
    int r = 0;
    int c = 0;
    TrapRef left;
    TrapRef right;
    Point pos_left;
    Point pos_right;
};

/**
 * A complete zoned architecture (<architecture> in Fig. 3) with derived
 * geometry. Build via the add* methods (or a preset / the JSON loader)
 * and call finalize() before use.
 */
class Architecture
{
  public:
    Architecture() = default;
    explicit Architecture(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    NaHardwareParams &params() { return params_; }
    const NaHardwareParams &params() const { return params_; }

    /** @return the index of the added SLM within slms(). */
    int addSlm(const SlmSpec &slm);
    int addAod(const AodSpec &aod);
    void addZone(ZoneKind kind, const ZoneSpec &zone);

    /** Derive Rydberg sites and validate; must be called before use. */
    void finalize();
    bool finalized() const { return finalized_; }

    const std::vector<SlmSpec> &slms() const { return slms_; }
    const std::vector<AodSpec> &aods() const { return aods_; }
    const std::vector<ZoneSpec> &storageZones() const { return storage_; }
    const std::vector<ZoneSpec> &entanglementZones() const
    {
        return entangle_;
    }
    const std::vector<ZoneSpec> &readoutZones() const { return readout_; }

    /** Physical position of a trap. */
    Point trapPosition(TrapRef t) const;

    // ----- flat trap ids ----------------------------------------------
    /** Total number of traps across every SLM (storage + entanglement). */
    int numTraps() const { return numTraps_; }
    /** Dense id of @p t; O(1). @throws zac::PanicError out of range. */
    TrapId trapId(TrapRef t) const;
    /** Dense id of @p t, or kInvalidTrapId when out of range; O(1). */
    TrapId tryTrapId(TrapRef t) const;
    /** Inverse of trapId(); O(1). */
    TrapRef trapRef(TrapId id) const;
    /** Cached physical position of trap @p id; O(1). */
    Point trapPosition(TrapId id) const;
    /** @return true if trap @p id lies in a storage-zone SLM; O(1). */
    bool isStorageTrap(TrapId id) const;
    /**
     * The Rydberg site nearest to trap @p id (by left-trap reference
     * position), precomputed at finalize(); O(1). This is the table the
     * SA placement hot loop reads for every gate-cost probe.
     */
    int nearestSiteOfTrap(TrapId id) const;
    /**
     * Index of the entanglement zone containing trap @p id, or -1 for
     * traps outside every entanglement zone; precomputed at finalize()
     * so the fidelity excitation accounting never resolves positions.
     * Equals entanglementZoneAt(trapPosition(id)); O(1).
     */
    int entanglementZoneOfTrap(TrapId id) const;

    // ----- Rydberg sites ----------------------------------------------
    int numSites() const { return static_cast<int>(sites_.size()); }
    const RydbergSite &site(int id) const;
    const std::vector<RydbergSite> &sites() const { return sites_; }
    /** Global site id from (entanglement zone index, row, col). */
    int siteIndex(int zone_index, int r, int c) const;
    /** Site reference position (left trap). */
    Point sitePosition(int id) const { return site(id).pos_left; }
    /**
     * The site whose reference position is nearest to @p p. Evaluated
     * against the per-zone regular grids (O(#zones), not O(#sites));
     * ties resolve to the lowest site id, exactly as a full ascending
     * linear scan with strict less-than would.
     */
    int nearestSite(Point p) const;
    /**
     * Append every site whose reference position lies within Euclidean
     * distance @p radius of @p center, walking the per-zone site grids
     * row by row instead of scanning all sites. Rounding decides sites
     * within a few ulps of the edge either way; every site whose
     * distance() is at most radius - kDiskEdgeTolUm is appended. Ids
     * are appended in ascending order within each zone; the output is
     * globally ascending because zones are visited in id order. This
     * is the candidate-window iterator of gate placement (paper
     * Sec. V-B2's Omega_cand).
     */
    void sitesInDisk(Point center, double radius,
                     std::vector<int> &out) const;
    /** The maximum site pitch (x or y) over all entanglement zones. */
    double maxSitePitch() const;

    // ----- storage traps ----------------------------------------------
    /** Total number of storage traps across all storage zones. */
    int numStorageTraps() const;
    /** @return true if @p t lies in a storage-zone SLM. */
    bool isStorageTrap(TrapRef t) const;
    /** Every storage trap (row-major per SLM), cached at finalize(). */
    const std::vector<TrapRef> &allStorageTraps() const;
    /** Dense ids of allStorageTraps(), in the same order. */
    const std::vector<TrapId> &storageTrapIds() const;
    /** The storage trap nearest to @p p. */
    TrapRef nearestStorageTrap(Point p) const;
    /**
     * The up-to-4k traps reached from @p t by moving up to @p k steps
     * along its row or column (paper Sec. V-B3).
     */
    std::vector<TrapRef> storageNeighbors(TrapRef t, int k) const;
    /**
     * All storage traps inside the axis-aligned bounding box of
     * @p anchors (inclusive), used for candidate-trap generation.
     */
    std::vector<TrapRef> storageTrapsInBox(
        const std::vector<Point> &anchors) const;
    /**
     * Append, per storage row, the span of columns inside the box
     * [lo, hi] (inclusive up to a small epsilon), in ascending row
     * order. Expanded to trap ids, the spans list storageTrapsInBox()'s
     * traps in its order: storage SLMs in zone order, row-major.
     */
    void storageSpansInBox(Point lo, Point hi,
                           std::vector<StorageSpan> &out) const;
    /** Rows over all storage SLMs (see StorageSpan). */
    int numStorageRows() const;
    /**
     * Append, per storage row, the span of columns whose traps t
     * satisfy distance(trapPosition(t), center) <= radius exactly.
     * Along a row distance() falls and then rises with the column, in
     * floating point too, so those traps are one span; its ends are
     * estimated from the chord and then fixed by that predicate. Rows
     * the disk misses are skipped; spans come in ascending row order.
     */
    void storageSpansInDisk(Point center, double radius,
                            std::vector<StorageSpan> &out) const;

    /** @return true if @p p lies within any entanglement zone bounds. */
    bool inEntanglementZone(Point p) const;
    /** Index of the entanglement zone containing @p p, or -1. */
    int entanglementZoneAt(Point p) const;

  private:
    void validateZone(const ZoneSpec &zone, ZoneKind kind) const;
    void buildTrapIndex();

    std::string name_ = "unnamed";
    NaHardwareParams params_;
    std::vector<SlmSpec> slms_;
    std::vector<AodSpec> aods_;
    std::vector<ZoneSpec> storage_;
    std::vector<ZoneSpec> entangle_;
    std::vector<ZoneSpec> readout_;

    bool finalized_ = false;
    std::vector<RydbergSite> sites_;
    /** sites_ base offset per entanglement zone. */
    std::vector<int> zoneSiteBase_;
    std::vector<char> slmIsStorage_;

    // ----- spatial index (built by finalize) --------------------------
    /** Regular grid of one entanglement zone's site reference positions. */
    struct SiteGrid
    {
        double ox, oy;      ///< left-trap origin
        double sx, sy;      ///< site pitch
        int rows, cols;
        int base;           ///< first site id of the zone
    };

    int numTraps_ = 0;
    std::vector<int> slmTrapBase_;          ///< per SLM, first TrapId
    std::vector<TrapRef> trapRefs_;         ///< TrapId -> TrapRef
    std::vector<Point> trapPos_;            ///< TrapId -> position
    std::vector<char> trapIsStorage_;       ///< TrapId -> storage flag
    std::vector<int> nearestSiteOfTrap_;    ///< TrapId -> site id
    std::vector<int> entZoneOfTrap_;        ///< TrapId -> ent zone / -1
    std::vector<SiteGrid> siteGrids_;       ///< per entanglement zone
    std::vector<int> storageSlmIds_;        ///< storage SLMs, zone order
    std::vector<TrapRef> storageTraps_;     ///< cached allStorageTraps()
    std::vector<TrapId> storageTrapIds_;    ///< same order as above
};

} // namespace zac

#endif // ZAC_ARCH_SPEC_HPP
