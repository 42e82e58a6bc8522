/**
 * @file
 * Mutable qubit-to-trap placement state used by the placement pipeline.
 */

#ifndef ZAC_CORE_PLACEMENT_STATE_HPP
#define ZAC_CORE_PLACEMENT_STATE_HPP

#include <cstdint>
#include <vector>

#include "arch/spec.hpp"

namespace zac
{

/**
 * Tracks which trap every qubit occupies, the reverse occupancy map,
 * and each qubit's "home" trap (its most recent storage location, used
 * as a guaranteed-feasible candidate in non-reuse qubit placement).
 */
class PlacementState
{
  public:
    PlacementState(const Architecture &arch, int num_qubits);

    int numQubits() const { return numQubits_; }

    /** Current trap of @p q. */
    TrapRef trapOf(int q) const;
    /** Dense id of @p q's trap (kInvalidTrapId when unplaced); O(1). */
    TrapId trapIdOf(int q) const
    {
        return trapId_[static_cast<std::size_t>(q)];
    }
    /** Current position of @p q in um. */
    Point posOf(int q) const;
    /** Occupant of @p t, or -1 when empty or out of range. */
    int occupant(TrapRef t) const;
    bool isEmpty(TrapRef t) const { return occupant(t) == -1; }
    /** Occupant of trap @p id, or -1 when empty (single array load). */
    int occupant(TrapId id) const
    {
        return occupantByTrap_[static_cast<std::size_t>(id)];
    }
    bool isEmpty(TrapId id) const { return occupant(id) == -1; }

    /** Last storage trap @p q occupied. */
    TrapRef homeOf(int q) const;

    /**
     * Move @p q to empty trap @p t (frees its old trap). Updates the
     * home trap when @p t is a storage trap.
     * @throws zac::PanicError if @p t is occupied.
     */
    void place(int q, TrapRef t);

    /**
     * Vacate @p q's trap without assigning a new one (used to apply a
     * permutation of qubits over traps: lift all, then place all).
     */
    void liftQubit(int q);

    /** Snapshot the full placement (for variant roll-back). */
    std::vector<TrapRef> snapshot() const { return trap_; }
    /** snapshot() into a reused buffer (no allocation). */
    void
    snapshotInto(std::vector<TrapRef> &out) const
    {
        out.assign(trap_.begin(), trap_.end());
    }
    /** Restore a snapshot taken from this state. */
    void restore(const std::vector<TrapRef> &snap);

    // ----- journaled apply/undo -----------------------------------------
    //
    // A cheaper alternative to snapshot()/restore() for speculative
    // variants (mirrors the SA placer's journaled best-state rewind):
    // between journalBegin() and journalUndo() every place()/liftQubit()
    // records its pre-state, and journalUndo() replays the records in
    // reverse. The rolled-back state is bit-identical to what
    // snapshot-before / restore-after would produce, including the home
    // traps: restore(snap) re-adopts snap[q] as home exactly when it is
    // a storage trap and otherwise keeps the mutated value, and
    // journalUndo() reproduces that rule.

    /** Start recording mutations. @throws zac::PanicError if active. */
    void journalBegin();
    /** Undo every mutation since journalBegin() and stop recording. */
    void journalUndo();
    /** Keep the mutations and stop recording. */
    void journalCommit();
    bool journaling() const { return journaling_; }

    const Architecture &arch() const { return *arch_; }

  private:
    /** One journaled mutation: qubit @c q previously sat at @c prev
     *  (invalid for a place() that followed a liftQubit()). */
    struct JournalEntry
    {
        int q;
        TrapRef prev;
    };

    const Architecture *arch_;
    int numQubits_;
    std::vector<TrapRef> trap_;
    /** Dense id of trap_[q], kept in lockstep (the occupancy updates
     *  compute it anyway; posOf() then reads the cached positions). */
    std::vector<TrapId> trapId_;
    std::vector<TrapRef> home_;
    /** TrapId -> occupying qubit, -1 when empty (flat, O(1) lookups). */
    std::vector<std::int32_t> occupantByTrap_;
    bool journaling_ = false;
    std::vector<JournalEntry> journal_;
};

} // namespace zac

#endif // ZAC_CORE_PLACEMENT_STATE_HPP
