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

/** A qubit and the trap and home it ends with in a journaled variant. */
struct QubitTrap
{
    int q = -1;
    TrapId trap = kInvalidTrapId; ///< kInvalidTrapId: it ends lifted
    TrapRef home;
};

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
    /** Append the empty traps of span @p s, in ascending id. */
    void appendEmptyTraps(const StorageSpan &s,
                          std::vector<TrapId> &out) const;

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

    // ----- journaled apply/undo -----------------------------------------
    //
    // runDynamicPlacement() builds two variants per stage boundary and
    // keeps one, in O(qubits moved) instead of O(qubits) (mirrors the
    // SA placer's journaled best-state rewind). Between journalBegin()
    // and the call that ends the journal, every place()/liftQubit()
    // records the qubit's trap and home before it. Homes are journaled
    // with the traps, so every way of ending the journal leaves an
    // exact state:
    //  - journalUndo() the state at journalBegin();
    //  - journalUndoAndReplay(ends), with `ends` captured by journalUndo()
    //    of an earlier variant A that started from the same state, the
    //    state A ended in;
    //  - journalCommit() the state as it is.

    /** Start recording mutations. @throws zac::PanicError if active. */
    void journalBegin();
    /**
     * Undo every mutation since journalBegin() and stop recording.
     * With @p ends, first record the trap and home each journaled qubit
     * ends with, for journalUndoAndReplay(): one entry per journal
     * entry, so a qubit moved twice is listed twice alike.
     * @return the qubit slots written: one per journal entry.
     */
    std::size_t journalUndo(std::vector<QubitTrap> *ends = nullptr);
    /**
     * Undo every mutation since journalBegin(), stop recording, and
     * re-apply an undone variant's @p ends: lift every qubit in @p ends,
     * then place each at its trap with its home.
     * @return the qubit slots written: one per journal entry and one
     *         per entry of @p ends.
     */
    std::size_t journalUndoAndReplay(const std::vector<QubitTrap> &ends);
    /** Keep the mutations and stop recording. */
    void journalCommit();
    bool journaling() const { return journaling_; }

    const Architecture &arch() const { return *arch_; }

  private:
    /** One journaled mutation: qubit @c q previously sat at @c prev
     *  (invalid for a place() that followed a liftQubit()) with home
     *  @c prev_home. */
    struct JournalEntry
    {
        int q;
        TrapRef prev;
        TrapRef prev_home;
    };

    /** Set @p q's trap to @p t, whose id is @p id, and occupy it (q's
     *  old trap is vacated already). */
    void occupy(int q, TrapRef t, TrapId id);
    /** Vacate @p q's trap, if any (no journal entry). */
    void vacate(int q);
    /** Reverse-replay the journal: every journaled qubit gets its trap
     *  and home from before journalBegin(). */
    void undoJournal();
    /** Stop recording. @return the journal entries dropped. */
    std::size_t endJournal();

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
