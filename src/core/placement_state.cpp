#include "core/placement_state.hpp"

#include "common/logging.hpp"

namespace zac
{

PlacementState::PlacementState(const Architecture &arch, int num_qubits)
    : arch_(&arch), numQubits_(num_qubits),
      trap_(static_cast<std::size_t>(num_qubits)),
      trapId_(static_cast<std::size_t>(num_qubits), kInvalidTrapId),
      home_(static_cast<std::size_t>(num_qubits)),
      occupantByTrap_(static_cast<std::size_t>(arch.numTraps()), -1)
{
    if (!arch.finalized())
        panic("placement state: architecture not finalized");
}

TrapRef
PlacementState::trapOf(int q) const
{
    return trap_[static_cast<std::size_t>(q)];
}

Point
PlacementState::posOf(int q) const
{
    const TrapId id = trapId_[static_cast<std::size_t>(q)];
    if (id == kInvalidTrapId)
        panic("placement state: qubit " + std::to_string(q) +
              " is unplaced");
    return arch_->trapPosition(id);
}

int
PlacementState::occupant(TrapRef t) const
{
    const TrapId id = arch_->tryTrapId(t);
    return id == kInvalidTrapId
               ? -1
               : occupantByTrap_[static_cast<std::size_t>(id)];
}

void
PlacementState::appendEmptyTraps(const StorageSpan &s,
                                 std::vector<TrapId> &out) const
{
    const std::int32_t *occ = occupantByTrap_.data();
    for (TrapId t = s.first + s.lo; t <= s.first + s.hi; ++t)
        if (occ[t] == -1)
            out.push_back(t);
}

TrapRef
PlacementState::homeOf(int q) const
{
    return home_[static_cast<std::size_t>(q)];
}

void
PlacementState::occupy(int q, TrapRef t, TrapId id)
{
    const auto qi = static_cast<std::size_t>(q);
    trap_[qi] = t;
    trapId_[qi] = id;
    occupantByTrap_[static_cast<std::size_t>(id)] = q;
    if (arch_->isStorageTrap(id))
        home_[qi] = t;
}

void
PlacementState::vacate(int q)
{
    const auto qi = static_cast<std::size_t>(q);
    if (!trap_[qi].valid())
        return;
    occupantByTrap_[static_cast<std::size_t>(trapId_[qi])] = -1;
    trap_[qi] = TrapRef{};
    trapId_[qi] = kInvalidTrapId;
}

void
PlacementState::place(int q, TrapRef t)
{
    const int occ = occupant(t);
    if (occ != -1 && occ != q)
        panic("placement state: trap already occupied by qubit " +
              std::to_string(occ));
    if (journaling_)
        journal_.push_back({q, trap_[static_cast<std::size_t>(q)]});
    vacate(q);
    occupy(q, t, arch_->trapId(t));
}

void
PlacementState::liftQubit(int q)
{
    const TrapRef old = trap_[static_cast<std::size_t>(q)];
    if (!old.valid())
        panic("placement state: lift of unplaced qubit");
    if (journaling_)
        journal_.push_back({q, old});
    vacate(q);
}

void
PlacementState::journalBegin()
{
    if (journaling_)
        panic("placement state: journalBegin while journaling");
    journaling_ = true;
    journal_.clear();
}

void
PlacementState::undoTraps()
{
    if (!journaling_)
        panic("placement state: journal undo without journalBegin");
    // Reverse replay: when an entry is undone the state equals the
    // post-state of its operation, so occupantByTrap_[trap_[q]] == q.
    for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
        const auto q = static_cast<std::size_t>(it->q);
        if (trap_[q].valid())
            occupantByTrap_[static_cast<std::size_t>(trapId_[q])] = -1;
        trap_[q] = it->prev;
        if (it->prev.valid()) {
            const TrapId id = arch_->trapId(it->prev);
            trapId_[q] = id;
            occupantByTrap_[static_cast<std::size_t>(id)] = it->q;
        } else {
            trapId_[q] = kInvalidTrapId;
        }
    }
}

std::size_t
PlacementState::endJournal()
{
    // restore(snap) sets home_[q] = snap[q] exactly for the qubits whose
    // snapshot trap is a storage trap and keeps every other home. A
    // qubit sitting at a storage trap always has it as home, so only
    // the journaled qubits need the rule.
    for (const JournalEntry &e : journal_) {
        const auto q = static_cast<std::size_t>(e.q);
        if (trap_[q].valid() && arch_->isStorageTrap(trapId_[q]))
            home_[q] = trap_[q];
    }
    const std::size_t written = journal_.size();
    journal_.clear();
    journaling_ = false;
    return written;
}

std::size_t
PlacementState::journalUndo(std::vector<QubitTrap> *ends)
{
    if (ends != nullptr) {
        ends->clear();
        for (const JournalEntry &e : journal_) {
            const auto q = static_cast<std::size_t>(e.q);
            ends->push_back({e.q, trapId_[q]});
        }
    }
    undoTraps();
    return endJournal();
}

std::size_t
PlacementState::journalUndoAndReplay(const std::vector<QubitTrap> &ends)
{
    undoTraps();
    // The state now equals the one ends were captured from before their
    // variant ran, and in that variant's end state the replayed qubits
    // hold their traps while every other qubit holds its trap of now:
    // once they are lifted, their traps are free. A qubit listed twice
    // is placed twice at its one trap.
    for (const QubitTrap &e : ends)
        vacate(e.q);
    for (const QubitTrap &e : ends) {
        if (e.trap == kInvalidTrapId)
            continue;
        const int occ = occupantByTrap_[static_cast<std::size_t>(e.trap)];
        if (occ != -1 && occ != e.q)
            panic("placement state: replayed trap already occupied");
        occupy(e.q, arch_->trapRef(e.trap), e.trap);
    }
    return endJournal() + ends.size();
}

void
PlacementState::journalCommit()
{
    if (!journaling_)
        panic("placement state: journalCommit without journalBegin");
    journal_.clear();
    journaling_ = false;
}

void
PlacementState::restore(const std::vector<TrapRef> &snap)
{
    if (snap.size() != trap_.size())
        panic("placement state: snapshot size mismatch");
    // Vacate the currently occupied traps (O(#qubits), not O(#traps)).
    for (std::size_t q = 0; q < trap_.size(); ++q)
        if (trap_[q].valid())
            occupantByTrap_[static_cast<std::size_t>(trapId_[q])] = -1;
    for (std::size_t q = 0; q < snap.size(); ++q) {
        trap_[q] = snap[q];
        if (snap[q].valid()) {
            const TrapId id = arch_->trapId(snap[q]);
            trapId_[q] = id;
            occupantByTrap_[static_cast<std::size_t>(id)] =
                static_cast<int>(q);
            if (arch_->isStorageTrap(id))
                home_[q] = snap[q];
        } else {
            trapId_[q] = kInvalidTrapId;
        }
    }
}

} // namespace zac
