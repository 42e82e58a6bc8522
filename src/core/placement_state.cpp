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
    if (journaling_) {
        const auto qi = static_cast<std::size_t>(q);
        journal_.push_back({q, trap_[qi], home_[qi]});
    }
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
        journal_.push_back({q, old, home_[static_cast<std::size_t>(q)]});
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
PlacementState::undoJournal()
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
        home_[q] = it->prev_home;
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
            ends->push_back({e.q, trapId_[q], home_[q]});
        }
    }
    undoJournal();
    return endJournal();
}

std::size_t
PlacementState::journalUndoAndReplay(const std::vector<QubitTrap> &ends)
{
    undoJournal();
    // The state now equals the one ends were captured from before their
    // variant ran, and in that variant's end state the replayed qubits
    // hold their traps and homes while every other qubit holds its trap
    // and home of now: once they are lifted, their traps are free. A
    // qubit listed twice is placed twice alike.
    for (const QubitTrap &e : ends)
        vacate(e.q);
    for (const QubitTrap &e : ends) {
        if (e.trap != kInvalidTrapId) {
            const int occ =
                occupantByTrap_[static_cast<std::size_t>(e.trap)];
            if (occ != -1 && occ != e.q)
                panic("placement state: replayed trap already occupied");
            occupy(e.q, arch_->trapRef(e.trap), e.trap);
        }
        home_[static_cast<std::size_t>(e.q)] = e.home;
    }
    return endJournal() + ends.size();
}

void
PlacementState::journalCommit()
{
    if (!journaling_)
        panic("placement state: journalCommit without journalBegin");
    endJournal();
}

} // namespace zac
