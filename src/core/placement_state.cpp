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

TrapRef
PlacementState::homeOf(int q) const
{
    return home_[static_cast<std::size_t>(q)];
}

void
PlacementState::place(int q, TrapRef t)
{
    const int occ = occupant(t);
    if (occ != -1 && occ != q)
        panic("placement state: trap already occupied by qubit " +
              std::to_string(occ));
    const TrapRef old = trap_[static_cast<std::size_t>(q)];
    if (journaling_)
        journal_.push_back({q, old});
    if (old.valid())
        occupantByTrap_[static_cast<std::size_t>(
            trapId_[static_cast<std::size_t>(q)])] = -1;
    const TrapId id = arch_->trapId(t);
    trap_[static_cast<std::size_t>(q)] = t;
    trapId_[static_cast<std::size_t>(q)] = id;
    occupantByTrap_[static_cast<std::size_t>(id)] = q;
    if (arch_->isStorageTrap(id))
        home_[static_cast<std::size_t>(q)] = t;
}

void
PlacementState::liftQubit(int q)
{
    const TrapRef old = trap_[static_cast<std::size_t>(q)];
    if (!old.valid())
        panic("placement state: lift of unplaced qubit");
    if (journaling_)
        journal_.push_back({q, old});
    occupantByTrap_[static_cast<std::size_t>(
        trapId_[static_cast<std::size_t>(q)])] = -1;
    trap_[static_cast<std::size_t>(q)] = TrapRef{};
    trapId_[static_cast<std::size_t>(q)] = kInvalidTrapId;
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
PlacementState::journalUndo()
{
    if (!journaling_)
        panic("placement state: journalUndo without journalBegin");
    // Reverse replay: when an entry is undone the state equals the
    // post-state of its operation, so occupantByTrap_[trap_[q]] == q.
    for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
        const std::size_t q = static_cast<std::size_t>(it->q);
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
    // Home traps: restore(snap) sets home_[q] = snap[q] exactly for the
    // qubits whose snapshot trap is a storage trap (a qubit sitting at a
    // storage trap always has it as home, so untouched qubits need no
    // correction) and leaves every other home at its mutated value.
    for (const JournalEntry &e : journal_) {
        const TrapRef t = trap_[static_cast<std::size_t>(e.q)];
        if (t.valid() && arch_->isStorageTrap(t))
            home_[static_cast<std::size_t>(e.q)] = t;
    }
    journal_.clear();
    journaling_ = false;
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
