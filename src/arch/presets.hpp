/**
 * @file
 * Preset architectures used throughout the paper's evaluation.
 */

#ifndef ZAC_ARCH_PRESETS_HPP
#define ZAC_ARCH_PRESETS_HPP

#include "arch/spec.hpp"

namespace zac::presets
{

/**
 * The reference zoned architecture (paper Fig. 2 / Fig. 20): a 100x100
 * storage zone (3 um pitch), a 7x20-site entanglement zone above it
 * (site pitch 12 x 10 um, in-site gap 2 um), and @p num_aods 100x100
 * AODs. Used for Figs. 8-13 (num_aods = 1) and Fig. 14 (1-4).
 */
Architecture referenceZoned(int num_aods = 1);

/**
 * Largest AOD count the command line and manifests accept for
 * referenceZoned(); Fig. 14 sweeps 1-4.
 */
inline constexpr int kMaxReferenceAods = 16;

/**
 * The monolithic architecture (Sec. VII-A): a single entanglement zone
 * of 10x10 Rydberg sites and a 10x10 AOD; no storage zone shields idle
 * qubits, so every Rydberg pulse exposes every qubit.
 */
Architecture monolithic();

/**
 * Arch1 from Sec. VII-H: 3x40 storage traps with a single 6x10-site
 * entanglement zone above.
 */
Architecture multiZoneArch1();

/**
 * Arch2 from Sec. VII-H: the same storage, but two 3x10-site
 * entanglement zones, one below and one above the storage zone.
 */
Architecture multiZoneArch2();

/**
 * The logical-level architecture for FTQC compilation (Sec. VIII): each
 * [[8,3,2]] block (2x4 physical qubits) is one logical "qubit"; the
 * 7x20-site physical entanglement zone supports floor(7/2) x floor(20/4)
 * = 3x5 logical sites, and the storage pitch scales by the block
 * footprint.
 */
Architecture logicalBlockArch();

} // namespace zac::presets

#endif // ZAC_ARCH_PRESETS_HPP
