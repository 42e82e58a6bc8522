/**
 * @file
 * Hand-built architectures for tests, covering layouts no preset has.
 */

#ifndef ZAC_TESTS_TEST_ARCHS_HPP
#define ZAC_TESTS_TEST_ARCHS_HPP

#include "arch/spec.hpp"

namespace zac::test_archs
{

/**
 * One storage zone with two SLMs of different pitch: a coarse
 * 4.5 x 3.5 um grid (6 x 20, SLM 0) 10 um below the entanglement zone
 * and a 3 um grid (12 x 30, SLM 1) below it, offset by half a coarse
 * column. The zone lists them against their id order, so storage-zone
 * order and TrapId order disagree. 3 x 6 Rydberg sites, one AOD.
 */
inline Architecture
twoPitchStorage()
{
    Architecture arch("two_pitch_storage");
    SlmSpec coarse;
    coarse.id = 0;
    coarse.sep_x = 4.5;
    coarse.sep_y = 3.5;
    coarse.rows = 6;
    coarse.cols = 20;
    coarse.origin = {1.5, 40.0};
    SlmSpec fine;
    fine.id = 1;
    fine.sep_x = 3.0;
    fine.sep_y = 3.0;
    fine.rows = 12;
    fine.cols = 30;
    fine.origin = {0.0, 0.0};
    const int coarse_idx = arch.addSlm(coarse);
    const int fine_idx = arch.addSlm(fine);
    ZoneSpec storage;
    storage.id = 0;
    storage.offset = {0.0, 0.0};
    storage.width = 87.0;
    storage.height = 57.5;
    storage.slm_ids = {fine_idx, coarse_idx};
    arch.addZone(ZoneKind::Storage, storage);

    SlmSpec left;
    left.id = 2;
    left.sep_x = 12.0;
    left.sep_y = 10.0;
    left.rows = 3;
    left.cols = 6;
    left.origin = {10.0, 67.5};
    SlmSpec right = left;
    right.id = 3;
    right.origin.x += 2.0;
    const int left_idx = arch.addSlm(left);
    const int right_idx = arch.addSlm(right);
    ZoneSpec zone;
    zone.id = 0;
    zone.offset = left.origin;
    zone.width = 5 * 12.0 + 2.0;
    zone.height = 2 * 10.0;
    zone.slm_ids = {left_idx, right_idx};
    arch.addZone(ZoneKind::Entanglement, zone);

    AodSpec aod;
    aod.id = 0;
    arch.addAod(aod);
    arch.finalize();
    return arch;
}

} // namespace zac::test_archs

#endif // ZAC_TESTS_TEST_ARCHS_HPP
