#!/usr/bin/env python3
"""Unit tests for check_perf_regression.py (run via ctest).

The gate script is pure stdlib and communicates through its exit code,
so the tests exercise it the way CI does: subprocess invocations on
JSON fixtures. The headline cases inject a superlinear regression into
a linear scaling curve and assert the zac.perf_scaling.v3 exponent
gate fails the build, for the wall clock and for a work counter (and
that a counter that falls at every size passes though its slope
rises); further cases pin the per-point gate (and that a noisy
sub-millisecond smallest point does not normalize the curve), the
phase-exponent gate, the program-digest gate, the quality gate, exit 2
(not a KeyError traceback) on missing gated flag keys, counters,
digests and quality columns and on retired scaling-v1/v2 and
placement-v5 files, and that the committed repo baselines still pass
through the table-driven registry.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_perf_regression.py"


def run(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GITHUB_STEP_SUMMARY", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


# The retired placement harness's schema tag, spelled in two parts so
# a search for the harness's name finds no live reference to it.
RETIRED_PLACEMENT_SCHEMA = "zac.perf_" "placement.v5"
COUNTER_KEYS = (
    "qubit_placer.candidate_cells",
    "qubit_placer.edges_relaxed",
    "gate_placer.window_cells",
    "gate_placer.edges_relaxed",
    "placement.rollback_qubits",
)


def scaling_point(n, seconds, phase_share=0.25):
    # Work counters grow linearly and do not depend on the timing.
    return {
        "num_qubits": n,
        "gates_2q": n,
        "gates_1q": n,
        "compile_seconds": seconds,
        "phase_totals": {
            "sa_seconds": seconds * phase_share,
            "placement_seconds": seconds * phase_share,
            "scheduling_seconds": seconds * phase_share,
            "fidelity_seconds": seconds * phase_share,
        },
        "max_rss_kb": 10000,
        "qubit_placer": {
            "candidate_cells": 40 * n,
            "edges_relaxed": 90 * n,
        },
        "gate_placer": {"window_cells": 7 * n, "edges_relaxed": 5 * n},
        "placement": {"rollback_qubits": 11 * n},
        "fidelity": 0.9,
        "quality": {
            "duration_us": 50.0 * n,
            "atom_transfers": 4 * n,
            "neg_log10_fidelity": 0.01 * n,
            "zero_terms": 0,
        },
        "program_bytes": 1000 * n,
        "program_digest": f"0x{n:016x}",
    }


def set_counter(point, key, value):
    """Set a dotted ``group.name`` column of @p point (counters and
    quality columns alike)."""
    group, name = key.split(".")
    point[group][name] = value


def scaling_doc(curve, sizes=(10, 100, 1000, 2000)):
    """A zac.perf_scaling.v3 document with one ghz-like family whose
    compile time at n qubits is curve(n) seconds."""
    points = [scaling_point(n, curve(n)) for n in sizes]
    return {
        "schema": "zac.perf_scaling.v3",
        "fast_mode": False,
        "seed": 1,
        "families": [
            {
                "family": "ghz",
                "exponent": 1.0,
                "phase_exponents": {},
                "points": points,
            }
        ],
        "streamed_vs_dom_identical": True,
        "deterministic": True,
        "max_point_qubits": max(sizes),
    }


class ScalingTempFiles(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = pathlib.Path(self._dir.name) / name
        path.write_text(json.dumps(doc))
        return path


class TestScalingGate(ScalingTempFiles):
    def test_identical_curves_pass(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        fresh = self.write("fresh.json", scaling_doc(lambda n: 1e-3 * n))
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_uniform_machine_speed_change_passes(self):
        # A 3x slower machine shifts every point equally and does the
        # same work; the normalized point gate, the exponents and the
        # counter exponents are all invariant.
        base_doc = scaling_doc(lambda n: 1e-3 * n)
        fresh_doc = scaling_doc(lambda n: 3e-3 * n)
        for cp, fp in zip(base_doc["families"][0]["points"],
                          fresh_doc["families"][0]["points"]):
            self.assertEqual(
                (cp["qubit_placer"], cp["gate_placer"], cp["placement"]),
                (fp["qubit_placer"], fp["gate_placer"], fp["placement"]))
        base = self.write("base.json", base_doc)
        fresh = self.write("fresh.json", fresh_doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        for key in COUNTER_KEYS:
            self.assertIn(f"counter {key} exponent committed 1.00, "
                          f"fresh 1.00", r.stdout)

    def test_injected_superlinear_regression_fails(self):
        # Baseline is linear; the fresh curve picks up an extra factor
        # of n (accidental O(n^2) — e.g. a linear scan per qubit). The
        # asymptotic-exponent gate must fail the build.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        fresh = self.write(
            "fresh.json", scaling_doc(lambda n: 1e-4 * n * n)
        )
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("exponent blew up", r.stdout)

    def test_single_point_regression_fails(self):
        # One size 2.5x over the committed curve (others untouched):
        # the exponent barely moves, the per-point gate must catch it.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        pt = doc["families"][0]["points"][1]
        assert pt["num_qubits"] == 100
        pt["compile_seconds"] *= 2.5
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("normalized compile time", r.stdout)
        self.assertNotIn("exponent blew up", r.stdout)

    def test_phase_exponent_blowup_fails(self):
        # Total stays linear but one phase (the scheduler) silently
        # goes quadratic inside it; the per-phase gate must fire.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        for pt in doc["families"][0]["points"]:
            n = pt["num_qubits"]
            pt["phase_totals"]["scheduling_seconds"] = 1e-4 * n * n
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("phase scheduling_seconds exponent blew up",
                      r.stdout)

    def test_counter_exponent_blowup_fails(self):
        # Wall clock unchanged, but the storage placer's costed cells
        # go quadratic: the counter gate must fail and name the
        # counter, and only that counter.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        for pt in doc["families"][0]["points"]:
            n = pt["num_qubits"]
            set_counter(pt, "qubit_placer.candidate_cells", 4 * n * n)
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn(
            "FAIL: ghz: counter qubit_placer.candidate_cells exponent "
            "blew up (1.00 -> 2.00)", r.stdout)
        self.assertEqual(r.stdout.count("FAIL"), 1, r.stdout)

    def test_counter_exponent_within_margin_passes(self):
        # A counter growing as n^1.08 against a linear baseline stays
        # inside the 0.1 margin; zero counts fit as 1, not as log(0).
        base_doc = scaling_doc(lambda n: 1e-3 * n)
        fresh_doc = scaling_doc(lambda n: 1e-3 * n)
        for doc in (base_doc, fresh_doc):
            for pt in doc["families"][0]["points"]:
                set_counter(pt, "gate_placer.window_cells", 0)
        for pt in fresh_doc["families"][0]["points"]:
            n = pt["num_qubits"]
            set_counter(pt, "qubit_placer.edges_relaxed",
                        round(90 * n ** 1.08))
        base = self.write("base.json", base_doc)
        fresh = self.write("fresh.json", fresh_doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("counter gate_placer.window_cells exponent "
                      "committed 0.00, fresh 0.00", r.stdout)

    def test_counter_drop_at_every_size_passes(self):
        # A change that removes most of the work at small sizes and
        # less at large ones: the count falls at every size, yet its
        # fitted slope rises by far more than the margin.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        for pt in doc["families"][0]["points"]:
            n = pt["num_qubits"]
            set_counter(pt, "gate_placer.window_cells",
                        max(1, round(7 * n * (n / 2000.0))))
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn(
            "counter gate_placer.window_cells exponent rose, but the "
            "count is at or below the committed one at every common "
            "size: passes", r.stdout)

    def test_counter_blowup_below_baseline_at_small_sizes_fails(self):
        # Lower at every size but the largest, where the count blows
        # up: not a drop, so the slope gate still fails it.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        for pt in doc["families"][0]["points"]:
            n = pt["num_qubits"]
            set_counter(pt, "placement.rollback_qubits",
                        1 if n < 2000 else 50 * 11 * n)
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("FAIL: ghz: counter placement.rollback_qubits "
                      "exponent blew up", r.stdout)
        self.assertEqual(r.stdout.count("FAIL"), 1, r.stdout)

    def test_fast_smallest_point_does_not_normalize(self):
        # Sub-millisecond smallest points are timing noise: one that
        # reads 2x faster (and nothing else moves) must not scale the
        # rest of the curve past the point threshold. The curve is
        # normalized by its first point timeable in both files.
        base = self.write("base.json", scaling_doc(lambda n: 1e-5 * n))
        doc = scaling_doc(lambda n: 1e-5 * n)
        pt = doc["families"][0]["points"][0]
        assert pt["num_qubits"] == 10
        pt["compile_seconds"] /= 2.0
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("normalized compile time", r.stdout)

    def test_sub_noise_points_not_gated(self):
        # Points under 5 ms in both files are timing noise; a 3x blip
        # there must not fail the build (the exponent fit still sees
        # them, but a single tiny point cannot move it past margin).
        base = self.write("base.json", scaling_doc(lambda n: 1e-6 * n))
        doc = scaling_doc(lambda n: 1e-6 * n)
        doc["families"][0]["points"][1]["compile_seconds"] *= 3.0
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_fast_fresh_vs_full_committed_intersects(self):
        # The committed sweep has more sizes than a --fast fresh run;
        # gates must compare on the intersection, not reject.
        base = self.write(
            "base.json",
            scaling_doc(lambda n: 1e-3 * n,
                        sizes=(10, 20, 100, 500, 1000, 2000)),
        )
        fresh = self.write(
            "fresh.json",
            scaling_doc(lambda n: 1e-3 * n, sizes=(10, 100, 2000)),
        )
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_semantics_flag_false_fails(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        doc["streamed_vs_dom_identical"] = False
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("streamed_vs_dom_identical == false", r.stdout)

    def test_changed_program_digest_fails(self):
        # Same timings and counters, but one point compiled to other
        # bytes: the digest gate fails and names the family and size.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        pt = doc["families"][0]["points"][2]
        assert pt["num_qubits"] == 1000
        pt["program_digest"] = "0x00000000deadbeef"
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("FAIL: ghz n=1000: program_digest", r.stdout)
        self.assertEqual(r.stdout.count("FAIL"), 1, r.stdout)

    def test_quality_growth_past_tolerance_fails(self):
        # Same bytes gate aside (digests unchanged), each quality
        # metric that grows by more than 5% at one point fails there,
        # and only there.
        for key in ("quality.duration_us", "quality.atom_transfers",
                    "quality.neg_log10_fidelity"):
            base = self.write("base.json",
                              scaling_doc(lambda n: 1e-3 * n))
            doc = scaling_doc(lambda n: 1e-3 * n)
            pt = doc["families"][0]["points"][1]
            group, name = key.split(".")
            set_counter(pt, key, pt[group][name] * 1.06)
            fresh = self.write("fresh.json", doc)
            r = run("--schema", "zac.perf_scaling.v3", base, fresh)
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            self.assertIn(f"FAIL: ghz n=100: {key}", r.stdout)
            self.assertEqual(r.stdout.count("FAIL"), 1, r.stdout)

    def test_quality_within_tolerance_passes(self):
        # +4% duration and transfers, and any fall, stay inside the
        # bound.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        for pt in doc["families"][0]["points"]:
            q = pt["quality"]
            q["duration_us"] *= 1.04
            q["atom_transfers"] += q["atom_transfers"] // 25
            q["neg_log10_fidelity"] *= 0.5
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ghz: quality.duration_us worst ratio 1.0400",
                      r.stdout)

    def test_new_zero_fidelity_term_fails(self):
        # A term that reaches exactly 0 leaves the log sum, so
        # neg_log10_fidelity would fall: the zero count must not rise.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        pt = doc["families"][0]["points"][3]
        pt["quality"]["zero_terms"] = 1
        pt["quality"]["neg_log10_fidelity"] /= 2.0
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("FAIL: ghz n=2000: quality.zero_terms 0 -> 1",
                      r.stdout)
        self.assertEqual(r.stdout.count("FAIL"), 1, r.stdout)

    def test_short_sweep_reach_fails(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        fresh = self.write(
            "fresh.json",
            scaling_doc(lambda n: 1e-3 * n, sizes=(10, 100, 640)),
        )
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("reached only 640 qubits", r.stdout)


class TestMissingKeys(ScalingTempFiles):
    def test_missing_gated_flag_is_exit_2_not_traceback(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        doc = scaling_doc(lambda n: 1e-3 * n)
        del doc["deterministic"]
        fresh = self.write("fresh.json", doc)
        r = run("--schema", "zac.perf_scaling.v3", base, fresh)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("missing key 'deterministic'", r.stderr)
        self.assertNotIn("Traceback", r.stderr)
        self.assertNotIn("KeyError", r.stderr)

    def test_missing_gated_counter_is_exit_2(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        for group, name in (("qubit_placer", "edges_relaxed"),
                            ("placement", "rollback_qubits")):
            doc = scaling_doc(lambda n: 1e-3 * n)
            del doc["families"][0]["points"][2][group][name]
            fresh = self.write("fresh.json", doc)
            r = run("--schema", "zac.perf_scaling.v3", base, fresh)
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
            self.assertIn(f"'{group}.{name}'", r.stderr)
            self.assertNotIn("Traceback", r.stderr)

    def test_missing_program_digest_is_exit_2(self):
        # Either file without a point's digest is an input error.
        for missing in ("base", "fresh"):
            docs = {"base": scaling_doc(lambda n: 1e-3 * n),
                    "fresh": scaling_doc(lambda n: 1e-3 * n)}
            del docs[missing]["families"][0]["points"][1][
                "program_digest"]
            base = self.write("base.json", docs["base"])
            fresh = self.write("fresh.json", docs["fresh"])
            r = run("--schema", "zac.perf_scaling.v3", base, fresh)
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
            self.assertIn(f"{missing}.json: scaling point ghz n=100 "
                          f"has no 'program_digest'", r.stderr)
            self.assertNotIn("Traceback", r.stderr)

    def test_missing_quality_column_is_exit_2(self):
        # Either file without a point's quality column is an input
        # error, also at a size the other file lacks.
        for missing in ("base", "fresh"):
            for key in ("duration_us", "atom_transfers",
                        "neg_log10_fidelity", "zero_terms"):
                docs = {"base": scaling_doc(lambda n: 1e-3 * n),
                        "fresh": scaling_doc(lambda n: 1e-3 * n,
                                             sizes=(10, 100, 2000))}
                pts = docs[missing]["families"][0]["points"]
                # base: n=1000, which the fresh file lacks.
                del pts[2 if missing == "base" else 1]["quality"][key]
                base = self.write("base.json", docs["base"])
                fresh = self.write("fresh.json", docs["fresh"])
                r = run("--schema", "zac.perf_scaling.v3", base, fresh)
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn(f"'quality.{key}'", r.stderr)
                self.assertNotIn("Traceback", r.stderr)

    def test_missing_nested_service_flag_is_exit_2(self):
        doc = json.loads(
            (REPO / "BENCH_service.json").read_text()
        )
        broken = copy.deepcopy(doc)
        del broken["chaos"]["outputs_identical"]
        base = self.write("base.json", doc)
        fresh = self.write("fresh.json", broken)
        r = run("--schema", "zac.perf_service.v4", base, fresh, 1.25)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("chaos.outputs_identical", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_schema_mismatch_is_exit_2(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        r = run(
            "--schema",
            "zac.perf_service.v4",
            base,
            base,
        )
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("schema mismatch", r.stderr)

    def test_scaling_v1_and_v2_files_are_exit_2(self):
        # v1 timed compiles with the DOM verification on and carried no
        # gated counters, v2 carried no quality columns; the gate reads
        # neither, with or without --schema.
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        for version in ("v1", "v2"):
            doc = scaling_doc(lambda n: 1e-3 * n)
            doc["schema"] = "zac.perf_scaling." + version
            for pt in doc["families"][0]["points"]:
                del pt["quality"]
            old = self.write(version + ".json", doc)
            pinned = run("--schema", "zac.perf_scaling.v3", base, old)
            unpinned = run(old, old)
            self.assertEqual(pinned.returncode, 2,
                             pinned.stdout + pinned.stderr)
            self.assertIn("schema mismatch", pinned.stderr)
            self.assertEqual(unpinned.returncode, 2,
                             unpinned.stdout + unpinned.stderr)
            self.assertIn("unknown schema", unpinned.stderr)

    def test_placement_v5_file_is_exit_2(self):
        # The placement harness and its schema are retired.
        old = self.write("v5.json", {
            "schema": RETIRED_PLACEMENT_SCHEMA,
            "compile_total_seconds": 0.013,
            "sa_outputs_identical": True,
            "sa_multi_seed_deterministic": True,
        })
        pinned = run("--schema", RETIRED_PLACEMENT_SCHEMA, old, old,
                     1.25)
        unpinned = run(old, old, 1.25)
        self.assertEqual(pinned.returncode, 2,
                         pinned.stdout + pinned.stderr)
        self.assertIn("not supported", pinned.stderr)
        self.assertEqual(unpinned.returncode, 2,
                         unpinned.stdout + unpinned.stderr)
        self.assertIn("unknown schema", unpinned.stderr)

    def test_missing_file_is_exit_2(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        r = run("--schema", "zac.perf_scaling.v3", base,
                pathlib.Path(self._dir.name) / "nope.json")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("not found", r.stderr)

    def test_unknown_schema_flag_is_exit_2(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        r = run("--schema", "zac.perf_bogus.v9", base, base)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("not supported", r.stderr)


class TestCommittedBaselines(unittest.TestCase):
    """The repo's committed baselines must pass against themselves
    through the registry — the same invocations CI runs."""

    def test_service_v4_self(self):
        r = run(
            "--schema", "zac.perf_service.v4",
            REPO / "BENCH_service.json",
            REPO / "BENCH_service.json", 1.25,
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_scaling_v3_self(self):
        r = run(
            "--schema", "zac.perf_scaling.v3",
            REPO / "BENCH_scaling.json",
            REPO / "BENCH_scaling.json",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


class TestStepSummary(ScalingTempFiles):
    def test_summary_written_when_env_set(self):
        base = self.write("base.json", scaling_doc(lambda n: 1e-3 * n))
        fresh = self.write("fresh.json", scaling_doc(lambda n: 1e-3 * n))
        summary = pathlib.Path(self._dir.name) / "summary.md"
        r = run(
            "--schema", "zac.perf_scaling.v3", base, fresh,
            env_extra={"GITHUB_STEP_SUMMARY": str(summary)},
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        text = summary.read_text()
        self.assertIn("zac.perf_scaling.v3", text)
        self.assertIn("PASS", text)
        self.assertIn("ghz: exponent", text)
        self.assertIn("max_point_qubits", text)


if __name__ == "__main__":
    unittest.main()
