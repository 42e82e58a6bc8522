#!/usr/bin/env python3
"""Fail CI when a benchmark perf trajectory regresses.

Usage:
    check_perf_regression.py [--schema SCHEMA] COMMITTED.json FRESH.json
                             [THRESHOLD]

Compares a freshly measured benchmark JSON against the committed one
and exits non-zero when the schema's gated metric regresses by more
than THRESHOLD (default 1.25, i.e. +25%), when any gated semantics
flag is false, or when a schema-specific extra gate (tail-latency
ratio, scaling exponent) fails.

The per-schema gate logic lives in one table (SCHEMAS below): each
entry declares the headline metric, the gated flag keys (dotted paths;
a missing gated key is an input error, exit 2, never a KeyError), the
step-summary rows, and any extra gates. Adding a schema version means
adding a table entry, not a new code branch.

Supported schemas (--schema selects one explicitly; without the flag
the committed file's own schema tag is used, and both files must
carry the same tag either way):

  zac.perf_service.v4
      Metric: ``scaling_overhead`` — wall seconds of the batch
      compile-service run at the largest worker count, normalized by
      the ideal-scaling expectation sequential/min(workers, cores)
      measured in the same run (1.0 = perfect scaling on that
      machine's cores, so the figure is machine-portable). Also gates
      on ``outputs_identical``, ``cache.second_round_all_hits``, the
      chaos-soak invariants (``chaos.*``), the zac_serve client-churn
      invariants (``churn.*``) and ``streamed_vs_dom.identical``, plus
      a dedicated 2.0x ratio gate on fresh vs. committed
      ``churn.latency_p99_normalized``.

  zac.perf_scaling.v3
      The workload-scaling sweep (bench/perf_scaling.cpp): per-family
      qubit-count vs. compile-time curves, placement work counters and
      the compiled programs' quality. No single headline metric;
      instead these gates, none of which compares raw seconds, so a
      committed baseline from different hardware still gates
      meaningfully:
        * point gate — for every (family, size) present in both files,
          each curve is normalized by its own time at the first common
          size that takes at least SCALING_MIN_GATE_SECONDS (5 ms) in
          both files (machine speed cancels; a sub-millisecond base
          would carry its timing noise into every ratio); the fresh
          normalized point must stay within SCALING_POINT_THRESHOLD
          (1.75x) of the committed one. Points faster than 5 ms in
          both files are skipped as noise, and a family with no such
          base size has no point gate.
        * exponent gate — the asymptotic log-log slope is refitted on
          the common sizes for both files (so a --fast fresh run
          compares against the same point set of the full committed
          sweep); the fresh exponent must not exceed the committed one
          by more than SCALING_EXPONENT_MARGIN (0.35), for the total
          compile time AND for each compiler phase whose cost is big
          enough to fit reliably — an SA or scheduler phase drifting
          superlinear fails the build even if the total still looks
          tame.
        * counter gate — the same refit on the work counters
          ``qubit_placer.candidate_cells``,
          ``qubit_placer.edges_relaxed``,
          ``gate_placer.window_cells``,
          ``gate_placer.edges_relaxed`` and
          ``placement.rollback_qubits`` (a zero count fits as 1); the
          fresh exponent must not exceed the committed one by more
          than SCALING_COUNTER_EXPONENT_MARGIN (0.1). A counter that
          reads at or below its committed value at every common size
          passes whatever its slope: a change that removes more work
          at small sizes than at large ones steepens the fit without
          adding work anywhere. The counters are deterministic, so
          this gate reads the same on every host.
        * digest gate — every point of both files carries
          ``program_digest``, the FNV-1a digest of its compiled
          program's bytes (a file without it is an input error, exit
          2); a point present in both files must have the same digest,
          or the gate fails naming the family and size. A change that
          means to alter the output regenerates the baseline.
        * quality gate — every point carries ``quality`` with
          ``duration_us`` (makespan), ``atom_transfers``,
          ``neg_log10_fidelity`` (-sum log10 of the positive fidelity
          terms) and ``zero_terms`` (the terms that are exactly 0);
          a file without them is an input error, exit 2. At a point
          present in both files, each of the first three may grow by
          at most SCALING_QUALITY_TOLERANCE (5%) relative, and
          ``zero_terms`` may not grow (a term that reaches 0 leaves
          the log sum, which would read as a gain). The digest gate
          pins identical bytes; this gate is what a change that moves
          them on purpose must pass against the old baseline.
      Also gates on ``streamed_vs_dom_identical`` and
      ``deterministic``, and requires the fresh sweep to reach at
      least 1000 qubits (``max_point_qubits``). A v1 or v2 file
      (without the quality columns) is rejected as a schema mismatch.

When the ``GITHUB_STEP_SUMMARY`` environment variable is set (GitHub
Actions), a markdown comparison table is appended to it so perf drift
is visible in the run summary without downloading artifacts.

Exit codes: 0 ok, 1 regression/semantics failure, 2 bad input
(missing file, malformed JSON, schema mismatch, missing gated key).
"""

import argparse
import json
import math
import os
import sys

# Max allowed fresh/committed ratio on churn.latency_p99_normalized
# (service v4). Looser than the headline threshold: tail latency
# under 200 concurrent clients is noisier than aggregate throughput,
# and the committed figure may come from a different core count.
CHURN_LATENCY_THRESHOLD = 2.0
# Scaling-sweep gates (see the module docstring).
SCALING_POINT_THRESHOLD = 1.75
SCALING_MIN_GATE_SECONDS = 0.005
SCALING_EXPONENT_MARGIN = 0.35
SCALING_MIN_POINT_QUBITS = 1000
SCALING_PHASE_KEYS = (
    "sa_seconds",
    "placement_seconds",
    "scheduling_seconds",
    "fidelity_seconds",
)
SCALING_COUNTER_EXPONENT_MARGIN = 0.1
SCALING_QUALITY_TOLERANCE = 0.05
SCALING_QUALITY_KEYS = (
    "quality.duration_us",
    "quality.atom_transfers",
    "quality.neg_log10_fidelity",
)
SCALING_ZERO_TERMS_KEY = "quality.zero_terms"
SCALING_COUNTER_KEYS = (
    "qubit_placer.candidate_cells",
    "qubit_placer.edges_relaxed",
    "gate_placer.window_cells",
    "gate_placer.edges_relaxed",
    "placement.rollback_qubits",
)


def fail_input(msg):
    """Report a usage/input problem (not a perf regression) and exit."""
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def lookup(doc, dotted):
    """Resolve a dotted key path; returns (found, value)."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def require(doc, path, key):
    """Dotted-path lookup that exits 2 (never KeyError) when absent."""
    found, value = lookup(doc, key)
    if not found:
        fail_input(
            f"{path}: missing key {key!r} required by schema "
            f"{doc.get('schema')!r}; regenerate the file with the "
            f"matching bench binary (see bench/README.md)"
        )
    return value


def gated_flags(doc, path, keys):
    """Resolve every gated flag key, exiting 2 with a clear message on
    a missing key instead of treating absence as pass or fail."""
    return {key: require(doc, path, key) for key in keys}


# --------------------------------------------------------------- metrics


def service_metric(doc, path):
    """Ideal-scaling-normalized parallel seconds (lower is better)."""
    metric = require(doc, path, "scaling_overhead")
    if not isinstance(metric, (int, float)) or metric <= 0.0:
        fail_input(f"{path}: scaling_overhead is not a positive "
                   "number")
    return metric


# ----------------------------------------------------------- extra gates


def gate_churn_latency(committed, fresh, cpath, fpath, args):
    """Fresh vs. committed churn p99 (both per-job-normalized, so the
    ratio is machine-portable modulo core count)."""
    base = require(committed, cpath, "churn.latency_p99_normalized")
    now = require(fresh, fpath, "churn.latency_p99_normalized")
    if (
        not isinstance(base, (int, float))
        or isinstance(base, bool)
        or base <= 0.0
    ):
        fail_input(
            f"{cpath}: churn.latency_p99_normalized is not a positive "
            f"number; regenerate the baseline with ./build/perf_service"
        )
    ratio = now / base
    print(
        f"churn.latency_p99_normalized: committed {base:.2f}, fresh "
        f"{now:.2f}, ratio {ratio:.3f} (threshold "
        f"{CHURN_LATENCY_THRESHOLD:.2f})"
    )
    if ratio > CHURN_LATENCY_THRESHOLD:
        print("FAIL: churn p99 latency regressed beyond the threshold")
        return False
    return True


def scaling_curves(doc, path):
    """{family: {num_qubits: point}} from a scaling-sweep document."""
    families = require(doc, path, "families")
    if not isinstance(families, list):
        fail_input(f"{path}: 'families' is not an array")
    curves = {}
    for fam in families:
        try:
            curves[fam["family"]] = {
                p["num_qubits"]: p for p in fam["points"]
            }
        except (KeyError, TypeError) as e:
            fail_input(
                f"{path}: malformed scaling family entry ({e!r}); "
                f"regenerate the file with ./build/perf_scaling"
            )
    return curves


def fit_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) vs log(qubits); mirrors
    fitExponent() in bench/perf_scaling.cpp."""
    if len(sizes) < 2:
        return 0.0
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(s, 1e-7)) for s in seconds]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    return (n * sxy - sx * sy) / denom if denom else 0.0


def point_value(point, path, key):
    found, value = lookup(point, key)
    if (
        not found
        or not isinstance(value, (int, float))
        or isinstance(value, bool)
        or value < 0
    ):
        fail_input(
            f"{path}: scaling point (n={point.get('num_qubits')}) has "
            f"no usable {key!r}; regenerate with ./build/perf_scaling"
        )
    return value


def gate_scaling_curves(committed, fresh, cpath, fpath, args):
    """The scaling gates: normalized per-point regressions and
    refitted asymptotic-exponent blowups, per family, per phase and per
    work counter."""
    ok = True
    ccurves = scaling_curves(committed, cpath)
    fcurves = scaling_curves(fresh, fpath)
    for family, fpoints in fcurves.items():
        if family not in ccurves:
            print(f"note: family {family!r} has no committed baseline "
                  f"yet; skipping")
            continue
        cpoints = ccurves[family]
        common = sorted(set(cpoints) & set(fpoints))
        if len(common) < 2:
            print(f"note: family {family!r} shares fewer than 2 sizes "
                  f"with the baseline; skipping")
            continue

        csecs = [point_value(cpoints[n], cpath, "compile_seconds")
                 for n in common]
        fsecs = [point_value(fpoints[n], fpath, "compile_seconds")
                 for n in common]

        # Point gate: normalize each curve by its own time at the first
        # common size that is timeable in both files, so machine speed
        # cancels out of the ratio and the base adds no timing noise.
        base = next((i for i in range(len(common))
                     if min(csecs[i], fsecs[i])
                     >= SCALING_MIN_GATE_SECONDS), None)
        if base is not None:
            cbase, fbase = csecs[base], fsecs[base]
            for i in range(len(common)):
                if i == base or (csecs[i] < SCALING_MIN_GATE_SECONDS
                                 and fsecs[i] < SCALING_MIN_GATE_SECONDS):
                    continue
                ratio = (fsecs[i] / fbase) / (csecs[i] / cbase)
                if ratio > SCALING_POINT_THRESHOLD:
                    print(
                        f"FAIL: {family} n={common[i]}: normalized "
                        f"compile time {ratio:.2f}x the committed "
                        f"curve (threshold "
                        f"{SCALING_POINT_THRESHOLD:.2f})"
                    )
                    ok = False

        # Exponent gate: refit both files on the common sizes so a
        # --fast fresh sweep compares against the same point set.
        cexp = fit_exponent(common, csecs)
        fexp = fit_exponent(common, fsecs)
        print(
            f"{family}: exponent committed {cexp:.2f}, fresh "
            f"{fexp:.2f} over n={common} (margin "
            f"{SCALING_EXPONENT_MARGIN:.2f})"
        )
        if fexp > cexp + SCALING_EXPONENT_MARGIN:
            print(
                f"FAIL: {family}: asymptotic exponent blew up "
                f"({cexp:.2f} -> {fexp:.2f})"
            )
            ok = False
        # The same refit per phase (wall clock, loose margin) and per
        # work counter (deterministic, tight margin).
        curves = [(f"phase {phase}", f"phase_totals.{phase}",
                   SCALING_EXPONENT_MARGIN)
                  for phase in SCALING_PHASE_KEYS]
        curves += [(f"counter {key}", key,
                    SCALING_COUNTER_EXPONENT_MARGIN)
                   for key in SCALING_COUNTER_KEYS]
        for label, key, margin in curves:
            cvals = [point_value(cpoints[n], cpath, key) for n in common]
            fvals = [point_value(fpoints[n], fpath, key) for n in common]
            is_counter = key in SCALING_COUNTER_KEYS
            # A counter that does no more work at any size passes
            # whatever its slope.
            no_more_work = is_counter and all(
                f <= c for c, f in zip(cvals, fvals))
            if is_counter:
                # A zero count (no such work at that size) fits as 1.
                cvals = [max(v, 1) for v in cvals]
                fvals = [max(v, 1) for v in fvals]
            elif (cvals[-1] < SCALING_MIN_GATE_SECONDS
                    or fvals[-1] < SCALING_MIN_GATE_SECONDS):
                # Phases too cheap to time reliably fit as noise: only
                # gate a phase that costs real time at the largest
                # size.
                continue
            cexp = fit_exponent(common, cvals)
            fexp = fit_exponent(common, fvals)
            print(f"{family}: {label} exponent committed {cexp:.2f}, "
                  f"fresh {fexp:.2f} (margin {margin:.2f})")
            if fexp > cexp + margin and no_more_work:
                print(f"{family}: {label} exponent rose, but the count "
                      f"is at or below the committed one at every "
                      f"common size: passes")
            elif fexp > cexp + margin:
                print(
                    f"FAIL: {family}: {label} exponent blew up "
                    f"({cexp:.2f} -> {fexp:.2f})"
                )
                ok = False
    return ok


def gate_scaling_quality(committed, fresh, cpath, fpath, args):
    """Quality at every common point: makespan, atom transfers and
    -log10 fidelity within SCALING_QUALITY_TOLERANCE, no new zero
    fidelity term."""
    ok = True
    ccurves = scaling_curves(committed, cpath)
    fcurves = scaling_curves(fresh, fpath)
    # Every point of both files must carry the columns (exit 2 if not).
    for curves, path in ((ccurves, cpath), (fcurves, fpath)):
        for points in curves.values():
            for point in points.values():
                for key in (*SCALING_QUALITY_KEYS,
                            SCALING_ZERO_TERMS_KEY):
                    point_value(point, path, key)
    for family, fpoints in fcurves.items():
        cpoints = ccurves.get(family, {})
        common = sorted(set(cpoints) & set(fpoints))
        if not common:
            continue
        for key in SCALING_QUALITY_KEYS:
            worst = None
            for n in common:
                c = point_value(cpoints[n], cpath, key)
                f = point_value(fpoints[n], fpath, key)
                if f > c * (1.0 + SCALING_QUALITY_TOLERANCE):
                    print(f"FAIL: {family} n={n}: {key} {c:g} -> {f:g} "
                          f"(more than "
                          f"{SCALING_QUALITY_TOLERANCE:.0%} worse)")
                    ok = False
                if c > 0 and (worst is None or f / c > worst[1]):
                    worst = (n, f / c)
            if worst is not None:
                print(f"{family}: {key} worst ratio {worst[1]:.4f} at "
                      f"n={worst[0]} (tolerance "
                      f"{1.0 + SCALING_QUALITY_TOLERANCE:.2f})")
        for n in common:
            c = point_value(cpoints[n], cpath, SCALING_ZERO_TERMS_KEY)
            f = point_value(fpoints[n], fpath, SCALING_ZERO_TERMS_KEY)
            if f > c:
                print(f"FAIL: {family} n={n}: {SCALING_ZERO_TERMS_KEY} "
                      f"{c:g} -> {f:g} (a fidelity term reached 0)")
                ok = False
    return ok


def scaling_digests(doc, path):
    """{(family, num_qubits): program_digest} of every point, exiting 2
    when a point has none."""
    digests = {}
    for family, points in scaling_curves(doc, path).items():
        for n, point in points.items():
            digest = point.get("program_digest")
            if not isinstance(digest, str) or not digest:
                fail_input(
                    f"{path}: scaling point {family} n={n} has no "
                    f"'program_digest'; regenerate with "
                    f"./build/perf_scaling"
                )
            digests[family, n] = digest
    return digests


def gate_scaling_digests(committed, fresh, cpath, fpath, args):
    """Output identity: a point both files hold compiled to the same
    bytes."""
    cdigests = scaling_digests(committed, cpath)
    fdigests = scaling_digests(fresh, fpath)
    common = sorted(set(cdigests) & set(fdigests))
    changed = [(family, n) for family, n in common
               if cdigests[family, n] != fdigests[family, n]]
    for family, n in changed:
        print(
            f"FAIL: {family} n={n}: program_digest "
            f"{cdigests[family, n]} -> {fdigests[family, n]} (the "
            f"compiled program changed)"
        )
    print(f"program_digest: {len(common) - len(changed)} of "
          f"{len(common)} common points unchanged")
    return not changed


def gate_scaling_reach(committed, fresh, cpath, fpath, args):
    reach = require(fresh, fpath, "max_point_qubits")
    if not isinstance(reach, (int, float)) or isinstance(reach, bool):
        fail_input(f"{fpath}: max_point_qubits is not a number")
    if reach < SCALING_MIN_POINT_QUBITS:
        print(
            f"FAIL: scaling sweep reached only {int(reach)} qubits "
            f"(must include a >= {SCALING_MIN_POINT_QUBITS}-qubit "
            f"point)"
        )
        return False
    return True


# -------------------------------------------------------- summary tables


def fmt_ratio(committed, fresh):
    """Fresh/committed as a cell, or n/a when not comparable."""
    if (
        isinstance(committed, (int, float))
        and isinstance(fresh, (int, float))
        and committed > 0
    ):
        return f"{fresh / committed:.3f}"
    return "n/a"


def summary_rows_service(committed, fresh):
    rows = [
        (
            "scaling_overhead",
            committed.get("scaling_overhead"),
            fresh.get("scaling_overhead"),
        ),
        (
            "sequential_jobs_per_second",
            committed.get("sequential_jobs_per_second"),
            fresh.get("sequential_jobs_per_second"),
        ),
        (
            "parallel_seconds_at_max",
            committed.get("parallel_seconds_at_max"),
            fresh.get("parallel_seconds_at_max"),
        ),
    ]
    cc = committed.get("chaos", {})
    fc = fresh.get("chaos", {})
    for key in ("retries", "coalesced_served",
                "snapshot_records_loaded", "warm_cache_hits"):
        if key in cc or key in fc:
            rows.append((f"chaos: {key}", cc.get(key), fc.get(key)))
    cu = committed.get("churn", {})
    fu = fresh.get("churn", {})
    for key in ("latency_p50_seconds", "latency_p99_seconds",
                "latency_p99_normalized", "cache_hits", "failures"):
        if key in cu or key in fu:
            rows.append((f"churn: {key}", cu.get(key), fu.get(key)))
    return [r for r in rows if r[1] is not None or r[2] is not None]


def summary_rows_scaling(committed, fresh):
    """Per-family stored exponents plus the largest common point."""
    rows = []
    ccurves = {f.get("family"): f
               for f in committed.get("families", [])}
    for fam in fresh.get("families", []):
        family = fam.get("family")
        cfam = ccurves.get(family, {})
        rows.append(
            (f"{family}: exponent", cfam.get("exponent"),
             fam.get("exponent"))
        )
        cpoints = {p.get("num_qubits"): p
                   for p in cfam.get("points", [])}
        fpoints = {p.get("num_qubits"): p
                   for p in fam.get("points", [])}
        common = sorted(set(cpoints) & set(fpoints))
        if common:
            n = common[-1]
            rows.append((
                f"{family}: compile_seconds @ n={n}",
                cpoints[n].get("compile_seconds"),
                fpoints[n].get("compile_seconds"),
            ))
    rows.append((
        "max_point_qubits",
        committed.get("max_point_qubits"),
        fresh.get("max_point_qubits"),
    ))
    return rows


# ------------------------------------------------------- schema registry


class SchemaSpec:
    """One row of the per-schema gate table."""

    def __init__(self, metric=None, metric_name=None, flag_keys=(),
                 summary_rows=None, extra_gates=()):
        self.metric = metric              # (doc, path) -> float, or None
        self.metric_name = metric_name
        self.flag_keys = tuple(flag_keys)  # dotted paths, all required
        self.summary_rows = summary_rows   # (committed, fresh) -> rows
        self.extra_gates = tuple(extra_gates)


SCHEMAS = {
    "zac.perf_service.v4": SchemaSpec(
        metric=service_metric,
        metric_name="scaling_overhead (ideal-scaling-normalized)",
        flag_keys=(
            "outputs_identical",
            "cache.second_round_all_hits",
            "chaos.terminal_records_exactly_once",
            "chaos.outputs_identical",
            "chaos.warm_start_served_from_snapshot",
            "chaos.corruption_tolerated",
            "churn.exactly_once_per_connection",
            "churn.outputs_identical_offline",
            "churn.drained_clean",
            "streamed_vs_dom.identical",
        ),
        summary_rows=summary_rows_service,
        extra_gates=(gate_churn_latency,),
    ),
    "zac.perf_scaling.v3": SchemaSpec(
        metric=None,
        metric_name="scaling curves (per-family, machine-normalized)",
        flag_keys=("streamed_vs_dom_identical", "deterministic"),
        summary_rows=summary_rows_scaling,
        extra_gates=(gate_scaling_reach, gate_scaling_curves,
                     gate_scaling_digests, gate_scaling_quality),
    ),
}


def load(path, want_schema):
    """Load one benchmark JSON, failing with a clear message (never a
    traceback) when the file is missing, malformed, or carries an
    unexpected schema tag."""
    if not os.path.exists(path):
        fail_input(
            f"{path}: baseline/benchmark JSON not found. Generate it "
            f"with ./build/perf_service or ./build/perf_scaling (see "
            f"bench/README.md) and commit "
            f"the baseline."
        )
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        fail_input(f"{path}: not valid JSON ({e})")
    if not isinstance(doc, dict):
        fail_input(f"{path}: expected a JSON object at top level")

    schema = doc.get("schema")
    if schema is None:
        fail_input(f"{path}: missing 'schema' field")
    if want_schema is not None:
        if schema != want_schema:
            fail_input(
                f"{path}: schema mismatch: found {schema!r}, expected "
                f"{want_schema!r} (is this the right baseline file, or "
                f"does the baseline predate a schema bump? regenerate "
                f"and re-commit it if so)"
            )
    elif schema not in SCHEMAS:
        fail_input(
            f"{path}: unknown schema {schema!r}; this script "
            f"understands {', '.join(sorted(SCHEMAS))}"
        )
    return doc


def write_step_summary(schema, spec, committed, fresh, metric_line,
                       flags, ok):
    """Append a markdown comparison table to $GITHUB_STEP_SUMMARY (no-op
    outside GitHub Actions) so perf drift is visible in the run summary
    without downloading artifacts."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        f"### Perf gate: `{schema}` — {'PASS' if ok else 'FAIL'}",
        "",
    ]
    if metric_line:
        lines += [metric_line, ""]
    lines += [
        "| metric | committed | fresh | fresh/committed |",
        "| --- | ---: | ---: | ---: |",
    ]
    for label, c, f in spec.summary_rows(committed, fresh):
        c_cell = f"{c:.4f}" if isinstance(c, (int, float)) else "—"
        f_cell = f"{f:.4f}" if isinstance(f, (int, float)) else "—"
        lines.append(
            f"| {label} | {c_cell} | {f_cell} | {fmt_ratio(c, f)} |"
        )
    flag_cells = ", ".join(
        f"`{k}`={'true' if v else '**false**'}"
        for k, v in flags.items()
    )
    lines += ["", f"Semantics flags (fresh run): {flag_cells}", ""]
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--schema",
        help="require this exact schema tag in both files "
        "(default: the committed file's tag)",
    )
    parser.add_argument("committed", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly measured JSON")
    parser.add_argument(
        "threshold",
        nargs="?",
        type=float,
        default=1.25,
        help="max allowed fresh/committed metric ratio (default 1.25)",
    )
    args = parser.parse_args(argv[1:])

    if args.schema is not None and args.schema not in SCHEMAS:
        fail_input(
            f"--schema {args.schema!r} is not supported; choose from "
            f"{', '.join(sorted(SCHEMAS))}"
        )

    committed = load(args.committed, args.schema)
    # Both files must agree on the schema even without --schema.
    fresh = load(args.fresh, args.schema or committed["schema"])
    schema = committed["schema"]
    spec = SCHEMAS[schema]

    ok = True
    flags = gated_flags(fresh, args.fresh, spec.flag_keys)
    for key, value in flags.items():
        if not value:
            print(f"FAIL: fresh run reports {key} == false")
            ok = False

    metric_line = None
    if spec.metric is not None:
        base = spec.metric(committed, args.committed)
        now = spec.metric(fresh, args.fresh)
        if base <= 0.0:
            fail_input(
                f"{args.committed}: committed metric is {base}; "
                f"cannot compute a regression ratio — regenerate the "
                f"baseline"
            )
        ratio = now / base
        metric_line = (
            f"Gated metric **{spec.metric_name}**: committed "
            f"{base:.4f}, fresh {now:.4f}, ratio {ratio:.3f} "
            f"(threshold {args.threshold:.2f})"
        )
        print(
            f"{spec.metric_name}: committed {base:.4f}, fresh "
            f"{now:.4f}, ratio {ratio:.3f} (threshold "
            f"{args.threshold:.2f})"
        )
        if ratio > args.threshold:
            print("FAIL: perf metric regressed beyond the threshold")
            ok = False

    for gate in spec.extra_gates:
        if not gate(committed, fresh, args.committed, args.fresh,
                    args):
            ok = False

    write_step_summary(schema, spec, committed, fresh, metric_line,
                       flags, ok)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
