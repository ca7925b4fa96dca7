#!/usr/bin/env python3
"""Gate CI on the wrapper synthesis numbers in BENCH_sim.json.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--max-regress 0.25]
       check_bench_regression.py --self-test

Compares the "wrapper" section entry by entry (keyed on inputs/outputs/
relay_depth/encoding) and fails if any fresh entry needs more than
(1 + max_regress) times the baseline slices, or clocks below
baseline_fmax / (1 + max_regress). Both quantities are deterministic model
outputs, so the threshold only trips on real synthesis/mapping regressions,
never on runner noise. A configuration dropped from the fresh results also
fails.

The "opt" section is gated on its own invariant, checked within the fresh
results alone: for every entry of opt.wrapper / opt.system / opt.sweep,
the optimized mapping must never need more slices than the unoptimized
one (slices_opt <= slices_unopt), and the equivalence proof must have
run (equiv_proved). A fresh file without an "opt" section only warns, so
the gate still accepts bench output from before the optimizer landed.

The "fault" section (fault-injection campaign coverage) is gated both
ways: every fresh entry must report control-SEU detection-or-recovery
coverage of at least 0.95 (the paper-level acceptance bar), and coverage
must not drop more than 0.05 below the baseline entry for the same
design. A baseline fault entry missing from the fresh results fails —
silently shrinking fault coverage is exactly the regression this section
exists to catch.

The "sat" section (SAT-sweep + protocol-invariant BMC, added with the
SAT engine) is gated within the fresh results: every non-failed entry
must hold all three protocol invariants (token conservation, occupancy
bound, deadlock watchdog), reach the section's advertised BMC depth
(floor 20), and carry a non-degraded sweep soundness proof
(equiv_proved, with a method stronger than the simulation screen). A
baseline sat entry missing from the fresh results fails; a fresh file
without the section warns (pre-SAT bench output).

On top of the bounded verdicts, the unbounded (k-induction + PDR/IC3)
rung of the same section is gated by check_pdr: every non-failed entry
must report proved_unbounded — a verdict that degraded to the bounded
bar (budget or frame-cap stop) fails with the degradation called out,
as does an aggregate/per-property inconsistency. Entries that predate
the PDR engine (no proved_unbounded key) warn and skip.

The "metrics" section (per-config engine counters + executor
utilization, added with the observability layer) is gated leniently:
every non-failed config row must carry its suite's required counter keys
(a deterministic output of the passes, so their absence means the
instrumentation broke), and the sweep suite's parallel_efficiency must
clear an absolute floor and not collapse relative to the baseline. A
baseline recorded with more jobs than hardware threads measured time
slicing, not parallelism, so the relative comparison only warns there.
A fresh file without the section warns and skips (pre-observability
bench output). Utilization is *required* of timed parallel runs (sweep.jobs >
1): the bench derives it from always-on span recording, so a null there
means the instrumentation broke. Serial or --strip-times runs (jobs <=
1, where jobs is emitted as 0) still warn and skip.

--scale-gate FRESH.json gates the production-scale suite instead of
comparing against a baseline: every scale topology (pipe256 through
mesh32x32) must be present and not failed, the flow wall must stay
under --max-wall seconds, and — when the machine has at least 4
hardware threads — the parallel run must clear --min-speedup over the
serial re-run. On smaller machines the speedup check only warns: there
is no parallelism to measure.

Configs the bench marked `"failed": true` (a design whose pipeline run
errored; the bench records it instead of crashing) are *warnings* here and
are skipped from metric comparison — the bench's own non-zero exit is the
gate for those. A baseline-side failed entry is skipped the same way.

Sections or keys present in only one of baseline/current are *warnings*,
not errors: a PR may add a new section (e.g. "sweep") or a new per-entry
key without a flag-day baseline update, and an old baseline must not crash
the gate. --self-test runs the built-in unit checks of exactly these
behaviours (invoked from CI).
"""

import argparse
import json
import sys


def wrapper_key(entry):
    return (entry["inputs"], entry["outputs"], entry["relay_depth"],
            entry["encoding"])


def check_opt(fresh):
    """Self-contained invariants of the fresh "opt" section.

    Returns (failures, warnings). Key-tolerant like compare(): a missing
    key warns and skips that entry, only a present-and-violated invariant
    fails.
    """
    failures = []
    warnings = []
    opt = fresh.get("opt")
    if opt is None:
        warnings.append('no "opt" section in fresh results; '
                        "optimizer gate skipped")
        return failures, warnings
    for group in ("wrapper", "system", "sweep"):
        for entry in opt.get(group, []):
            name = entry.get("design", f"<unnamed {group} entry>")
            if entry.get("failed"):
                warnings.append(f"opt.{group} {name}: config failed in the "
                                f"bench run; invariants skipped")
                continue
            if "slices_unopt" not in entry or "slices_opt" not in entry:
                warnings.append(f"opt.{group} {name}: slice keys missing; "
                                f"invariant skipped")
            elif entry["slices_opt"] > entry["slices_unopt"]:
                failures.append(
                    f"opt.{group} {name}: optimized mapping needs "
                    f"{entry['slices_opt']} slices, more than the "
                    f"unoptimized {entry['slices_unopt']}")
            if "equiv_proved" not in entry:
                warnings.append(f"opt.{group} {name}: equiv_proved key "
                                f"missing; proof check skipped")
            elif not entry["equiv_proved"]:
                failures.append(f"opt.{group} {name}: equivalence not "
                                f"proved for the optimized design")
    return failures, warnings


# Coverage floor for control-register SEUs (the acceptance bar) and the
# allowed drop relative to the baseline before the gate trips.
FAULT_COVERAGE_FLOOR = 0.95
FAULT_COVERAGE_SLACK = 0.05


def check_fault(baseline, fresh):
    """Gate the fault-injection campaign coverage.

    Returns (failures, warnings). A fresh file without a "fault" section
    only warns (pre-robustness bench output); with one, every non-failed
    entry must clear the control-SEU coverage floor, and no design may
    drop more than FAULT_COVERAGE_SLACK below its baseline coverage or
    vanish from the fresh results.
    """
    failures = []
    warnings = []
    fault = fresh.get("fault")
    if fault is None:
        warnings.append('no "fault" section in fresh results; '
                        "fault-coverage gate skipped")
        return failures, warnings

    fresh_by_design = {}
    for entry in fault.get("entries", []):
        name = entry.get("design")
        if name is None:
            warnings.append(f"fresh fault entry lacks a design name: {entry}")
            continue
        fresh_by_design[name] = entry
        if entry.get("failed"):
            warnings.append(f"fault {name}: config failed in the bench run; "
                            f"coverage checks skipped")
            continue
        cov = entry.get("control_seu_coverage")
        if cov is None:
            warnings.append(f"fault {name}: control_seu_coverage key "
                            f"missing; floor check skipped")
        elif cov < FAULT_COVERAGE_FLOOR:
            failures.append(
                f"fault {name}: control-SEU detection-or-recovery coverage "
                f"{cov:.3f} below the {FAULT_COVERAGE_FLOOR:.2f} floor")

    for old in (baseline.get("fault") or {}).get("entries", []):
        name = old.get("design")
        if name is None or old.get("failed"):
            continue
        new = fresh_by_design.get(name)
        if new is None:
            failures.append(f"fault {name}: missing from fresh results")
            continue
        if new.get("failed"):
            continue  # already warned above
        old_cov = old.get("control_seu_coverage")
        new_cov = new.get("control_seu_coverage")
        if old_cov is None or new_cov is None:
            continue  # floor check / missing-key warning already covers it
        if new_cov < old_cov - FAULT_COVERAGE_SLACK:
            failures.append(
                f"fault {name}: control-SEU coverage {old_cov:.3f} -> "
                f"{new_cov:.3f} (dropped more than "
                f"{FAULT_COVERAGE_SLACK:.2f})")
    return failures, warnings


# The BMC depth the sat section must prove the protocol invariants to
# (matches bench::kSatBmcDepth) and the invariant verdict keys every
# entry must hold.
SAT_BMC_DEPTH_FLOOR = 20
SAT_INVARIANT_KEYS = ("token_conservation_ok", "occupancy_bound_ok",
                      "deadlock_watchdog_ok")


def check_sat(baseline, fresh):
    """Gate the SAT-sweep + BMC verification section.

    Returns (failures, warnings). A fresh file without a "sat" section
    only warns (pre-SAT bench output); with one, every non-failed entry
    must hold the three protocol invariants at SAT_BMC_DEPTH_FLOOR and
    carry a proven (non-degraded) sweep equivalence whose method is
    stronger than the simulation screen. A baseline design dropped from
    the fresh entries fails.
    """
    failures = []
    warnings = []
    sat = fresh.get("sat")
    if sat is None:
        warnings.append('no "sat" section in fresh results; '
                        "SAT verification gate skipped")
        return failures, warnings

    fresh_names = set()
    for entry in sat.get("entries", []):
        name = entry.get("design")
        if name is None:
            warnings.append(f"fresh sat entry lacks a design name: {entry}")
            continue
        fresh_names.add(name)
        if entry.get("failed"):
            warnings.append(f"sat {name}: config failed in the bench run; "
                            f"invariant checks skipped")
            continue
        for key in SAT_INVARIANT_KEYS:
            if key not in entry:
                warnings.append(f'sat {name}: key "{key}" missing; '
                                f"invariant check skipped")
            elif not entry[key]:
                failures.append(f"sat {name}: protocol invariant "
                                f"{key[:-3]} violated")
        depth = entry.get("bmc_depth")
        if depth is None:
            warnings.append(f"sat {name}: bmc_depth key missing; "
                            f"depth check skipped")
        elif depth < SAT_BMC_DEPTH_FLOOR:
            failures.append(f"sat {name}: BMC depth {depth} below the "
                            f"{SAT_BMC_DEPTH_FLOOR} floor")
        if "equiv_proved" not in entry:
            warnings.append(f"sat {name}: equiv_proved key missing; "
                            f"sweep proof check skipped")
        elif not entry["equiv_proved"]:
            failures.append(f"sat {name}: sweep equivalence not proved "
                            f"(degraded or failed soundness check)")
        method = entry.get("equiv_method")
        if method == "sim":
            failures.append(f"sat {name}: sweep soundness degraded to the "
                            f"simulation screen")

    for old in (baseline.get("sat") or {}).get("entries", []):
        name = old.get("design")
        if name is None or old.get("failed"):
            continue
        if name not in fresh_names:
            failures.append(f"sat {name}: missing from fresh results")
    return failures, warnings


# Per-property unbounded verdict keys behind the sat section's
# aggregate proved_unbounded.
PDR_PROPERTY_KEYS = ("token_conservation_proved", "occupancy_bound_proved",
                     "deadlock_watchdog_proved")


def check_pdr(baseline, fresh):
    """Gate the unbounded-proof verdicts riding on the "sat" section.

    Returns (failures, warnings). Entries that predate the PDR engine
    (no proved_unbounded key) warn and skip; with the key, every
    non-failed entry must be proved for all time within the bench's
    default budgets. A degraded verdict fails with the degradation
    named — falling back to the BMC floor is a weaker result than the
    baseline promises, never an acceptable substitute. An entry that
    claims the aggregate but not every per-property verdict (or the
    reverse) fails as inconsistent. Dropped designs are already gated
    by check_sat.
    """
    failures = []
    warnings = []
    sat = fresh.get("sat")
    if sat is None:
        return failures, warnings  # check_sat already warned

    for entry in sat.get("entries", []):
        name = entry.get("design")
        if name is None or entry.get("failed"):
            continue  # check_sat already reported these
        if "proved_unbounded" not in entry:
            warnings.append(f"sat {name}: proved_unbounded key missing "
                            f"(pre-PDR bench output); unbounded gate "
                            f"skipped")
            continue
        proved = entry["proved_unbounded"]
        if not proved:
            if entry.get("pdr_degraded"):
                failures.append(
                    f"sat {name}: unbounded proof degraded to the bounded "
                    f"verdict (solver budget or frame cap exhausted)")
            else:
                failures.append(f"sat {name}: protocol invariants not "
                                f"proved unbounded")
        for key in PDR_PROPERTY_KEYS:
            if key not in entry:
                warnings.append(f'sat {name}: key "{key}" missing; '
                                f"per-property unbounded check skipped")
            elif proved and not entry[key]:
                failures.append(
                    f"sat {name}: aggregate proved_unbounded set but "
                    f"{key[:-len('_proved')]} unproved (inconsistent "
                    f"verdicts)")
    return failures, warnings


# Required per-config counter keys by suite: deterministic pass outputs,
# so a missing key means the instrumentation regressed, not the machine.
METRICS_REQUIRED_KEYS = {
    "wrapper": ("cosim.cycles", "proof.sat_conflicts"),
    "system": ("cosim.cycles", "proof.sat_conflicts"),
    "sweep": ("cosim.cycles", "proof.sat_conflicts"),
    "scale": ("cosim.cycles", "proof.sat_conflicts"),
    "wrapper_opt": ("aig.ands_after", "aig.rewrite_adoptions",
                    "aig.cuts_enumerated"),
    "system_opt": ("aig.ands_after", "aig.rewrite_adoptions",
                   "aig.cuts_enumerated"),
    "sweep_opt": ("aig.ands_after", "aig.rewrite_adoptions",
                  "aig.cuts_enumerated"),
    "fault": ("fault.sites", "fault.control_seu_coverage"),
    "sat": ("sat.conflicts", "sat.decisions", "sat.propagations",
            "pdr.all_proved", "pdr.frames"),
}

# The sweep suite (the long, many-design section) must keep the executor
# meaningfully busy. The floor is deliberately generous — utilization is
# wall-clock-derived and CI machines are noisy — and the relative slack
# only catches a collapse, not jitter.
PARALLEL_EFFICIENCY_FLOOR = 0.30
PARALLEL_EFFICIENCY_SLACK = 0.60


def check_metrics(baseline, fresh):
    """Gate the observability "metrics" section.

    Returns (failures, warnings). Tolerant of absence at every level: no
    section, no utilization (untraced or --strip-times runs) and unknown
    suites all warn; only a present-but-broken invariant fails.
    """
    failures = []
    warnings = []
    metrics = fresh.get("metrics")
    if metrics is None:
        warnings.append('no "metrics" section in fresh results; '
                        "metrics gate skipped")
        return failures, warnings

    for row in metrics.get("configs", []):
        suite = row.get("suite", "?")
        name = row.get("design", "?")
        if row.get("failed"):
            warnings.append(f"metrics {suite}/{name}: config failed in the "
                            f"bench run; counter checks skipped")
            continue
        required = METRICS_REQUIRED_KEYS.get(suite)
        if required is None:
            warnings.append(f'metrics: unknown suite "{suite}" '
                            f"({name}); no counter checks for it")
            continue
        counters = row.get("counters")
        if not isinstance(counters, dict):
            failures.append(f"metrics {suite}/{name}: counters object "
                            f"missing")
            continue
        for key in required:
            if key not in counters:
                failures.append(f'metrics {suite}/{name}: required counter '
                                f'"{key}" missing')

    util = metrics.get("utilization")
    if not util:
        # The bench records spans (and thus utilization) unconditionally;
        # only --strip-times nulls it, and a stripped run also emits
        # sweep.jobs as 0. A timed parallel run without utilization means
        # the instrumentation broke, not that the machine was small.
        jobs = (fresh.get("sweep") or {}).get("jobs") or 0
        if jobs > 1:
            failures.append(
                f"metrics.utilization null/absent in a timed parallel run "
                f"(sweep.jobs = {jobs}); executor-utilization "
                f"instrumentation broke")
        else:
            warnings.append("metrics.utilization absent (serial or "
                            "--strip-times run); efficiency gate skipped")
        return failures, warnings
    base_util = (baseline.get("metrics") or {}).get("utilization") or {}
    base_suites = {s.get("suite"): s for s in base_util.get("suites", [])}
    base_sweep = baseline.get("sweep") or {}
    base_jobs = base_sweep.get("jobs") or 0
    base_hw = base_sweep.get("hardware_threads") or 0
    for entry in util.get("suites", []):
        if entry.get("suite") != "sweep":
            continue
        eff = entry.get("parallel_efficiency")
        if eff is None:
            warnings.append("metrics.utilization sweep entry lacks "
                            "parallel_efficiency; gate skipped")
            continue
        if eff < PARALLEL_EFFICIENCY_FLOOR:
            failures.append(
                f"metrics: sweep parallel_efficiency {eff:.3f} below the "
                f"{PARALLEL_EFFICIENCY_FLOOR:.2f} floor")
        old = base_suites.get("sweep", {}).get("parallel_efficiency")
        if old is not None and base_hw < base_jobs:
            warnings.append(
                f"baseline ran --jobs {base_jobs} on {base_hw} hardware "
                f"thread(s); sweep parallel_efficiency not compared to it")
        elif old is not None and eff < old - PARALLEL_EFFICIENCY_SLACK:
            failures.append(
                f"metrics: sweep parallel_efficiency {old:.3f} -> "
                f"{eff:.3f} (dropped more than "
                f"{PARALLEL_EFFICIENCY_SLACK:.2f})")
    return failures, warnings


# The production-scale topologies --suite scale must carry end to end,
# and the thread count below which the speedup check is unmeasurable.
SCALE_REQUIRED_TOPOLOGIES = ("pipe256_d1", "pipe1024_d1", "mesh16x16_d1",
                             "mesh32x32_d1")
SCALE_MIN_HW_THREADS = 4


def check_scale(fresh, max_wall, min_speedup):
    """Gate a --suite scale bench run (no baseline involved).

    Returns (failures, warnings). Fails when a required topology is
    missing or failed, when the flow wall exceeds max_wall, or when a
    parallel run on a machine with >= SCALE_MIN_HW_THREADS hardware
    threads speeds up less than min_speedup over its serial re-run.
    Under-provisioned machines and stripped runs warn instead: wall and
    speedup are machine facts there, not code regressions.
    """
    failures = []
    warnings = []
    sweep = fresh.get("sweep")
    if sweep is None:
        failures.append('no "sweep" section in results; was the bench run '
                        "with --suite scale?")
        return failures, warnings

    by_topology = {}
    for entry in sweep.get("scale_entries", []):
        name = entry.get("topology")
        if name is not None:
            by_topology[name] = entry
    for name in SCALE_REQUIRED_TOPOLOGIES:
        entry = by_topology.get(name)
        if entry is None:
            failures.append(f"scale {name}: missing from scale_entries")
        elif entry.get("failed"):
            failures.append(f"scale {name}: pipeline failed")

    wall = sweep.get("flow_wall_seconds", 0)
    if not wall:
        warnings.append("flow_wall_seconds is 0 (--strip-times run); "
                        "wall-ceiling check skipped")
    elif wall > max_wall:
        failures.append(f"scale suite wall {wall:.1f}s exceeds the "
                        f"{max_wall:.0f}s ceiling")

    jobs = sweep.get("jobs") or 0
    hw = sweep.get("hardware_threads") or 0
    speedup = sweep.get("speedup_vs_jobs1")
    if jobs <= 1 or speedup is None or not wall:
        warnings.append("no parallel speedup measured (serial or stripped "
                        "run); speedup check skipped")
    elif hw < SCALE_MIN_HW_THREADS:
        warnings.append(
            f"only {hw} hardware thread(s); speedup {speedup:.2f}x at "
            f"--jobs {jobs} not gated (needs >= {SCALE_MIN_HW_THREADS} "
            f"threads to be meaningful)")
    elif speedup < min_speedup:
        failures.append(
            f"scale suite speedup {speedup:.2f}x at --jobs {jobs} on "
            f"{hw} hardware threads, below the {min_speedup:.2f}x floor")
    return failures, warnings


def run_scale_gate(args):
    with open(args.baseline) as f:
        fresh = json.load(f)
    failures, warnings = check_scale(fresh, args.max_wall, args.min_speedup)
    sweep = fresh.get("sweep") or {}
    for entry in sweep.get("scale_entries", []):
        name = entry.get("topology", "?")
        if entry.get("failed"):
            print(f"scale {name:>14}   FAILED")
            continue
        print(f"scale {name:>14}   {entry.get('pearls', '?'):>5} pearls "
              f"{entry.get('luts', '?'):>7} LUT  "
              f"synth {entry.get('synth_seconds', 0):.3f}s  "
              f"map {entry.get('map_seconds', 0):.3f}s  "
              f"cosim {entry.get('cosim_seconds', 0):.3f}s")
    print(f"scale wall {sweep.get('flow_wall_seconds', 0):.1f}s, speedup "
          f"{sweep.get('speedup_vs_jobs1', 0):.2f}x at --jobs "
          f"{sweep.get('jobs', 0)} ({sweep.get('hardware_threads', 0)} hw "
          f"threads), serial fraction "
          f"{sweep.get('serial_fraction_est', 0):.2f}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if failures:
        print("\nScale gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nScale gate passed.")
    return 0


def compare(baseline, fresh, max_regress):
    """Returns (failures, warnings): lists of human-readable strings."""
    failures = []
    warnings = []
    limit = 1.0 + max_regress

    # Section symmetry: informative only. New sections need no baseline
    # flag-day; removed sections are suspicious but not gate-worthy.
    for section in sorted(set(baseline) - set(fresh)):
        warnings.append(f'section "{section}" present only in baseline')
    for section in sorted(set(fresh) - set(baseline)):
        warnings.append(
            f'section "{section}" present only in fresh results '
            f"(no baseline yet)")

    fresh_by_key = {}
    for entry in fresh.get("wrapper", []):
        try:
            fresh_by_key[wrapper_key(entry)] = entry
        except KeyError as missing:
            warnings.append(f"fresh wrapper entry lacks key {missing}: "
                            f"{entry}")
    rows = []
    for old in baseline.get("wrapper", []):
        try:
            key = wrapper_key(old)
        except KeyError as missing:
            warnings.append(f"baseline wrapper entry lacks key {missing}: "
                            f"{old}")
            continue
        name = "%dx%d d%d %s" % key
        if old.get("failed"):
            warnings.append(f"{name}: baseline config marked failed; "
                            f"comparison skipped")
            continue
        new = fresh_by_key.get(key)
        if new is None:
            failures.append(f"{name}: missing from fresh results")
            continue
        if new.get("failed"):
            warnings.append(f"{name}: config failed in the fresh bench run; "
                            f"comparison skipped (the bench exit gates it)")
            continue
        notes = {}
        for metric, worse in (("slices", "up"), ("fmax_mhz", "down")):
            if metric not in old or metric not in new:
                side = "baseline" if metric not in old else "fresh"
                warnings.append(
                    f'{name}: key "{metric}" missing from {side} entry; '
                    f"comparison skipped")
                notes[metric] = "skipped"
                continue
            regressed = (new[metric] > old[metric] * limit
                         if worse == "up" else
                         new[metric] < old[metric] / limit)
            if regressed:
                notes[metric] = "REGRESSED"
                failures.append(
                    f"{name}: {metric} {old[metric]} -> {new[metric]} "
                    f"(beyond {limit:.2f}x)")
            else:
                notes[metric] = "ok"
        rows.append((name, old, new, notes))
    return failures, warnings, rows


def run_gate(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures, warnings, rows = compare(baseline, fresh, args.max_regress)
    opt_failures, opt_warnings = check_opt(fresh)
    failures += opt_failures
    warnings += opt_warnings
    fault_failures, fault_warnings = check_fault(baseline, fresh)
    failures += fault_failures
    warnings += fault_warnings
    sat_failures, sat_warnings = check_sat(baseline, fresh)
    failures += sat_failures
    warnings += sat_warnings
    pdr_failures, pdr_warnings = check_pdr(baseline, fresh)
    failures += pdr_failures
    warnings += pdr_warnings
    metrics_failures, metrics_warnings = check_metrics(baseline, fresh)
    failures += metrics_failures
    warnings += metrics_warnings

    print(f"{'config':>22} {'slices':>15} {'fmax_mhz':>19}")
    for name, old, new, notes in rows:
        def cell(metric):
            if notes.get(metric) == "skipped":
                return "   (skipped)"
            return f"{old[metric]:>5} -> {new[metric]:<6} {notes[metric]}"
        print(f"{name:>22} {cell('slices')} {cell('fmax_mhz')}")
    opt = fresh.get("opt", {})
    for group in ("wrapper", "system", "sweep"):
        for entry in opt.get(group, []):
            if "slices_unopt" in entry and "slices_opt" in entry:
                print(f"opt {entry.get('design', '?'):>24} "
                      f"{entry['slices_unopt']:>5} -> "
                      f"{entry['slices_opt']:<6}")
    util = (fresh.get("metrics") or {}).get("utilization")
    if util:
        for entry in util.get("suites", []):
            if "parallel_efficiency" in entry:
                print(f"util {entry.get('suite', '?'):>23}   "
                      f"parallel efficiency "
                      f"{entry['parallel_efficiency']:.3f}")
    for entry in fresh.get("fault", {}).get("entries", []):
        name = entry.get("design", "?")
        if entry.get("failed"):
            print(f"fault {name:>22}   FAILED")
        elif "control_seu_coverage" in entry:
            print(f"fault {name:>22}   ctrl-SEU coverage "
                  f"{entry['control_seu_coverage']:.3f}")
    for entry in fresh.get("sat", {}).get("entries", []):
        name = entry.get("design", "?")
        if entry.get("failed"):
            print(f"sat {name:>24}   FAILED")
        else:
            holds = all(entry.get(k) for k in SAT_INVARIANT_KEYS)
            if "proved_unbounded" not in entry:
                unbounded = ""
            elif entry["proved_unbounded"]:
                unbounded = (f" unbounded (k={entry.get('induction_k', '?')}"
                             f", {entry.get('pdr_frames', '?')} frames)")
            elif entry.get("pdr_degraded"):
                unbounded = " unbounded DEGRADED"
            else:
                unbounded = " unbounded UNPROVED"
            print(f"sat {name:>24}   bmc depth "
                  f"{entry.get('bmc_depth', '?'):>2} "
                  f"{'clean' if holds else 'VIOLATED'} sweep "
                  f"{entry.get('equiv_method', '?')}"
                  f"{'' if entry.get('equiv_proved') else ' UNPROVED'}"
                  f"{unbounded}")

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if failures:
        print("\nBench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nBench regression gate passed "
          f"(threshold {args.max_regress:.0%}).")
    return 0


def self_test():
    """Unit checks for the tolerance rules; returns a process exit code."""
    entry = {"inputs": 1, "outputs": 1, "relay_depth": 2,
             "encoding": "binary", "slices": 40, "fmax_mhz": 60.0}

    def entry_with(**kw):
        e = dict(entry)
        e.update(kw)
        return e

    checks = []

    # Identical results: clean pass.
    f, w, _ = compare({"wrapper": [entry]}, {"wrapper": [entry]}, 0.25)
    checks.append(("identical passes", not f and not w))

    # Real regressions still fail.
    f, _, _ = compare({"wrapper": [entry]},
                      {"wrapper": [entry_with(slices=60)]}, 0.25)
    checks.append(("slice regression fails", bool(f)))
    f, _, _ = compare({"wrapper": [entry]},
                      {"wrapper": [entry_with(fmax_mhz=40.0)]}, 0.25)
    checks.append(("fmax regression fails", bool(f)))

    # A dropped configuration fails.
    f, _, _ = compare({"wrapper": [entry]}, {"wrapper": []}, 0.25)
    checks.append(("dropped config fails", bool(f)))

    # A section present on only one side warns, never fails.
    f, w, _ = compare({"wrapper": [entry], "system": []},
                      {"wrapper": [entry], "sweep": {}}, 0.25)
    checks.append(("asymmetric sections warn", not f and len(w) == 2))

    # A key missing from one side's entry warns and skips, never crashes.
    slim = dict(entry)
    del slim["fmax_mhz"]
    f, w, _ = compare({"wrapper": [entry]}, {"wrapper": [slim]}, 0.25)
    checks.append(("missing key warns", not f and any("fmax" in x
                                                      for x in w)))
    f, w, _ = compare({"wrapper": [slim]},
                      {"wrapper": [entry_with(fmax_mhz=1.0)]}, 0.25)
    checks.append(("missing baseline key skips comparison", not f))

    # New fresh-side entries (added configs) are fine.
    f, w, _ = compare({"wrapper": [entry]},
                      {"wrapper": [entry, entry_with(inputs=2)]}, 0.25)
    checks.append(("added config passes", not f))

    # --- "opt" section invariants ---------------------------------------
    opt_entry = {"design": "wrapper_n1m1d2_binary", "slices_unopt": 40,
                 "slices_opt": 31, "equiv_proved": True}

    def opt_with(**kw):
        e = dict(opt_entry)
        e.update(kw)
        return e

    # Optimized never worse: the happy path passes cleanly.
    f, w = check_opt({"opt": {"wrapper": [opt_entry], "system": [],
                              "sweep": []}})
    checks.append(("opt improvement passes", not f and not w))
    # Equal slices are allowed (FF-bound designs can't shrink)...
    f, _ = check_opt({"opt": {"wrapper": [opt_with(slices_opt=40)]}})
    checks.append(("opt equal slices passes", not f))
    # ...but exceeding the unoptimized mapping fails, in any group.
    f, _ = check_opt({"opt": {"sweep": [opt_with(slices_opt=41)]}})
    checks.append(("opt regression fails", bool(f)))
    # A design whose equivalence proof did not run fails; a file that
    # predates the proof metric (key absent) only warns.
    f, _ = check_opt({"opt": {"wrapper": [opt_with(equiv_proved=False)]}})
    checks.append(("opt unproved fails", bool(f)))
    no_proof_key = dict(opt_entry)
    del no_proof_key["equiv_proved"]
    f, w = check_opt({"opt": {"wrapper": [no_proof_key]}})
    checks.append(("opt missing proof key warns", not f and bool(w)))
    # Missing keys warn and skip, never crash; a pre-optimizer fresh file
    # (no "opt" section at all) warns and passes.
    slim_opt = dict(opt_entry)
    del slim_opt["slices_opt"]
    f, w = check_opt({"opt": {"wrapper": [slim_opt]}})
    checks.append(("opt missing key warns", not f and bool(w)))
    f, w = check_opt({"wrapper": [entry]})
    checks.append(("absent opt section warns only", not f and bool(w)))

    # --- failed-config tolerance ----------------------------------------
    failed_row = {"inputs": 1, "outputs": 1, "relay_depth": 2,
                  "encoding": "binary", "failed": True}
    # A fresh config marked failed warns (the bench's exit code gates it)
    # instead of crashing on its missing metric keys.
    f, w, _ = compare({"wrapper": [entry]}, {"wrapper": [failed_row]}, 0.25)
    checks.append(("failed fresh config warns", not f and
                   any("failed" in x for x in w)))
    # A failed baseline entry is skipped the same way.
    f, w, _ = compare({"wrapper": [failed_row]}, {"wrapper": [entry]}, 0.25)
    checks.append(("failed baseline config warns", not f and bool(w)))
    f, w = check_opt({"opt": {"wrapper": [{"design": "w", "failed": True}]}})
    checks.append(("failed opt config warns", not f and bool(w)))

    # --- "fault" section coverage gate ----------------------------------
    fault_entry = {"design": "wrapper_n3m1d2_binary", "sites": 48,
                   "detected": 40, "recovered": 6, "silent": 1, "hang": 1,
                   "coverage": 0.958, "control_seu_sites": 32,
                   "control_seu_coverage": 1.0}

    def fault_with(**kw):
        e = dict(fault_entry)
        e.update(kw)
        return e

    def fault_file(entries):
        return {"fault": {"entries": entries}}

    # Healthy coverage against an identical baseline: clean pass.
    f, w = check_fault(fault_file([fault_entry]), fault_file([fault_entry]))
    checks.append(("fault coverage passes", not f and not w))
    # Below the absolute floor fails, baseline or not.
    f, _ = check_fault({}, fault_file([
        fault_with(control_seu_coverage=0.90)]))
    checks.append(("fault floor violation fails", bool(f)))
    # A drop beyond the slack relative to the baseline fails even when the
    # floor still holds.
    f, _ = check_fault(
        fault_file([fault_with(control_seu_coverage=1.0)]),
        fault_file([fault_with(control_seu_coverage=0.94)]))
    checks.append(("fault coverage drop fails", bool(f)))
    # Within the slack passes.
    f, _ = check_fault(
        fault_file([fault_with(control_seu_coverage=1.0)]),
        fault_file([fault_with(control_seu_coverage=0.97)]))
    checks.append(("fault coverage within slack passes", not f))
    # A baseline design dropped from the fresh section fails.
    f, _ = check_fault(fault_file([fault_entry]), fault_file([]))
    checks.append(("dropped fault design fails", bool(f)))
    # Failed campaign configs warn; a fresh file without the section warns.
    f, w = check_fault(fault_file([fault_entry]), fault_file([
        {"design": fault_entry["design"], "failed": True}]))
    checks.append(("failed fault config warns", not f and bool(w)))
    f, w = check_fault(fault_file([fault_entry]), {"wrapper": [entry]})
    checks.append(("absent fault section warns only", not f and bool(w)))

    # --- "sat" section verification gate --------------------------------
    sat_entry = {"design": "chain3_d1_binary", "sweep_candidates": 12,
                 "sweep_proved": 12, "sweep_refuted": 0,
                 "sweep_undecided": 0, "equiv_method": "sat",
                 "equiv_proved": True, "bmc_depth": 20,
                 "token_conservation_ok": True, "occupancy_bound_ok": True,
                 "deadlock_watchdog_ok": True, "proved_unbounded": True,
                 "pdr_degraded": False, "induction_k": 3, "pdr_frames": 22,
                 "pdr_clauses": 3000, "token_conservation_proved": True,
                 "occupancy_bound_proved": True,
                 "deadlock_watchdog_proved": True}

    def sat_with(**kw):
        e = dict(sat_entry)
        e.update(kw)
        return e

    def sat_file(entries):
        return {"sat": {"bmc_depth": 20, "entries": entries}}

    # Clean invariants at full depth with a proved sweep: passes.
    f, w = check_sat(sat_file([sat_entry]), sat_file([sat_entry]))
    checks.append(("sat clean entry passes", not f and not w))
    # Any violated invariant fails.
    f, _ = check_sat({}, sat_file([sat_with(token_conservation_ok=False)]))
    checks.append(("sat violated invariant fails", bool(f)))
    f, _ = check_sat({}, sat_file([sat_with(deadlock_watchdog_ok=False)]))
    checks.append(("sat watchdog violation fails", bool(f)))
    # BMC stopping short of the depth floor fails.
    f, _ = check_sat({}, sat_file([sat_with(bmc_depth=12)]))
    checks.append(("sat shallow bmc fails", bool(f)))
    # An unproved (degraded) sweep fails; so does a sim-screen method.
    f, _ = check_sat({}, sat_file([sat_with(equiv_proved=False)]))
    checks.append(("sat unproved sweep fails", bool(f)))
    f, _ = check_sat({}, sat_file([sat_with(equiv_method="sim")]))
    checks.append(("sat sim-screen method fails", bool(f)))
    # A baseline design dropped from the fresh entries fails.
    f, _ = check_sat(sat_file([sat_entry]), sat_file([]))
    checks.append(("dropped sat design fails", bool(f)))
    # Missing keys warn and skip; failed configs warn; a fresh file
    # without the section warns and passes.
    slim_sat = dict(sat_entry)
    del slim_sat["bmc_depth"]
    f, w = check_sat({}, sat_file([slim_sat]))
    checks.append(("sat missing key warns", not f and bool(w)))
    f, w = check_sat(sat_file([sat_entry]), sat_file([
        {"design": sat_entry["design"], "failed": True}]))
    checks.append(("failed sat config warns", not f and bool(w)))
    f, w = check_sat(sat_file([sat_entry]), {"wrapper": [entry]})
    checks.append(("absent sat section warns only", not f and bool(w)))

    # --- unbounded-proof (PDR) gate on the sat section -------------------
    # All proved for all time: clean pass.
    f, w = check_pdr(sat_file([sat_entry]), sat_file([sat_entry]))
    checks.append(("pdr all proved passes", not f and not w))
    # A verdict that degraded to the bounded bar fails, and the message
    # names the degradation rather than a phantom violation.
    f, _ = check_pdr({}, sat_file([
        sat_with(proved_unbounded=False, pdr_degraded=True)]))
    checks.append(("pdr degraded verdict fails",
                   bool(f) and any("degraded" in x for x in f)))
    # Plain unproved fails too.
    f, _ = check_pdr({}, sat_file([sat_with(proved_unbounded=False)]))
    checks.append(("pdr unproved fails", bool(f)))
    # Aggregate/per-property inconsistency fails.
    f, _ = check_pdr({}, sat_file([
        sat_with(occupancy_bound_proved=False)]))
    checks.append(("pdr inconsistent verdicts fail", bool(f)))
    # Pre-PDR bench output (no proved_unbounded key) warns and skips.
    pre_pdr = dict(sat_entry)
    for key in ("proved_unbounded", "pdr_degraded") + PDR_PROPERTY_KEYS:
        del pre_pdr[key]
    f, w = check_pdr({}, sat_file([pre_pdr]))
    checks.append(("pdr pre-engine entry warns", not f and bool(w)))
    # Failed configs are check_sat's business; check_pdr stays silent.
    f, w = check_pdr({}, sat_file([
        {"design": sat_entry["design"], "failed": True}]))
    checks.append(("pdr failed config silent", not f and not w))

    # --- "metrics" section gate -----------------------------------------
    def metrics_file(configs, utilization=None):
        return {"metrics": {"configs": configs,
                            "utilization": utilization}}

    good_row = {"suite": "wrapper", "design": "w",
                "counters": {"cosim.cycles": 2000, "proof.sat_conflicts": 99}}
    # Healthy configs with no utilization (untraced run): warns, passes.
    f, w = check_metrics({}, metrics_file([good_row]))
    checks.append(("metrics counters pass, absent utilization warns",
                   not f and bool(w)))
    # A required counter gone missing fails.
    bad_row = {"suite": "wrapper", "design": "w",
               "counters": {"cosim.cycles": 2000}}
    f, _ = check_metrics({}, metrics_file([bad_row]))
    checks.append(("metrics missing counter fails", bool(f)))
    # Failed configs and unknown suites warn, never fail.
    f, w = check_metrics({}, metrics_file(
        [{"suite": "wrapper", "design": "w", "failed": True},
         {"suite": "novel", "design": "x", "counters": {}}]))
    checks.append(("metrics failed/unknown rows warn", not f and len(w) >= 2))
    # No metrics section at all (pre-observability bench): warns, passes.
    f, w = check_metrics({}, {"wrapper": [entry]})
    checks.append(("absent metrics section warns only", not f and bool(w)))

    def util_file(eff):
        return metrics_file([], {"workers": 4, "suites": [
            {"suite": "sweep", "parallel_efficiency": eff}],
            "overall_parallel_efficiency": eff})

    # Efficiency above the floor passes; below it fails.
    f, _ = check_metrics({}, util_file(0.8))
    checks.append(("efficiency above floor passes", not f))
    f, _ = check_metrics({}, util_file(0.1))
    checks.append(("efficiency below floor fails", bool(f)))
    # A collapse relative to the baseline fails even above the floor.
    f, _ = check_metrics(util_file(1.2), util_file(0.45))
    checks.append(("efficiency collapse vs baseline fails", bool(f)))
    # Jitter within the slack passes.
    f, _ = check_metrics(util_file(0.9), util_file(0.5))
    checks.append(("efficiency jitter within slack passes", not f))
    # A baseline that ran more jobs than it had hardware threads is no
    # efficiency reference: the collapse check warns instead of failing,
    # while the absolute floor still applies.
    oversubscribed = util_file(1.2)
    oversubscribed["sweep"] = {"jobs": 4, "hardware_threads": 1}
    f, w = check_metrics(oversubscribed, util_file(0.45))
    checks.append(("oversubscribed baseline efficiency warns",
                   not f and any("hardware thread" in x for x in w)))
    f, _ = check_metrics(oversubscribed, util_file(0.1))
    checks.append(("oversubscribed baseline keeps the floor", bool(f)))
    # A baseline without utilization (older bench) never blocks.
    f, _ = check_metrics({"metrics": {"configs": []}}, util_file(0.8))
    checks.append(("missing baseline utilization passes", not f))
    # Null utilization in a timed parallel run (sweep.jobs > 1) fails:
    # spans are always recorded, so only broken instrumentation nulls it.
    timed_parallel = dict(metrics_file([]))
    timed_parallel["sweep"] = {"jobs": 4}
    f, _ = check_metrics({}, timed_parallel)
    checks.append(("null utilization in parallel run fails", bool(f)))
    # ...but serial and stripped runs (jobs <= 1 / 0) still warn and pass.
    stripped = dict(metrics_file([]))
    stripped["sweep"] = {"jobs": 0}
    f, w = check_metrics({}, stripped)
    checks.append(("null utilization in stripped run warns", not f
                   and bool(w)))

    # --- "--scale-gate" checks ------------------------------------------
    def scale_file(**kw):
        entries = [{"topology": t, "pearls": 256, "luts": 1000,
                    "synth_seconds": 0.1, "map_seconds": 0.1,
                    "cosim_seconds": 1.0}
                   for t in SCALE_REQUIRED_TOPOLOGIES]
        sweep = {"jobs": 4, "hardware_threads": 8,
                 "flow_wall_seconds": 60.0, "serial_wall_seconds": 150.0,
                 "speedup_vs_jobs1": 2.5, "serial_fraction_est": 0.2,
                 "scale_entries": entries}
        sweep.update(kw)
        return {"sweep": sweep}

    # A healthy parallel scale run on a big machine passes cleanly.
    f, w = check_scale(scale_file(), 600, 1.5)
    checks.append(("scale healthy run passes", not f and not w))
    # A dropped or failed topology fails — mesh32x32 completing the full
    # pipeline is part of the acceptance bar.
    short = scale_file()
    short["sweep"]["scale_entries"] = short["sweep"]["scale_entries"][:3]
    f, _ = check_scale(short, 600, 1.5)
    checks.append(("scale missing topology fails", bool(f)))
    broken = scale_file()
    broken["sweep"]["scale_entries"][3] = {"topology": "mesh32x32_d1",
                                           "failed": True}
    f, _ = check_scale(broken, 600, 1.5)
    checks.append(("scale failed topology fails", bool(f)))
    # Blowing the wall ceiling fails; a stripped wall (0) warns and skips.
    f, _ = check_scale(scale_file(flow_wall_seconds=700.0), 600, 1.5)
    checks.append(("scale wall over ceiling fails", bool(f)))
    f, w = check_scale(scale_file(flow_wall_seconds=0), 600, 1.5)
    checks.append(("scale stripped wall warns", not f and bool(w)))
    # Speedup below the floor fails on >= 4 hardware threads, but only
    # warns on an under-provisioned machine (nothing to measure there).
    f, _ = check_scale(scale_file(speedup_vs_jobs1=1.1), 600, 1.5)
    checks.append(("scale low speedup fails on big machine", bool(f)))
    f, w = check_scale(
        scale_file(speedup_vs_jobs1=0.98, hardware_threads=1), 600, 1.5)
    checks.append(("scale low speedup warns on small machine",
                   not f and bool(w)))
    # A serial run has no speedup to gate: warns and passes.
    f, w = check_scale(scale_file(jobs=1, speedup_vs_jobs1=1.0), 600, 1.5)
    checks.append(("scale serial run warns", not f and bool(w)))
    # A file without the sweep section fails: the gate was asked for
    # explicitly, so absence means the wrong bench mode ran.
    f, _ = check_scale({"wrapper": [entry]}, 600, 1.5)
    checks.append(("scale absent sweep section fails", bool(f)))

    ok = True
    for name, passed in checks:
        print(f"{'ok' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    parser.add_argument("--scale-gate", action="store_true",
                        help="gate a --suite scale run (pass its JSON as "
                             "the only positional argument)")
    parser.add_argument("--max-wall", type=float, default=600.0,
                        help="scale-gate wall-clock ceiling in seconds "
                             "(default 600)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="scale-gate parallel speedup floor on >= 4 "
                             "hardware threads (default 1.5)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.scale_gate:
        if args.baseline is None:
            parser.error("--scale-gate needs the scale-run JSON as its "
                         "positional argument")
        return run_scale_gate(args)
    if args.baseline is None or args.fresh is None:
        parser.error("BASELINE and FRESH are required (or --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
