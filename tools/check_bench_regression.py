#!/usr/bin/env python3
"""Gate CI on the per-design rows of BENCH_sim.json.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--max-regress 0.25]
       check_bench_regression.py --scale-gate FRESH.json [--max-wall 600]
                                 [--min-speedup 1.5]
       check_bench_regression.py --self-test

Every flow design is one row of "metrics.configs", {"suite", "design",
"failed", "counters", "seconds"}, keyed here by (suite, design). The
counters are deterministic pass outputs, so the rules trip on real
regressions, never on runner noise. Each rule table is evaluated by one
loop:

- ABSOLUTE_RULES, (suite, counter, op, bound, message): every fresh,
  non-failed row of the suite must satisfy `counter op bound`. Among them:
  every output of a standard-suite cosim delivered a token
  (cosim.min_tokens_per_output > 0), and every campaign drew a
  control-register SEU (fault.control_seu_sites > 0), without which its
  control-SEU coverage reads a vacuous 1.0.
- RELATIVE_RULES, (suite, counter, better, slack): the fresh value may be
  worse than the baseline row's by at most slack, an absolute margin, or
  the --max-regress ratio when slack is None.
- PAIR_RULES, (counter, message): a "<suite>_opt" row's counter must not
  exceed the same design's counter in "<suite>".
- A non-failed baseline row missing from the fresh file fails.

A counter a rule reads that is missing from a fresh, non-failed row fails:
the instrumentation broke. Missing only from the baseline row, it warns,
so new counters land without a baseline flag-day. Rows the bench marked
`"failed": true` warn and are skipped; the bench's own non-zero exit
gates them.

check_metrics gates the sweep suite's executor utilization (see its
docstring), and --scale-gate gates a --suite scale run instead of
comparing against a baseline: every scale topology present and not
failed, every scale row's cosim delivering a token on every output, the
flow wall under --max-wall, and, on >= 4 hardware threads, a parallel
speedup of at least --min-speedup. --self-test runs the
built-in unit checks of all of these (invoked from CI and ctest).
"""

import argparse
import json
import operator
import sys

OPS = {"==": operator.eq, "!=": operator.ne, ">": operator.gt,
       ">=": operator.ge}

STANDARD_SUITES = ("wrapper", "system", "sweep", "scale")
OPT_SUITES = ("wrapper_opt", "system_opt", "sweep_opt")
PROTOCOL_INVARIANTS = ("token_conservation", "occupancy_bound",
                       "deadlock_watchdog")
SIM_SCREEN = 0  # netlist::EquivMethod::Sim, as sweep.equiv_method records it

# (suite, counter, op, bound, message). A ">= 0" rule on a count only
# requires the counter to be present.
ABSOLUTE_RULES = (
    [(s, "cosim.cycles", ">", 0, "co-simulation ran no cycles")
     for s in STANDARD_SUITES]
    + [(s, "cosim.min_tokens_per_output", ">", 0,
        "co-simulation delivered no token on some output (vacuous run)")
       for s in STANDARD_SUITES]
    + [(s, "proof.sat_conflicts", ">=", 0, "encoding-proof SAT counters")
       for s in STANDARD_SUITES]
    + [(s, "aig.equiv_proved", "==", 1,
        "equivalence not proved for the optimized design")
       for s in OPT_SUITES]
    + [(s, "aig.ands_after", ">", 0, "optimized AIG is empty")
       for s in OPT_SUITES]
    + [(s, "aig.rewrite_adoptions", ">=", 0, "AIG rewrite counters")
       for s in OPT_SUITES]
    + [(s, "aig.cuts_enumerated", ">", 0, "AIG rewriting enumerated no cuts")
       for s in OPT_SUITES]
    + [("fault", "fault.sites", ">", 0, "campaign injected no faults"),
       ("fault", "fault.control_seu_sites", ">", 0,
        "campaign drew no control-register SEU (no *_s_<n> state register "
        "found), so its coverage of 1.0 is vacuous"),
       ("fault", "fault.control_seu_coverage", ">=", 0.95,
        "control-SEU detection-or-recovery coverage below the 0.95 floor")]
    + [("sat", f"bmc.{p}_ok", "==", 1, f"protocol invariant {p} violated")
       for p in PROTOCOL_INVARIANTS]
    + [("sat", "bmc.depth", ">=", 20, "BMC depth below the 20 floor"),
       ("sat", "sweep.equiv_proved", "==", 1,
        "sweep equivalence not proved (degraded or failed soundness check)"),
       ("sat", "sweep.equiv_method", "!=", SIM_SCREEN,
        "sweep soundness degraded to the simulation screen"),
       ("sat", "pdr.all_proved", "==", 1,
        "protocol invariants not proved unbounded"),
       ("sat", "pdr.degraded", "==", 0,
        "unbounded proof degraded to the bounded verdict (solver budget or "
        "frame cap exhausted)"),
       ("sat", "pdr.certified", "==", 1,
        "unbounded proof failed its inductive-invariant certificate")]
    + [("sat", f"pdr.{p}_proved", "==", 1, f"{p} not proved unbounded")
       for p in PROTOCOL_INVARIANTS]
    + [("sat", c, ">=", 0, "SAT engine counters")
       for c in ("sat.conflicts", "sat.decisions", "sat.propagations",
                 "pdr.frames")]
)

# (suite, counter, better, slack).
RELATIVE_RULES = (
    ("wrapper", "map.slices", "lower", None),
    ("wrapper", "sta.fmax_mhz", "higher", None),
    ("fault", "fault.control_seu_coverage", "higher", 0.05),
)

# (counter, message), read from a "<suite>_opt" row and its "<suite>" twin.
PAIR_RULES = (
    ("map.slices", "optimized mapping needs more slices than the "
                   "unoptimized one"),
)


def rows_of(doc):
    """{(suite, design): row} over the file's metrics.configs."""
    configs = (doc.get("metrics") or {}).get("configs") or []
    return {(r.get("suite"), r.get("design")): r for r in configs}


def label(key):
    return f"{key[0]} {key[1]}"


def is_worse(new, old, better, slack, max_regress):
    if slack is None:
        limit = 1.0 + max_regress
        return new > old * limit if better == "lower" else new < old / limit
    return new > old + slack if better == "lower" else new < old - slack


def check_rows(baseline, fresh, max_regress):
    """Evaluates the rule tables.

    Returns (failures, warnings, compared): lists of human-readable
    strings, compared holding one line per baseline-relative comparison.
    """
    failures = []
    warnings = []
    compared = []
    base_rows = rows_of(baseline)
    fresh_rows = rows_of(fresh)
    live = {}
    for key, row in fresh_rows.items():
        if row.get("failed"):
            warnings.append(f"{label(key)}: config failed in the bench run; "
                            f"rules skipped (the bench exit gates it)")
        else:
            live[key] = row
    missing = set()

    def value(key, counter):
        counters = live[key].get("counters") or {}
        if counter not in counters:
            missing.add((key, counter))
        return counters.get(counter)

    for suite, counter, op, bound, message in ABSOLUTE_RULES:
        for key in live:
            if key[0] != suite:
                continue
            v = value(key, counter)
            if v is not None and not OPS[op](v, bound):
                failures.append(f"{label(key)}: {message} "
                                f"({counter} = {v})")

    for suite, counter, better, slack in RELATIVE_RULES:
        for key, old_row in base_rows.items():
            if key[0] != suite or old_row.get("failed") or key not in live:
                continue
            new = value(key, counter)
            old = (old_row.get("counters") or {}).get(counter)
            if old is None:
                warnings.append(f'{label(key)}: baseline row lacks "{counter}"'
                                f"; not compared")
                continue
            if new is None:
                continue
            bad = is_worse(new, old, better, slack, max_regress)
            compared.append(f"{label(key)}: {counter} {old} -> {new} "
                            f"{'REGRESSED' if bad else 'ok'}")
            if bad:
                margin = (f"{1.0 + max_regress:.2f}x" if slack is None
                          else f"{slack:.2f}")
                failures.append(f"{label(key)}: {counter} {old} -> {new} "
                                f"(worse by more than {margin})")

    for counter, message in PAIR_RULES:
        for key in live:
            if not key[0].endswith("_opt"):
                continue
            base_key = (key[0][:-len("_opt")], key[1])
            if base_key not in live:
                continue
            opt, unopt = value(key, counter), value(base_key, counter)
            if opt is not None and unopt is not None and opt > unopt:
                failures.append(f"{label(key)}: {message} ({counter} "
                                f"{unopt} -> {opt})")

    for key, old_row in base_rows.items():
        if old_row.get("failed"):
            warnings.append(f"{label(key)}: baseline row marked failed; "
                            f"not compared")
        elif key not in fresh_rows:
            failures.append(f"{label(key)}: missing from fresh results")

    for key, counter in sorted(missing):
        failures.append(f'{label(key)}: required counter "{counter}" '
                        f"missing")
    return failures, warnings, compared


# The sweep suite (the long, many-design section) must keep the executor
# meaningfully busy. The floor is deliberately generous — utilization is
# wall-clock-derived and CI machines are noisy — and the relative slack
# only catches a collapse, not jitter.
PARALLEL_EFFICIENCY_FLOOR = 0.30
PARALLEL_EFFICIENCY_SLACK = 0.60


def check_metrics(baseline, fresh):
    """Gate the executor utilization of the "metrics" section.

    Returns (failures, warnings). Utilization is *required* of timed
    parallel runs (sweep.jobs > 1): the bench measures every suite's
    process CPU and wall around its runMany, parallel_efficiency being
    cpu / (jobs x wall), so a null there means the instrumentation broke.
    Serial or --strip-times runs (jobs <= 1, where jobs is emitted as 0)
    warn and skip. The sweep suite's parallel_efficiency must clear an
    absolute floor and not collapse relative to the baseline; a baseline
    recorded with more jobs than hardware threads measured time slicing,
    not parallelism, so the relative comparison only warns there.
    """
    failures = []
    warnings = []
    util = (fresh.get("metrics") or {}).get("utilization")
    if not util:
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


# The production-scale designs --suite scale must carry end to end, and
# the thread count below which the speedup check is unmeasurable.
SCALE_REQUIRED_DESIGNS = ("pipe256_d1_binary", "pipe1024_d1_binary",
                          "mesh16x16_d1_binary", "mesh32x32_d1_binary")
SCALE_MIN_HW_THREADS = 4


def check_scale(fresh, max_wall, min_speedup):
    """Gate a --suite scale bench run (no baseline involved).

    Returns (failures, warnings). Fails when a required scale row is
    missing or failed, when a scale row's cosim left an output without a
    token, when the flow wall exceeds max_wall, or when a
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

    rows = rows_of(fresh)
    for name in SCALE_REQUIRED_DESIGNS:
        row = rows.get(("scale", name))
        if row is None:
            failures.append(f"scale {name}: missing from the scale rows")
        elif row.get("failed"):
            failures.append(f"scale {name}: pipeline failed")
    for (suite, name), row in rows.items():
        if suite != "scale" or row.get("failed"):
            continue
        least = (row.get("counters") or {}).get("cosim.min_tokens_per_output")
        if least is None:
            failures.append(f'scale {name}: required counter '
                            f'"cosim.min_tokens_per_output" missing')
        elif least <= 0:
            failures.append(f"scale {name}: co-simulation delivered no token "
                            f"on some output (vacuous run)")

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


def finish(failures, warnings, title, passed):
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if failures:
        print(f"\n{title} FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\n{passed}")
    return 0


def run_scale_gate(args):
    with open(args.baseline) as f:
        fresh = json.load(f)
    failures, warnings = check_scale(fresh, args.max_wall, args.min_speedup)
    for (suite, name), row in rows_of(fresh).items():
        if suite != "scale":
            continue
        if row.get("failed"):
            print(f"scale {name:>20}   FAILED")
            continue
        counters = row.get("counters") or {}
        seconds = row.get("seconds") or {}
        print(f"scale {name:>20}   {counters.get('synth.pearls', '?'):>5} "
              f"pearls {counters.get('map.luts', '?'):>7} LUT  "
              f"synth {seconds.get('synthesize', 0):.3f}s  "
              f"map {seconds.get('map', 0):.3f}s  "
              f"cosim {seconds.get('cosim', 0):.3f}s")
    sweep = fresh.get("sweep") or {}
    print(f"scale wall {sweep.get('flow_wall_seconds', 0):.1f}s, speedup "
          f"{sweep.get('speedup_vs_jobs1', 0):.2f}x at --jobs "
          f"{sweep.get('jobs', 0)} ({sweep.get('hardware_threads', 0)} hw "
          f"threads), serial fraction "
          f"{sweep.get('serial_fraction_est', 0):.2f}")
    return finish(failures, warnings, "Scale gate", "Scale gate passed.")


def run_gate(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures, warnings, compared = check_rows(baseline, fresh,
                                              args.max_regress)
    util_failures, util_warnings = check_metrics(baseline, fresh)
    failures += util_failures
    warnings += util_warnings

    print(f"{len(rows_of(fresh))} fresh rows against "
          f"{len(rows_of(baseline))} baseline rows")
    for line in compared:
        print(line)
    util = (fresh.get("metrics") or {}).get("utilization")
    for entry in (util or {}).get("suites", []):
        if "parallel_efficiency" in entry:
            print(f"util {entry.get('suite', '?'):>12}: parallel efficiency "
                  f"{entry['parallel_efficiency']:.3f}")
    return finish(failures, warnings, "Bench regression gate",
                  f"Bench regression gate passed (threshold "
                  f"{args.max_regress:.0%}).")


def self_test():
    """Unit checks for the gate rules; returns a process exit code."""

    def row(suite, design, counters, failed=False):
        return {"suite": suite, "design": design, "failed": failed,
                "counters": dict(counters)}

    def changed(r, updates):
        """r with counters updated; a None value deletes the counter."""
        out = dict(r, counters=dict(r["counters"]))
        for name, value in updates.items():
            if value is None:
                del out["counters"][name]
            else:
                out["counters"][name] = value
        return out

    def doc(*rows):
        return {"metrics": {"configs": list(rows), "utilization": None}}

    standard = {"cosim.cycles": 2000, "cosim.min_tokens_per_output": 91,
                "proof.sat_conflicts": 44}
    wrapper = row("wrapper", "w", dict(standard, **{
        "map.slices": 40, "sta.fmax_mhz": 60.0}))
    system = row("system", "s", dict(standard, **{"map.slices": 100}))
    opt = {"aig.equiv_proved": 1, "aig.ands_after": 170,
           "aig.rewrite_adoptions": 77, "aig.cuts_enumerated": 2742}
    wrapper_opt = row("wrapper_opt", "w", dict(opt, **{"map.slices": 31}))
    system_opt = row("system_opt", "s", dict(opt, **{"map.slices": 90}))
    fault = row("fault", "f", {"fault.sites": 52,
                               "fault.control_seu_sites": 32,
                               "fault.control_seu_coverage": 1.0})
    sat = row("sat", "c", {
        "bmc.depth": 20, "sweep.equiv_proved": 1, "sweep.equiv_method": 2,
        "pdr.all_proved": 1, "pdr.degraded": 0, "pdr.certified": 1,
        "pdr.frames": 38,
        "sat.conflicts": 22982, "sat.decisions": 10449225,
        "sat.propagations": 80798306,
        **{f"bmc.{p}_ok": 1 for p in PROTOCOL_INVARIANTS},
        **{f"pdr.{p}_proved": 1 for p in PROTOCOL_INVARIANTS}})
    base = doc(wrapper, system, wrapper_opt, system_opt, fault, sat)

    def but(*replacements, drop=()):
        """The healthy file with rows replaced (same key) or dropped."""
        by_key = {(r["suite"], r["design"]): r
                  for r in base["metrics"]["configs"]}
        for r in replacements:
            by_key[(r["suite"], r["design"])] = r
        for key in drop:
            del by_key[key]
        return doc(*by_key.values())

    # (name, baseline, fresh, expectation, substring of some failure).
    # "clean": no failures or warnings; "pass": no failures; "warn": no
    # failures but warnings; "fail": failures.
    cases = [
        ("identical files pass cleanly", base, base, "clean", ""),
        ("added row passes", base,
         but(row("wrapper", "w2", wrapper["counters"])), "clean", ""),
        ("wrapper slice regression fails", base,
         but(changed(wrapper, {"map.slices": 60})), "fail", "map.slices"),
        ("wrapper slices within threshold pass", base,
         but(changed(wrapper, {"map.slices": 49})), "clean", ""),
        ("wrapper fmax regression fails", base,
         but(changed(wrapper, {"sta.fmax_mhz": 40.0})), "fail",
         "sta.fmax_mhz"),
        ("dropped wrapper config fails", base,
         but(drop=[("wrapper", "w")]), "fail", "missing from fresh"),
        ("dropped system row fails", base,
         but(drop=[("system", "s")]), "fail", "missing from fresh"),
        ("opt more slices than unopt fails", base,
         but(changed(system_opt, {"map.slices": 101})), "fail", "more slices"),
        ("opt equal slices pass", base,
         but(changed(system_opt, {"map.slices": 100})), "clean", ""),
        ("opt unproved fails", base,
         but(changed(wrapper_opt, {"aig.equiv_proved": 0})), "fail",
         "not proved"),
        ("fault floor violation fails", {},
         but(changed(fault, {"fault.control_seu_coverage": 0.90})), "fail",
         "0.95 floor"),
        ("fault coverage drop beyond slack fails",
         but(changed(fault, {"fault.control_seu_coverage": 1.0})),
         but(changed(fault, {"fault.control_seu_coverage": 0.94})),
         "fail", "worse by more than 0.05"),
        ("fault coverage within slack passes", base,
         but(changed(fault, {"fault.control_seu_coverage": 0.97})), "clean",
         ""),
        ("no control-register SEU fails", base,
         but(changed(fault, {"fault.control_seu_sites": 0})), "fail",
         "vacuous"),
        ("dropped fault design fails", base,
         but(drop=[("fault", "f")]), "fail", "missing from fresh"),
        ("sat violated invariant fails", base,
         but(changed(sat, {"bmc.token_conservation_ok": 0})), "fail",
         "token_conservation violated"),
        ("sat watchdog violation fails", base,
         but(changed(sat, {"bmc.deadlock_watchdog_ok": 0})), "fail",
         "deadlock_watchdog violated"),
        ("sat shallow bmc fails", base,
         but(changed(sat, {"bmc.depth": 12})), "fail", "BMC depth"),
        ("sat unproved sweep fails", base,
         but(changed(sat, {"sweep.equiv_proved": 0})), "fail", "sweep"),
        ("sat sim-screen method fails", base,
         but(changed(sat, {"sweep.equiv_method": SIM_SCREEN})), "fail",
         "simulation screen"),
        ("dropped sat design fails", base,
         but(drop=[("sat", "c")]), "fail", "missing from fresh"),
        ("pdr unproved fails", base,
         but(changed(sat, {"pdr.all_proved": 0})), "fail", "not proved"),
        ("pdr degraded verdict fails naming the degradation", base,
         but(changed(sat, {"pdr.all_proved": 0, "pdr.degraded": 1})), "fail",
         "degraded"),
        ("pdr uncertified proof fails", base,
         but(changed(sat, {"pdr.certified": 0})), "fail", "certificate"),
        ("pdr inconsistent verdicts fail", base,
         but(changed(sat, {"pdr.occupancy_bound_proved": 0})), "fail",
         "occupancy_bound not proved"),
        ("missing required counter fails", base,
         but(changed(wrapper, {"cosim.cycles": None})), "fail",
         '"cosim.cycles" missing'),
        ("vacuous cosim fails", base,
         but(changed(system, {"cosim.min_tokens_per_output": 0})), "fail",
         "vacuous run"),
        ("missing min-tokens counter fails", base,
         but(changed(wrapper, {"cosim.min_tokens_per_output": None})), "fail",
         '"cosim.min_tokens_per_output" missing'),
        ("missing pair counter fails", base,
         but(changed(system, {"map.slices": None})), "fail",
         '"map.slices" missing'),
        ("counter missing only from baseline warns",
         but(changed(wrapper, {"sta.fmax_mhz": None})), base, "warn", ""),
        ("new counter in fresh rows passes", base,
         but(changed(sat, {"sat.restarts": 3})), "clean", ""),
        ("failed fresh row warns", base,
         but(row("wrapper", "w", {}, failed=True)), "warn", ""),
        ("failed baseline row warns", but(row("fault", "f", {}, failed=True)),
         base, "warn", ""),
        ("no rows at all fails", base, {}, "fail", "missing from fresh"),
    ]
    checks = []
    for name, old, new, expect, needle in cases:
        f, w, _ = check_rows(old, new, 0.25)
        ok = {"clean": not f and not w, "pass": not f,
              "warn": not f and bool(w), "fail": bool(f)}[expect]
        if needle:
            ok = ok and any(needle in x for x in f)
        checks.append((name, ok))

    # --- utilization (check_metrics) -------------------------------------
    def util_file(eff):
        d = doc()
        d["metrics"]["utilization"] = {
            "workers": 4, "suites": [
                {"suite": "sweep", "parallel_efficiency": eff}],
            "overall_parallel_efficiency": eff}
        return d

    f, w = check_metrics({}, doc())
    checks.append(("absent utilization warns", not f and bool(w)))
    f, _ = check_metrics({}, util_file(0.8))
    checks.append(("efficiency above floor passes", not f))
    f, _ = check_metrics({}, util_file(0.1))
    checks.append(("efficiency below floor fails", bool(f)))
    # A collapse relative to the baseline fails even above the floor.
    f, _ = check_metrics(util_file(1.2), util_file(0.45))
    checks.append(("efficiency collapse vs baseline fails", bool(f)))
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
    f, _ = check_metrics(doc(), util_file(0.8))
    checks.append(("missing baseline utilization passes", not f))
    # Null utilization in a timed parallel run (sweep.jobs > 1) fails:
    # every timed run measures it, so only broken instrumentation nulls it.
    timed_parallel = doc()
    timed_parallel["sweep"] = {"jobs": 4}
    f, _ = check_metrics({}, timed_parallel)
    checks.append(("null utilization in parallel run fails", bool(f)))
    stripped = doc()
    stripped["sweep"] = {"jobs": 0}
    f, w = check_metrics({}, stripped)
    checks.append(("null utilization in stripped run warns",
                   not f and bool(w)))

    # --- "--scale-gate" checks ------------------------------------------
    def scale_file(rows=None, **kw):
        if rows is None:
            rows = [row("scale", n, {"synth.pearls": 256, "map.luts": 1000,
                                     "cosim.min_tokens_per_output": 300})
                    for n in SCALE_REQUIRED_DESIGNS]
        d = doc(*rows)
        d["sweep"] = {"jobs": 4, "hardware_threads": 8,
                      "flow_wall_seconds": 60.0, "serial_wall_seconds": 150.0,
                      "speedup_vs_jobs1": 2.5, "serial_fraction_est": 0.2}
        d["sweep"].update(kw)
        return d

    healthy = scale_file()["metrics"]["configs"]
    f, w = check_scale(scale_file(), 600, 1.5)
    checks.append(("scale healthy run passes", not f and not w))
    # A dropped or failed topology fails — mesh32x32 completing the full
    # pipeline is part of the acceptance bar.
    f, _ = check_scale(scale_file(healthy[:3]), 600, 1.5)
    checks.append(("scale missing topology fails", bool(f)))
    f, _ = check_scale(scale_file(healthy[:3] + [
        row("scale", "mesh32x32_d1_binary", {}, failed=True)]), 600, 1.5)
    checks.append(("scale failed topology fails", bool(f)))
    # A row whose cosim left some output without a token fails: a run
    # shorter than the fill latency checks nothing. A missing count fails
    # too.
    vacuous = changed(healthy[1], {"cosim.min_tokens_per_output": 0})
    f, _ = check_scale(scale_file([healthy[0], vacuous] + healthy[2:]),
                       600, 1.5)
    checks.append(("scale vacuous cosim fails",
                   any("pipe1024_d1_binary" in x and "vacuous" in x
                       for x in f)))
    uncounted = changed(healthy[1], {"cosim.min_tokens_per_output": None})
    f, _ = check_scale(scale_file([healthy[0], uncounted] + healthy[2:]),
                       600, 1.5)
    checks.append(("scale missing min-tokens counter fails",
                   any("missing" in x for x in f)))
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
    f, w = check_scale(scale_file(jobs=1, speedup_vs_jobs1=1.0), 600, 1.5)
    checks.append(("scale serial run warns", not f and bool(w)))
    # A file without the sweep section fails: the gate was asked for
    # explicitly, so absence means the wrong bench mode ran.
    f, _ = check_scale(doc(), 600, 1.5)
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
