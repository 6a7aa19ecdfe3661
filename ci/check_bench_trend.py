#!/usr/bin/env python3
"""Benchmark trend gate: compare fresh BENCH_*.json against committed baselines.

For every baseline file under --baseline-dir, the same-named fresh file under
--fresh-dir is checked and the build fails on a >tolerance (default 20%)
regression. Positional baseline names (e.g. ``BENCH_operators.json``) check
only those files, so one micro bench's fresh JSON can be checked on its own;
a named file with no baseline or no fresh artifact fails.

Two kinds of values are compared, with different tolerances:

  * top-level summary metrics (``--metrics-tolerance``, default 20%): these
    are machine-independent — simulated minutes and speedup ratios computed
    by deterministic models — so a tight gate is reliable. Direction is
    inferred from the name: metrics containing ``speedup`` or ``saved`` or
    ending in ``_x`` are gains and must not drop; otherwise metrics ending
    in ``_minutes``, ``_ns`` or ``_ns_per_op`` are costs and must not grow.
    Other metrics (counts like ``reorg_increments``) are informational only.
    A baseline key ``floor_<metric>`` declares an absolute minimum: the
    fresh run's ``<metric>`` must be >= the floor value, regardless of what
    the baseline recorded for the metric itself. Use this for same-machine
    ratios (e.g. ``floor_filter_simd_ratio``: the SIMD filter kernel must
    stay at least 2x its scalar fallback) — the ratio is deterministic in
    direction even though both absolute timings move with the machine.
    Symmetrically, ``ceiling_<metric>`` declares an absolute maximum: the
    fresh ``<metric>`` must stay <= the ceiling. Use this for cost metrics
    whose baseline value sits near zero, where a relative tolerance is
    meaningless (e.g. ``ceiling_arbitrated_ingest_stall_minutes``: bandwidth
    arbitration must keep the ingest stall bounded, or the regression fails
    CI even if the baseline measurement was tiny). Ceilings also gate
    same-machine ratios that hover around 1.0 — metrics ending in ``_ratio``
    are otherwise informational, but ``ceiling_telemetry_overhead_ratio``
    (1.05) turns bench_operators' ``telemetry_overhead_ratio`` into the
    enforced bound on the telemetry subsystem's instrumentation cost.
  * per-benchmark ``ns_per_op`` entries (``--entries-tolerance``, default
    100%): wall-clock micro timings. Absolute nanoseconds differ between
    the baseline machine and the CI runner, so raw ratios are normalized by
    the file's median fresh/baseline ratio first — a uniformly slower
    machine passes while a benchmark that regressed relative to its
    siblings fails. Even same-machine smoke runs (``--benchmark_min_time=
    0.05``) show up to ~70% per-entry noise, hence the loose default: this
    arm only catches gross regressions (a dropped fast path, a debug
    build); the tight trend gate lives in the deterministic metrics above.

For every ``<gate>_gate_vacuous`` key in a fresh file, one line reports
whether that floor gate was ``exercised`` or ``vacuous`` on this machine
(quoting the file's ``hardware_threads`` when present), so a CI log shows
which gates actually bit. These lines are informational only.

Refresh baselines with ``--refresh``: every fresh file that has a
same-named baseline is copied over it, to be committed alongside the change
that moved it. Put only the files to refresh in the fresh directory. The
refresh is all or nothing, and it refuses a file whose run left a floor
gate vacuous (any ``*_gate_vacuous`` key set: the machine had too few
threads to measure the gated ratio) or whose ``floor_*`` / ``ceiling_*``
keys differ from the baseline's (a refresh records new measurements; it
never moves a gate).
"""

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path


def load(path: Path) -> dict:
    with path.open() as f:
        return json.load(f)


def check_entries(name: str, base: dict, fresh: dict, tol: float) -> list:
    failures = []
    base_by_name = {e["name"]: e for e in base.get("benchmarks", [])}
    fresh_by_name = {e["name"]: e for e in fresh.get("benchmarks", [])}
    missing = sorted(set(base_by_name) - set(fresh_by_name))
    for m in missing:
        failures.append(f"{name}: benchmark '{m}' missing from fresh run")
    shared = sorted(set(base_by_name) & set(fresh_by_name))
    ratios = {}
    for n in shared:
        b = base_by_name[n]["ns_per_op"]
        f = fresh_by_name[n]["ns_per_op"]
        if b > 0 and f > 0:
            ratios[n] = f / b
    if not ratios:
        return failures
    med = statistics.median(ratios.values())
    if med <= 0:
        med = 1.0
    for n, r in sorted(ratios.items()):
        normalized = r / med
        if normalized > 1.0 + tol:
            failures.append(
                f"{name}: '{n}' regressed {100 * (normalized - 1):.1f}% "
                f"(machine-normalized; raw {ratios[n]:.3f}x, file median "
                f"{med:.3f}x)"
            )
    return failures


def gate_lines(name: str, fresh: dict) -> list:
    threads = fresh.get("hardware_threads")
    suffix = "" if threads is None else f" (hardware_threads={threads:g})"
    return [
        f"gate {name}: {key[:-len('_vacuous')]} "
        f"{'vacuous' if value else 'exercised'}{suffix}"
        for key, value in sorted(fresh.items())
        if key.endswith("_gate_vacuous")
    ]


def check_metrics(name: str, base: dict, fresh: dict, tol: float) -> list:
    failures = []
    for key, bval in base.items():
        if key == "benchmarks" or not isinstance(bval, (int, float)):
            continue
        if key.startswith("floor_"):
            target = key[len("floor_"):]
            fval = fresh.get(target)
            if not isinstance(fval, (int, float)):
                failures.append(
                    f"{name}: floor target '{target}' missing from fresh run")
            elif fval < bval:
                failures.append(
                    f"{name}: metric '{target}' = {fval:.4g} below required "
                    f"floor {bval:.4g}")
            continue
        if key.startswith("ceiling_"):
            target = key[len("ceiling_"):]
            fval = fresh.get(target)
            if not isinstance(fval, (int, float)):
                failures.append(
                    f"{name}: ceiling target '{target}' missing from fresh "
                    f"run")
            elif fval > bval:
                failures.append(
                    f"{name}: metric '{target}' = {fval:.4g} above allowed "
                    f"ceiling {bval:.4g}")
            continue
        if key not in fresh:
            failures.append(f"{name}: metric '{key}' missing from fresh run")
            continue
        fval = fresh[key]
        if not isinstance(fval, (int, float)) or bval <= 0:
            continue
        higher_better = ("speedup" in key or "saved" in key
                         or key.endswith("_x"))
        lower_better = not higher_better and key.endswith(
            ("_minutes", "_ns", "_ns_per_op"))
        if higher_better and fval < bval * (1.0 - tol):
            failures.append(
                f"{name}: metric '{key}' dropped {100 * (1 - fval / bval):.1f}% "
                f"({bval:.4g} -> {fval:.4g})"
            )
        elif lower_better and fval > bval * (1.0 + tol):
            failures.append(
                f"{name}: metric '{key}' grew {100 * (fval / bval - 1):.1f}% "
                f"({bval:.4g} -> {fval:.4g})"
            )
    return failures


def refresh_refusals(name: str, base: dict, fresh: dict) -> list:
    refusals = [
        f"{name}: gate '{key[:-len('_gate_vacuous')]}' was vacuous in the "
        f"fresh run" for key, value in sorted(fresh.items())
        if key.endswith("_gate_vacuous") and value
    ]
    bounds = sorted(key for key in set(base) | set(fresh)
                    if key.startswith(("floor_", "ceiling_")))
    refusals += [
        f"{name}: '{key}' would change ({base.get(key)} -> {fresh.get(key)})"
        for key in bounds if base.get(key) != fresh.get(key)
    ]
    return refusals


def refresh(baseline_dir: Path, fresh_dir: Path) -> int:
    pairs = [(fresh_path, baseline_dir / fresh_path.name)
             for fresh_path in sorted(fresh_dir.glob("BENCH_*.json"))
             if (baseline_dir / fresh_path.name).exists()]
    if not pairs:
        print(f"error: no fresh BENCH_*.json in {fresh_dir} has a baseline "
              f"in {baseline_dir}")
        return 2
    refusals = []
    for fresh_path, baseline_path in pairs:
        refusals += refresh_refusals(fresh_path.name, load(baseline_path),
                                     load(fresh_path))
    if refusals:
        print(f"refused: {len(refusals)} problem(s), no baseline written:")
        for r in refusals:
            print(f"  REFUSE {r}")
        return 1
    for fresh_path, baseline_path in pairs:
        shutil.copyfile(fresh_path, baseline_path)
        print(f"refreshed {baseline_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, required=True)
    parser.add_argument("--fresh-dir", type=Path, required=True)
    parser.add_argument(
        "names", nargs="*", metavar="BENCH_name.json",
        help="check only these baselines (default: every BENCH_*.json "
             "under --baseline-dir)")
    parser.add_argument(
        "--metrics-tolerance", type=float, default=0.20,
        help="allowed regression of deterministic summary metrics "
             "(default 0.20 = 20%%)")
    parser.add_argument(
        "--entries-tolerance", type=float, default=1.00,
        help="allowed machine-normalized regression of wall-clock "
             "ns_per_op entries (default 1.00 = 100%%; these are noisy)")
    parser.add_argument(
        "--refresh", action="store_true",
        help="copy each fresh file over its same-named baseline instead of "
             "checking (refuses vacuous gates and moved floors/ceilings)")
    args = parser.parse_args()

    if args.refresh:
        if args.names:
            parser.error("--refresh takes no baseline names; put only the "
                         "files to refresh in --fresh-dir")
        return refresh(args.baseline_dir, args.fresh_dir)

    failures = []
    if args.names:
        baselines = []
        for name in args.names:
            baseline_path = args.baseline_dir / name
            if baseline_path.exists():
                baselines.append(baseline_path)
            else:
                failures.append(
                    f"{name}: no baseline in {args.baseline_dir}")
    else:
        baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
        if not baselines:
            print(f"error: no BENCH_*.json baselines in {args.baseline_dir}")
            return 1

    checked = 0
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            failures.append(
                f"{baseline_path.name}: fresh artifact not found in "
                f"{args.fresh_dir} (bench not run?)")
            continue
        base = load(baseline_path)
        fresh = load(fresh_path)
        failures += check_entries(baseline_path.name, base, fresh,
                                  args.entries_tolerance)
        failures += check_metrics(baseline_path.name, base, fresh,
                                  args.metrics_tolerance)
        checked += 1
        print(f"checked {baseline_path.name}")
        for line in gate_lines(baseline_path.name, fresh):
            print(line)

    if failures:
        print(f"\n{len(failures)} benchmark regression(s) beyond tolerance "
              f"(metrics {args.metrics_tolerance:.0%}, entries "
              f"{args.entries_tolerance:.0%}):")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"\nOK: {checked} benchmark file(s) within tolerance (metrics "
          f"{args.metrics_tolerance:.0%}, entries "
          f"{args.entries_tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
