"""Benchmark regression gate: compare headline ratios against baselines.

CI runs the E14–E17 benchmarks in their smoke configuration
(``E*_SCALE=0.1``) and then calls this script to compare the freshly
written ``BENCH_*.json`` files against the committed smoke baselines::

    python benchmarks/check_regression.py \
        --baseline benchmarks/results/smoke --current benchmarks/results

A headline is a ratio-of-times measured on one host (speedup, overhead
ratio), so it transfers across machines far better than raw seconds —
but it does NOT transfer across workload sizes, so a comparison is only
made when the two files were produced at the same ``scale``; mismatched
scales are reported and skipped.  The gate fails (exit 1) when any
headline regresses by more than ``--tolerance`` (default 20%):

* *higher-is-better* headlines (E14 speedups) fail when
  ``current < baseline * (1 - tolerance)``;
* *lower-is-better* headlines (E15–E17 ratios and errors) fail when
  ``current > baseline * (1 + tolerance)``.

Headlines present in only one of the two directories are skipped, so
adding a new benchmark never breaks the gate before its baseline lands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: headline extractors: file stem -> list of (label, value, higher_is_better)
def _headlines(payload: dict) -> list[tuple[str, float, bool]]:
    experiment = payload.get("experiment")
    if experiment == "E14":
        return [
            (f"E14 {entry['series']} batch speedup", entry["speedup"], True)
            for entry in payload.get("e1_workload", [])
            if "speedup" in entry
        ]
    if experiment == "E15":
        return [
            ("E15 tracing overhead ratio", payload["overhead_ratio"], False)
        ]
    if experiment == "E16":
        return [
            ("E16 sketch max rel error", payload["sketch_max_rel_err"], False),
        ]
    if experiment == "E17":
        return [
            (
                "E17 record overhead ratio",
                payload["record_overhead_ratio"],
                False,
            ),
            # Baseline is 0, so any divergence at all fails the gate —
            # replay fidelity is a correctness property, not a timing.
            ("E17 replay divergences", payload["replay_divergences"], False),
        ]
    return []


def _load(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"  ! cannot read {path}: {error}")
        return None


def compare(
    baseline_dir: Path, current_dir: Path, tolerance: float
) -> tuple[list[str], int]:
    """Failure messages plus the number of headlines actually compared."""
    failures: list[str] = []
    compared = 0
    for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            print(f"  - {baseline_path.name}: no current run, skipped")
            continue
        baseline = _load(baseline_path)
        current = _load(current_path)
        if baseline is None or current is None:
            continue
        if baseline.get("scale") != current.get("scale"):
            print(
                f"  - {baseline_path.name}: scale mismatch "
                f"(baseline {baseline.get('scale')} vs current "
                f"{current.get('scale')}), skipped"
            )
            continue
        current_values = {
            label: value for label, value, _ in _headlines(current)
        }
        for label, base_value, higher_is_better in _headlines(baseline):
            if label not in current_values:
                print(f"  - {label}: missing from current run, skipped")
                continue
            value = current_values[label]
            compared += 1
            if higher_is_better:
                floor = base_value * (1.0 - tolerance)
                ok = value >= floor
                bound = f">= {floor:.4g}"
            else:
                ceiling = base_value * (1.0 + tolerance)
                ok = value <= ceiling
                bound = f"<= {ceiling:.4g}"
            verdict = "ok" if ok else "REGRESSED"
            print(
                f"  {'-' if ok else '!'} {label}: {value:.4g} "
                f"(baseline {base_value:.4g}, needs {bound}) [{verdict}]"
            )
            if not ok:
                failures.append(
                    f"{label}: {value:.4g} vs baseline {base_value:.4g} "
                    f"(tolerance {tolerance:.0%})"
                )
    return failures, compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current", type=Path, required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed relative regression before failing (default 0.2)",
    )
    args = parser.parse_args(argv)
    print(
        f"comparing {args.current} against baselines in {args.baseline} "
        f"(tolerance {args.tolerance:.0%})"
    )
    failures, compared = compare(args.baseline, args.current, args.tolerance)
    if not compared:
        print("no comparable headlines found — check the directories")
        return 1
    if failures:
        print(f"\n{len(failures)} headline(s) regressed:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nall {compared} headline(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
