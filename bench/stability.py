"""Run-to-run spread of the end-to-end metrics, and the determinism guard.

    python3 bench/stability.py --seeds 1-10                 # spread per workload
    python3 bench/stability.py --seeds 1-3 --sets 2         # plus repeat check
    python3 bench/stability.py --seeds 1,1,1,1,1            # one instance, repeated

Each run is a fresh ``run.py`` process with tracing off, one at a time.
For every workload and end-to-end metric it prints the median over the
seeds and the interquartile distance as a share of the median (quartiles
from ``statistics.quantiles(values, n=4)``), next to the bound declared in
BENCHMARK.json.  Every run of one seed must repeat the quality metrics
exactly.  With ``--sets 2`` every (workload, seed) runs twice and each
metric's second median must not differ from the first, in either
direction, by more than its bound.  Exits 1 when a run fails, a spread exceeds its bound, a median
shifts by more than its bound, or a quality metric does not repeat.

A seed may repeat (``--seeds 1,1,1,1,1``): the spread is then run-to-run
noise on one instance, while distinct seeds add the instance-to-instance
variation of the seed-dependent work.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import QUALITY
from run import HERE, OUT_DIR, ROOT, WORKLOAD_NAMES, parse_output


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative when better).

    The sets agree when its absolute value is within the metric's bound.
    """
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    # (workload, position in --seeds, set) -> parsed output
    runs: dict[tuple[str, int, int], dict] = {}
    problems = []
    for set_no in range(args.sets):
        for name in workloads:
            for pos, seed in enumerate(seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
                final, detail = parse_output(proc.stdout)
                print(f"set {set_no + 1} {name} seed {seed}: exit {proc.returncode} "
                      f"in {time.perf_counter() - t0:.1f} s", flush=True)
                if proc.returncode != 0 or final is None or not final["correct"]:
                    problems.append(f"{name} seed {seed} set {set_no + 1}: run failed "
                                    f"(exit {proc.returncode}) {proc.stderr[-500:]}")
                    continue
                runs[(name, pos, set_no)] = {"final": final, "detail": detail}

    summary = {}
    for name in workloads:
        print(f"\n{name}:")
        for metric, decl in declared.items():
            sets = [[runs[(name, pos, k)]["final"]["metrics"][metric]["value"]
                     for pos in range(len(seeds)) if (name, pos, k) in runs]
                    for k in range(args.sets)]
            if not sets[0]:
                continue
            for k, values in enumerate(sets):
                med, q1, q3, share = spread(values)
                ok = share <= decl["bound"]
                note = "" if share <= decl["bound"] / 3 else "  (above a third of the bound)"
                print(f"  set {k + 1} {metric:<12} median {med:.6g} {decl['unit']}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}  bound {decl['bound']}"
                      f"{'' if ok else '  SPREAD TOO WIDE'}{note}")
                if not ok:
                    problems.append(f"{name} {metric}: spread {share:.4f} > bound {decl['bound']}")
                summary.setdefault(name, {}).setdefault(metric, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values})
            if args.sets == 2 and sets[1]:
                shift = worse_by(statistics.median(sets[0]), statistics.median(sets[1]),
                                 decl["better"])
                ok = abs(shift) <= decl["bound"]
                print(f"  second median worse by {shift:+.4f} (bound {decl['bound']}): "
                      f"{'ok' if ok else 'MEDIANS DISAGREE BEYOND THE BOUND'}")
                if not ok:
                    problems.append(f"{name} {metric}: second median worse by {shift:+.4f}")
        by_seed: dict[int, list[dict]] = {}
        for (n, pos, _), r in runs.items():
            if n == name:
                by_seed.setdefault(seeds[pos], []).append(
                    {k: v for k, v in r["detail"]["detail"].items() if k in QUALITY})
        changed = [seed for seed, qs in by_seed.items() if any(q != qs[0] for q in qs)]
        for seed in changed:
            problems.append(f"{name} seed {seed}: quality differs between runs {by_seed[seed]}")
        if any(len(qs) > 1 for qs in by_seed.values()):
            print(f"  quality metrics repeat exactly for every seed: {not changed}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"stability-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "sets": args.sets, "summary": summary,
                   "runs": {f"{n}/{seeds[pos]}/{pos}/{k + 1}": v
                            for (n, pos, k), v in runs.items()},
                   "problems": problems}, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
