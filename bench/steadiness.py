#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: two sets of runs of the same code.

Usage (from the repository root):

    python3 bench/steadiness.py [--runs 10]

Runs every workload of BENCHMARK.json ``--runs`` times in set A (seeds 1,
2, ...) and again in set B (seeds 101, 102, ...), each run a fresh
``bench/run.py`` process lasting BENCHMARK.json's ``run_seconds``, and
prints per run its metrics and operation counts. It then prints, for each
workload and end-to-end metric, the median and quartiles of each set, the
spread (quartile distance over median) and the shift of set B's median from
set A's, next to the bound fixed in BENCHMARK.json. The spread of
``setup_s`` is shown but not held to its bound; its shift is. With
``--runs 1`` this is the one command that runs every workload to its end.
The summary is also written to ``bench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = {"A": 1, "B": 101}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in names}
    for set_name, base in SEED_BASE.items():
        for i in range(args.runs):
            for w in names:
                r = run_once(w, base + i, seconds)
                results[w][set_name].append(r)
                shown = ", ".join(
                    f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items()
                )
                print(f"set {set_name} {w:9s} seed {base + i:3d}: {shown}; "
                      f"attempted {r['attempted']} failed {r['failed']}", flush=True)

    summary = []
    ok = True
    print()
    print(f"{'workload':9s} {'metric':12s} {'set':3s} {'q1':>9s} {'median':>9s} "
          f"{'q3':>9s} {'spread':>7s} {'shift':>7s} {'bound':>6s}  verdict")
    for w in names:
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in results[w].items()}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in SEED_BASE:
                q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in results[w][s]])
                spread = (q3 - q1) / q2
                med[s] = q2
                steady = name == "setup_s" or spread <= bound
                shift = "" if s == "A" else f"{(q2 - med['A']) / med['A']:+7.1%}"
                held = steady and (s == "A" or abs(q2 - med["A"]) <= bound * med["A"])
                ok &= held
                print(f"{w:9s} {name:12s} {s:3s} {q1:9.4g} {q2:9.4g} {q3:9.4g} "
                      f"{spread:7.1%} {shift:>7s} {bound:6.0%}  {'ok' if held else 'OUT'}")
                summary.append({"workload": w, "metric": name, "set": s, "q1": q1,
                                "median": q2, "q3": q3, "spread": spread, "bound": bound})
        same = shares["A"] == shares["B"]
        ok &= same
        print(f"{w:9s} failed share A {shares['A']:.4g}, B {shares['B']:.4g}: "
              f"{'equal' if same else 'DIFFERENT'}")
    out = BENCH / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": seconds,
                               "summary": summary, "results": results}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; summary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
