"""Run the benchmark over several seeds and summarise each metric by its quartiles.

    python3 benchmarks/collect.py --seeds 1-10                    # every workload, untraced
    python3 benchmarks/collect.py --workloads duality --seeds 1-5
    python3 benchmarks/collect.py --seeds 1-10 --trace --out benchmarks/baseline.json

Runs benchmarks/run.py once per workload and seed, one process at a time,
and prints per metric the median, the quartiles and their distance as a
share of the median (statistics.quantiles(values, n=4)), flagged when it
exceeds a third of the metric's bound in BENCHMARK.json. With --trace it
also makes one traced run per workload (the first seed) and reports its
per-layer metrics. --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"{platform.machine()}, {cpu}, {os.cpu_count()} CPUs"


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result: dict = {
        "python": platform.python_version(),
        "machine": machine(),
        "run_seconds": seconds, "seeds": args.seeds, "workloads": {},
    }
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry: dict = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["values"] = values
            entry["end_to_end"][name] = s
            flag = "  over a third of the bound" if name != "setup_s" and s["spread"] > bound / 3 else ""
            print(f"  {name:<12} median {s['median']:10.4f} {s['unit']:<4} quartiles "
                  f"{s['q1']:.4f} .. {s['q3']:.4f}  spread {s['spread']:.4f} (bound {bound}){flag}")
        if args.trace:
            traced = run(workload, args.seeds[0], seconds, 1)
            entry["traced_seed"] = args.seeds[0]
            entry["per_layer"] = traced["metrics"]
            for name, m in traced["metrics"].items():
                print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        result["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
