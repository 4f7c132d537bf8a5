"""Benchmark of the entwine CLI: seeded documents, closed-loop commands, checked verdicts.

    python3 benchmarks/run.py --workload laws --seed 1 --seconds 20 --trace 0

One client in one process, no threads: each command goes to
`entwine.cli.run_command` (parse, verify, render) when the previous one has
returned, and its exit code and verdict lines are checked against what the
input was built to give. The timed pass runs whole cycles of the workload's
deck until --seconds is reached, so every run measures the same command mix.

--trace 0 prints the end-to-end metrics, rescaled to a reference CPU speed
(see speed.py). --trace 1 runs one cycle plain and one cycle with spans
around every layer (see tracing.py), prints the per-layer metrics in wall
time and writes the spans under .bench_build/traces/.
The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_CYCLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("laws", "dense_basis", "duality"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Build, verify and write the deck once; returns (deck, start, end)."""
    from entwine import catalog
    import workloads

    start = time.perf_counter()
    catalog._CACHE.clear()   # every repetition starts cold, as a fresh process does
    deck = workloads.build(workload, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for name, text in deck.docs.items():
        (workdir / name).write_text(text)
    return deck, start, time.perf_counter()


def run_one(command, workdir: Path):
    """Run one command; returns (start, end, failure message or None)."""
    from entwine import cli

    argv = [command.args[0], str(workdir / command.doc), *command.args[1:]]
    start = time.perf_counter()
    try:
        code, text = cli.run_command(argv)
    except Exception as exc:  # an uncaught exception is a failed operation, not a crash
        return start, time.perf_counter(), f"{command.label}: raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    lines = text.splitlines()
    if code != command.code:
        return start, end, f"{command.label}: exit {code}, expected {command.code}"
    for want in command.expect:
        if not any(line.startswith(want) for line in lines):
            return start, end, f"{command.label}: no line starts with {want!r}"
    return start, end, None


def run_cycle(commands, workdir: Path, intervals: list, failures: list, on_command=None):
    """One pass over the deck; appends each command's (start, end)."""
    for i, command in enumerate(commands):
        if on_command is not None:
            on_command(i, command)
        start, end, failure = run_one(command, workdir)
        intervals.append((start, end))
        if failure is not None:
            failures.append(failure)


def timed_pass(commands, workdir: Path, seconds: float, speed: Speedometer):
    """Whole cycles until --seconds, stopping where the next cycle would overshoot most."""
    intervals: list = []
    failures: list = []
    start = time.perf_counter()
    cycles = 0
    while True:
        run_cycle(commands, workdir, intervals, failures, lambda i, command: speed.tick())
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= MIN_CYCLES and elapsed + elapsed / cycles / 2 >= seconds:
            return intervals, failures, elapsed, cycles


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workdir: Path):
    """Set up SETUP_REPEATS times, then the timed pass; all times at reference speed."""
    with Speedometer() as speed:
        start = time.perf_counter()
        import entwine.cli  # noqa: F401
        import workloads  # noqa: F401
        imported = time.perf_counter()
        setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        deck = setups[-1][0]
        intervals, failures, elapsed, cycles = timed_pass(deck.commands, workdir, args.seconds, speed)
    import_s = speed.rescale(start, imported)
    setup_times = [speed.rescale(s, e) for _, s, e in setups]
    samples = [speed.rescale(s, e) for s, e in intervals]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    wall = sum(e - s for s, e in intervals)
    print(f"# {args.workload} seed {args.seed}: {len(samples)} commands in {cycles} cycles of "
          f"{len(deck.commands)}; {elapsed:.2f} s wall, {sum(samples):.2f} s at reference speed "
          f"(x{sum(samples) / wall:.3f}, {len(speed.took)} probes); "
          f"{sum(1 for t in samples if t > p90)} samples beyond p90; "
          f"failed_frac {len(failures) / len(samples):.4f}; set-ups "
          + ", ".join(f"{t:.3f}" for t in setup_times) + f" s after {import_s:.3f} s of import")
    metrics = {
        "cmds_per_s": metric(len(samples) / sum(samples), "1/s"),
        "cmd_p50_ms": metric(statistics.median(samples) * 1e3, "ms"),
        "cmd_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(import_s + statistics.median(setup_times), "s"),
    }
    return len(samples), failures, metrics


def traced(args, workdir: Path):
    """One traced set-up, one plain cycle, one traced cycle; wall times throughout.

    The per-layer metrics cover the traced cycle, except catalog_get, which
    only set-up calls.
    """
    import tracing

    setup_trace = tracing.Tracer()
    setup_trace.install()
    try:
        deck, _, _ = setup(args.workload, args.seed, workdir)
    finally:
        setup_trace.uninstall()
    commands = deck.commands
    plain: list = []
    failures: list = []
    run_cycle(commands, workdir, plain, failures)

    tracer = tracing.Tracer()

    def on_command(i, command):
        tracer.command = f"{i}:{command.label}"

    traced_intervals: list = []
    tracer.install()
    try:
        run_cycle(commands, workdir, traced_intervals, failures, on_command)
    finally:
        tracer.uninstall()
    walls = [e - s for s, e in traced_intervals]
    plain_s = sum(e - s for s, e in plain)
    _, own = tracer.self_times()
    accounted = min(own.get(f"{i}:{c.label}", 0.0) / walls[i] for i, c in enumerate(commands))
    metrics = {name: metric(v, unit) for name, (v, unit) in tracer.metrics().items()}
    metrics["catalog.catalog_get.self_s"] = metric(
        setup_trace.metrics()["catalog.catalog_get.self_s"][0], "s")
    metrics["trace.overhead_frac"] = metric(sum(walls) / plain_s - 1, "frac")
    metrics["trace.accounted_frac"] = metric(accounted, "frac")
    out = ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "command", "parent", "start_s", "end_s"],
                   "setup": setup_trace.table(), "cycle": tracer.table(),
                   "command_wall_s": {f"{i}:{c.label}": walls[i] for i, c in enumerate(commands)},
                   "metrics": metrics}, fh, separators=(",", ":"))
    print(f"# {args.workload} seed {args.seed}: traced one cycle of {len(commands)} commands in "
          f"{sum(walls):.2f} s against {plain_s:.2f} s plain; "
          f"{len(tracer.spans) + len(setup_trace.spans)} spans in {out}")
    return len(plain) + len(walls), failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "entwine" / "__init__.py").is_file():
        print(f"benchmark: no entwine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_build" / f"docs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            attempted, failures, metrics = traced(args, workdir)
        else:
            attempted, failures, metrics = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
