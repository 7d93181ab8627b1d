"""Benchmark runner for bianchi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout.  Each round of a workload is a fresh,
single-threaded Python process (``worker.py``); rounds run one after another
until the next one would end after ``--seconds``, and at least one runs.

``--trace 0`` reports the end-to-end metrics: the median over rounds of the
process wall time, the set-up time and the peak RSS, and the verdicts per
round.  The two times are expressed at the reference speed of the worker's
``SpeedProbe``: each is multiplied by the machine's mean speed, sampled
inside the round while it ran.  On a shared machine that takes out most
of the slow and fast periods that move raw wall time by up to 40%; the raw
medians are printed next to them.  ``--trace 1`` runs one untraced round and then
traced rounds, and reports the per-layer metrics of the first traced round;
a second traced round, when it fits, must repeat every count exactly.  The
trace, with the split for each (case, check) pair, is written to
``perfbench/traces/``.  ``trace.overhead_s`` is the median traced wall time
minus the untraced one, both at the reference speed.

The metric names and units come from ``BENCHMARK.json`` at the root.

Every verdict is checked against its known answer (see ``workloads.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the wrong verdicts, and ``correct`` is false when a verdict is wrong for a
reason other than the known rounding defect, or a round breaks down.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # src: for the rounding recheck in workloads

import workloads  # noqa: E402

DEADLINE_S = 170  # a workload's run must end within 180 s, a stuck round included
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# per-layer metrics that are zero on some workloads (casefile.load_case_file.s
# off few_points, gallery.case_specific_checks.s on mutation_sweep): printed
# and written to the trace, but not in the result line
PRINTED_ONLY = (
    ("gallery.case_specific_checks.s", "s"),
    ("casefile.load_case_file.s", "s"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _metrics(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of every ``kind`` metric in ``BENCHMARK.json``."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple((m["name"], m["unit"]) for m in spec[kind])


def _environment() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py once; return its result and its process wall time."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.run(
        command, cwd=ROOT, env=_environment(), capture_output=True, text=True,
        timeout=max(1.0, deadline - start),
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), wall


def _rounds(name: str, seed: int, end: float, deadline: float, traced: bool) -> list[dict]:
    """Rounds run one after another while the next one would end before ``end``."""
    args = [name, str(seed)] + (["--trace"] if traced else [])
    rounds: list[dict] = []
    while True:
        result, wall = _worker(args, deadline)
        result["wall_s"] = wall
        rounds.append(result)
        longest = max(r["wall_s"] for r in rounds)
        if time.perf_counter() + longest > end:
            return rounds


def _judge(rounds: list[dict]) -> dict:
    """Check every verdict of every round against its known answer."""
    verdicts = [sum(1 for row in r["rows"] if row["case"] is not None) for r in rounds]
    full = max(max(verdicts), 1)
    wrong: list[int] = []
    unexpected: Counter[str] = Counter()
    known: Counter[str] = Counter()
    reference = rounds[0]["sha256"]
    for r, count in zip(rounds, verdicts):
        lost = [row["lost"] for row in r["rows"] if row["case"] is None]
        if lost:
            # a round lost as a whole still attempted a full round of verdicts
            wrong.append(full)
            unexpected[lost[0]] += 1
            continue
        if r["sha256"] != reference:
            wrong.append(count)
            unexpected[f"output differs from the first round at the same seed ({count} verdicts)"] += 1
            continue
        wrong.append(0)
        for row in r["rows"]:
            reason = workloads.wrong_reason(row)
            if reason is None:
                continue
            wrong[-1] += 1
            label = f"{row['case']}/{row['check']}"
            if row["mutant"] is not None:
                label += f" mutant {row['mutant']}"
            if workloads.is_known_defect(row):
                precise = workloads.precise_residual(row)
                known[f"{label}: {reason} ({precise:.3e} at {workloads.PRECISION} digits)"] += 1
            else:
                unexpected[f"{label}: {reason}"] += 1
    return {
        "verdicts": full,
        "wrong_verdicts": wrong,
        "attempted": sum(max(count, full) for count in verdicts),
        "failed": sum(wrong),
        "known": known,
        "unexpected": unexpected,
    }


def _spread(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _print_table(title: str, rows: list[tuple[str, str, list[float]]]) -> None:
    print(title)
    print(f"  {'metric':<54} {'unit':<6} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3}")
    for name, unit, values in rows:
        median, q1, q3 = _spread(values)
        print(f"  {name:<54} {unit:<6} {median:>13.6g} {q1:>13.6g} {q3:>13.6g} {len(values):>3}")


def _print_verdicts(judged: dict) -> None:
    rounds = len(judged["wrong_verdicts"])
    print(f"  {judged['attempted']} verdicts attempted, {judged['failed']} wrong, in {rounds} rounds")
    for line, times in judged["known"].items():
        print(f"  wrong, known defect ({times} of {rounds} rounds): {line}")
    for line, times in judged["unexpected"].items():
        print(f"  WRONG ({times} of {rounds} rounds): {line}")


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    rounds = _rounds(name, seed, start + seconds, start + DEADLINE_S, traced=False)
    judged = _judge(rounds)
    series = {
        "wall_s": [r["wall_s"] * r["speed"] for r in rounds],
        "setup_s": [r["setup_s"] * r["setup_speed"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "verdicts": [judged["verdicts"]] * len(rounds),
        "wrong_verdicts": judged["wrong_verdicts"],
        "wall_raw_s": [r["wall_s"] for r in rounds],
        "setup_raw_s": [r["setup_s"] for r in rounds],
        "speed": [r["speed"] for r in rounds],
    }
    printed = _metrics("end_to_end") + (
        ("wrong_verdicts", "count"), ("wall_raw_s", "s"), ("setup_raw_s", "s"), ("speed", "ratio"),
    )
    _print_table(f"workload {name}, seed {seed}, {len(rounds)} rounds",
                 [(metric, unit, series[metric]) for metric, unit in printed])
    _print_verdicts(judged)
    metrics = {
        metric: {"value": statistics.median(series[metric]), "unit": unit}
        for metric, unit in _metrics("end_to_end")
    }
    metrics["verdicts"]["value"] = judged["verdicts"]  # an exact count, kept an int
    return {"judged": judged, "metrics": metrics}


def per_layer(name: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    (plain,) = _rounds(name, seed, start, deadline, traced=False)
    traced = _rounds(name, seed, start + seconds, deadline, traced=True)
    judged = _judge([plain] + traced)

    trace = traced[0]["trace"]
    layers = dict(trace["layers"])
    # the spans' clock leaves out the node-count bookkeeping, so the partition
    # into self times does too; the overhead is that of the whole traced process
    traced_wall = traced[0]["wall_s"]
    span_wall = traced_wall - trace["bookkeeping_s"]
    layers["cli.self_s"] = span_wall - sum(trace["self_s"].values())
    # raw walls of single rounds move by up to 40% with the machine's state,
    # so the overhead compares them at the reference speed, as wall_s does
    plain_wall = plain["wall_s"] * plain["speed"]
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] * r["speed"] for r in traced) - plain_wall
    repeats = all(other["trace"]["counts"] == trace["counts"] for other in traced[1:])
    if not repeats:
        judged["unexpected"]["traced rounds gave different counts"] += 1

    per_layer_metrics = _metrics("per_layer")
    _print_table(
        f"workload {name}, seed {seed}, traced (traced wall {traced_wall:.3f} s, of which "
        f"bookkeeping {trace['bookkeeping_s']:.3f} s; untraced wall {plain['wall_s']:.3f} s)",
        [(metric, unit, [layers[metric]]) for metric, unit in per_layer_metrics + PRINTED_ONLY],
    )
    mix = trace["mix"]
    print(f"  check time {mix['check_s']:.3f} s: evaluate {mix['evaluate_share']:.1%}, "
          f"factory+build {mix['factory_build_share']:.1%}; "
          f"layer self times + cli.self_s = {sum(trace['self_s'].values()) + layers['cli.self_s']:.6f} s "
          f"= traced wall - bookkeeping = {span_wall:.6f} s; "
          f"{len(traced)} traced rounds, counts {'equal' if repeats else 'DIFFERENT'}")
    _print_verdicts(judged)

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "traced_wall_s": traced_wall,
        "span_wall_s": span_wall,
        "untraced_wall_s": plain["wall_s"],
        "layers": layers,
        "self_s": trace["self_s"],
        "cli.self_s": layers["cli.self_s"],
        "bookkeeping_s": trace["bookkeeping_s"],
        "mix": mix,
        "counts": trace["counts"],
        "pairs": trace["pairs"],
    }, indent=1))
    print(f"  trace written to {path.relative_to(ROOT)}")
    metrics = {metric: {"value": layers[metric], "unit": unit} for metric, unit in per_layer_metrics}
    return {"judged": judged, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    try:
        results = {name: measure(name, args.seed, args.seconds) for name in names}
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    judged = [r["judged"] for r in results.values()]
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(j["unexpected"] for j in judged),
        "attempted": sum(j["attempted"] for j in judged),
        "failed": sum(j["failed"] for j in judged),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
