"""idsched benchmark: run one workload, check every row, print its metrics.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload {figures,exact-chains,mc-chains} \\
        --seed N --seconds S --trace {0,1}

Each round is a fresh ``worker.py`` process that imports numpy and idsched
from ``src``, parses the workload's configs (``benchmark/configs/<workload>``)
and runs ``cli.run_experiment`` on each.  Rounds repeat until ``--seconds``
have passed, and at least ``MIN_ROUNDS`` times.  A set-up-only process follows
each round, and more top the set-up samples up to ``SETUP_SAMPLES``.  A first set-up-only process,
not counted, lets the interpreter write its bytecode caches.

With ``--trace 0`` the end-to-end metrics are the medians over rounds.  With
``--trace 1`` rounds cycle through untraced, traced (spans only) and memory
(spans, with ``tracemalloc`` around the ``exact`` and ``heuristics`` calls).
Per-layer times and counts come from the traced round with the median sweep
time, peak allocations from the median memory round; ``trace.overhead_s`` is
the median traced sweep time minus the median untraced one.  ``tracemalloc``
slows allocation-heavy Python several times over, so it is kept out of the
rounds that give the per-layer times.

Every row of every round is checked (``checks.py``) after the rounds, outside
the timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same result, each
round's figures, the failed rows and, with ``--trace 1``, every span of the
traced rounds go to ``benchmark/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checks
import reference
from layout import HERE, ROOT, WORKLOADS, MissingProgram, config_paths, import_program

RESULTS = HERE / "results"
MIN_ROUNDS = 3
SETUP_SAMPLES = 15
ROUND_TIMEOUT_S = 150
RUN_CAP_S = 120  # no further round starts after this many seconds

END_TO_END = {"sweep_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "asymptotic.policy_s": "s",
    "exact.optimum_s": "s",
    "exact.optimum_iters": "count",
    "exact.eval_s": "s",
    "exact.eval_iters": "count",
    "exact.eval_peak_mb": "MB",
    "heuristics.prr_eval_s": "s",
    "heuristics.prr_eval_peak_mb": "MB",
    "heuristics.ps_eval_s": "s",
    "heuristics.ps_eval_peak_mb": "MB",
    "heuristics.ps_search_s": "s",
    "sim.wdd_s": "s",
    "sim.wdd_ns_per_trial_slot": "ns",
    "sim.batch_s": "s",
    "sim.batch_ns_per_trial_slot": "ns",
    "sim.per_slot_s": "s",
    "sim.per_slot_ns_per_trial_slot": "ns",
    "sim.trial_slots": "count",
    "sim.rel_stderr_median": "ratio",
    "sim.tail_coverage_min": "ratio",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
}


def median_round(rounds: list[dict]) -> dict:
    """The round with the median sweep time (the lower one of an even count)."""
    return sorted(rounds, key=lambda r: r["sweep_s"])[(len(rounds) - 1) // 2]


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to its end and return its report."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(launched), mode],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[dict], list[float]]:
    """Whole cycles of rounds until ``seconds`` have passed (and at least
    ``MIN_ROUNDS`` cycles), with a set-up-only process after each round, so
    that set-up samples span the run."""
    cycle = ("sweep", "traced", "memory") if trace else ("sweep",)
    spawn(workload, seed, "setup")  # warms the file and bytecode caches; not measured
    rounds, setups = [], []
    start = time.monotonic()
    while True:
        rounds.append(spawn(workload, seed, cycle[len(rounds) % len(cycle)]))
        setups += [rounds[-1]["setup_s"], spawn(workload, seed, "setup")["setup_s"]]
        if len(rounds) % len(cycle):
            continue
        elapsed = time.monotonic() - start
        if (len(rounds) >= MIN_ROUNDS * len(cycle) and elapsed >= seconds) or elapsed > RUN_CAP_S:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")["setup_s"])
    return rounds, setups


def check_rounds(program, workload: str, rounds: list[dict]):
    configs = {path.stem: json.loads(path.read_text()) for path in config_paths(workload)}
    checker = checks.Checker(program)
    results = []
    for r in rounds:
        for name, config in configs.items():
            results.extend(checker.check(name, config, checks.parse_csv(r["csv"].get(name, ""))))
    return results, reference.self_test()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="Monte Carlo seed of every config (>= 0)")
    parser.add_argument("--seconds", required=True, type=int, help="least measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        program = import_program()
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    rounds, setups = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    results, self_test_failures = check_rounds(program, args.workload, rounds)

    failed = [r for r in results if r.problems]
    unexpected = [r for r in failed if not r.known_fault]
    for line in self_test_failures:
        print(f"self-test FAIL: {line}")
    reported = set()
    for r in failed:
        label = (r.config, r.sweep_value, r.policy, r.method)
        if label in reported:
            continue
        reported.add(label)
        tag = "known fault" if r.known_fault else "FAIL"
        print(f"{tag}: {r.config} {r.sweep_value!r} {r.policy} {r.method}: {'; '.join(r.problems)}")

    untraced = [r for r in rounds if r["mode"] == "sweep"]
    if args.trace:
        traced, memory = ([r for r in rounds if r["mode"] == mode] for mode in ("traced", "memory"))
        layers = dict(median_round(traced)["layers"])
        layers.update((k, v) for k, v in median_round(memory)["layers"].items() if k.endswith("_peak_mb"))
        layers["trace.overhead_s"] = statistics.median(r["sweep_s"] for r in traced) - statistics.median(
            r["sweep_s"] for r in untraced
        )
        for name in sorted({a for r in traced for a in r["absent"]}):
            print(f"absent: {name} (its role reads 0)")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "sweep_s": statistics.median(r["sweep_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(
        f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds "
        f"({len(untraced)} untraced), {len(setups)} set-up samples"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  rows attempted {len(results)}, failed {len(failed)} ({len(unexpected)} outside the known faults)")
    result = {
        "correct": not unexpected and not self_test_failures,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "rounds": [{k: v for k, v in r.items() if k != "csv"} for r in rounds],
                "setup_samples": setups,
                "failed_rows": [vars(r) for r in failed],
                "result": result,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
