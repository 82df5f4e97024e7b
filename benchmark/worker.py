"""One workload process: set up, run the workload's sweeps once, report.

``run.py`` starts it in a fresh interpreter per round, so that set-up time,
CPU time and peak resident set belong to that round alone.  It prints one
JSON object as its last line of standard output.

Usage: worker.py WORKLOAD SEED LAUNCHED {setup,sweep,traced,memory}

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until every config is parsed.  In
``setup`` mode the process stops there.  ``traced`` records spans around the
layer calls; ``memory`` also measures their peak allocation.
"""

import dataclasses
import json
import resource
import sys
import time

import numpy  # noqa: F401  (imported during set-up, as the program's users import it)

from layout import config_paths, import_program


def main(workload: str, seed: int, launched: float, mode: str) -> dict:
    cli = import_program().cli
    configs = [(path.stem, cli.load_config(path)) for path in config_paths(workload)]
    for _, cfg in configs:
        cfg.seed = seed
    out = {"mode": mode, "setup_s": time.monotonic() - launched}
    if mode == "setup":
        return out

    tracer = None
    if mode in ("traced", "memory"):
        from spans import Tracer

        tracer = Tracer(cli, memory=mode == "memory")
    rows = {}
    start = time.perf_counter()
    for name, cfg in configs:
        if tracer is None:
            rows[name] = cli.run_experiment(cfg)
        else:
            with tracer.span("cli.run_experiment"):
                rows[name] = cli.run_experiment(cfg)
    out["sweep_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports kilobytes

    out["csv"] = {name: "\n".join([cli.CSV_HEADER] + [row.csv() for row in result]) for name, result in rows.items()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(out["sweep_s"])
        out["absent"] = tracer.absent
        out["spans"] = [dataclasses.asdict(span) for span in tracer.spans]
    return out


if __name__ == "__main__":
    workload, seed, launched, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    print(json.dumps(main(workload, seed, launched, mode)))
