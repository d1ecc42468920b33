"""One benchmark pass in a fresh process: set-up, then the timed closed loop.

    python3 perfbench/worker.py --workload ds1-ns3 --seed 0 --mode pass --reference

``--mode setup`` stops after set-up; ``pass`` times every run of the
workload once, one after another; ``traced`` does the same with the
tracer installed.  ``--reference`` adds, after the timed loop, the
plain k-means runs that ``l_win_rate`` compares against.  The result is
one JSON object on the last line of standard output.  run.py starts this
with ``src`` on PYTHONPATH and BLAS threads pinned to one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def probe_s() -> float:
    """Fastest of three timings of a fixed kernel shaped like a small run.

    A Python loop and small numpy calls, about 1.5 ms on a quiet core.
    run.py divides run and set-up times by the probe timed next to them,
    which cancels most of the machine's changing speed.
    """
    import numpy as np

    points = np.linspace(0.0, 1.0, 300).reshape(150, 2)
    centers = points[::19]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(600):
            total += (i * i) % 7
        for i in range(30):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            total += int(d2.argmin(axis=1)[i])
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    import numpy as np

    import gameclust
    from gameclust import Ds1Config, RunConfig, generate_ds1
    from gameclust import drivers

    if Path(gameclust.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"gameclust was imported from {gameclust.__file__}, not from {SRC}")

    def config(k: int, run_seed: int) -> RunConfig:
        return RunConfig(k=k, seed=run_seed, ns=workload.ns, algorithm=workload.algorithm)

    dataset = generate_ds1(Ds1Config(n_points=workload.n_points, seed=workload.instance_seed))
    _, k0, s0 = workload.warmup_run()
    drivers.run_algorithm(dataset, config(k0, s0))
    setup_s = time.perf_counter() - start
    probe = probe_s()
    out: Dict[str, object] = {
        "setup_s": setup_s,
        "setup_probe_s": probe,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from checks import assignment_digest, check_report, pass_digest

    tracer = None
    run = drivers.run_algorithm
    if args.mode == "traced":
        from tracing import ROOT, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(drivers, gameclust.Clustering)
        run = tracer.wrap(ROOT, run)

    runs = workload.runs(args.seed)
    latencies = [0.0] * len(runs)
    probes = [0.0] * len(runs)
    digests = [b"failed"] * len(runs)
    final_l: Dict[int, float] = {}
    counts: Counter = Counter()
    problems: List[str] = []
    gains: Dict[str, List[float]] = {"sse": [], "l": []}
    for index, k, run_seed in runs:
        if tracer is not None:
            tracer.run = index
        t0 = time.perf_counter()
        try:
            report = run(dataset, config(k, run_seed))
        except Exception as exc:  # a failed run is counted, and the pass goes on
            latencies[index] = time.perf_counter() - t0
            probes[index] = probe
            problems.append(f"k={k} seed={run_seed}: raised {type(exc).__name__}: {exc}")
            continue
        latencies[index] = time.perf_counter() - t0
        before, probe = probe, probe_s()
        probes[index] = (before + probe) / 2
        found = check_report(dataset, k, report)
        problems.extend(f"k={k} seed={run_seed}: {p}" for p in found)
        counts["failed"] += bool(found)
        counts["games"] += report.games_played
        counts["joints"] += sum(report.payoff_entry_counts)
        counts["outer_iterations"] += report.outer_iterations
        counts["budget_runs"] += report.outer_iterations == report.config.max_outer_iterations
        digests[index] = assignment_digest(report.final_clustering.assignment)
        final_l[index] = report.final.load_metric
        for key, value in (("sse", report.improvement.sse_improvement_pct),
                           ("l", report.improvement.l_improvement_pct)):
            if value is not None:
                gains[key].append(value)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts["failed"] += len(runs) - len(final_l)  # runs that raised

    if tracer is not None:
        tracer.uninstall()
        run_k = {index: k for index, k, _ in runs}
        out["layers"], out["tensor_share_by_k"] = layer_metrics(
            tracer, run_k, latencies, counts, workload.required_spans
        )

    if args.reference:
        from gameclust import KMeansConfig, ideal_load, init_centers, lloyd_full, load_metric

        wins = 0
        for index, k, run_seed in runs:
            centers = init_centers(dataset, KMeansConfig(k=k, seed=run_seed))
            plain, _ = lloyd_full(dataset, centers, 100)
            wins += final_l.get(index, float("inf")) < load_metric(plain.loads, ideal_load(dataset.n, k))
        out["quality"] = {
            "sse_gain_pct": sum(gains["sse"]) / max(len(gains["sse"]), 1),
            "l_gain_pct": sum(gains["l"]) / max(len(gains["l"]), 1),
            "l_win_rate": wins / len(runs),
        }

    out.update(
        latencies_s=latencies,
        probes_s=probes,
        ks=[k for _, k, _ in sorted(runs)],
        peak_rss_mb=peak_rss_kib / 1024.0,
        counts=dict(counts),
        problems=problems[:20],
        digest=pass_digest(digests),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
