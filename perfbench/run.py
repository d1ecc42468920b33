"""gameclust benchmark: closed-loop workloads measured end to end or layer by layer.

    python3 perfbench/run.py --workload ds1-full --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

One client issues a workload's runs one after another, serially, one
pass per fresh process (worker.py), with BLAS threads pinned to one.
With ``--trace 0`` the workload's passes fill about ``--seconds`` and
every end-to-end metric is printed; with ``--trace 1`` one untraced and
one traced pass give the per-layer metrics and the tracing overhead.

Times are normalized: a fixed probe kernel is timed before and after
every run on the same core, and each run's time is divided by the mean
of the two and multiplied by PROBE_NOMINAL_S.  The box this was built on
changes speed by up to 1.6x within minutes (CPU time tracks wall time,
so the loss is in throughput, not in scheduling); the probe cancels most
of that, and each run then counts its fastest pass.  Raw times are
printed alongside.

Every run's output is checked; any failure makes the exit status 1, and
a pass that cannot run at all makes it 2 with no result printed.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Times are reported as if the probe kernel (worker.probe_s) took this long,
# about its fastest on the 2-vCPU Xeon box the bounds were set on.
PROBE_NOMINAL_S = 1.5e-3
CHILD_TIMEOUT_S = 170
MS = 1e3

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sse_gain_pct": "%",
    "l_gain_pct": "%",
    "l_win_rate": "ratio",
}


class BenchError(RuntimeError):
    """A pass could not be run or its results do not agree."""


def percentile(samples: Sequence[float], q: float, beyond: int = 10) -> Optional[float]:
    """Nearest-rank q-th percentile, or None unless ``beyond`` samples lie above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def run_child(workload: Workload, seed: int, mode: str, reference: bool = False) -> dict:
    """Run worker.py once and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--mode", mode] + (["--reference"] if reference else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} worker ({mode}) took over {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload.name} worker ({mode}) exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def agree(passes: Sequence[dict]) -> List[str]:
    """Disagreements between passes: every pass must end in the same states and counts."""
    first = passes[0]
    return [
        f"pass {i} differs from pass 0 in {key}"
        for i, p in enumerate(passes[1:], start=1)
        for key in ("digest", "counts")
        if p[key] != first[key]
    ]


def per_k_ms(passes: Sequence[dict]) -> Dict[int, float]:
    """Mean ms/run by k over all passes."""
    sums: Dict[int, List[float]] = {}
    for p in passes:
        for k, latency in zip(p["ks"], p["latencies_s"]):
            sums.setdefault(k, []).append(latency)
    return {k: MS * sum(v) / len(v) for k, v in sorted(sums.items())}


def normalized(p: dict) -> List[float]:
    """A pass's run times, each scaled by the probe timed next to it."""
    return [t * PROBE_NOMINAL_S / q for t, q in zip(p["latencies_s"], p["probes_s"])]


def end_to_end(passes: Sequence[dict], setups: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """The end-to-end metrics from normalized times; each run counts its fastest pass.

    ``setups`` holds (set-up time, probe time) pairs.
    """
    latencies = [min(ts) for ts in zip(*map(normalized, passes))]
    p90 = percentile(latencies, 90)
    if p90 is None:
        raise BenchError(f"{len(latencies)} runs are too few for a p90")
    metrics = {
        "runs_per_s": len(latencies) / sum(latencies),
        "run_ms_p50": MS * percentile(latencies, 50, beyond=0),
        "run_ms_p90": MS * p90,
        "setup_s": statistics.median(s * PROBE_NOMINAL_S / q for s, q in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics.update(passes[0]["quality"])
    return metrics


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> Tuple[dict, List[str]]:
    """Run the passes of one invocation; return the result object and human-readable lines."""
    if trace:
        passes = [run_child(workload, seed, "pass"), run_child(workload, seed, "traced")]
    else:
        passes = [run_child(workload, seed, "pass", reference=True)]
        passes += [run_child(workload, seed, "pass") for _ in range(workload.passes(seconds) - 1)]

    disagreements = agree(passes)
    problems = disagreements + [q for p in passes for q in p["problems"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(p["counts"].get("failed", 0) for p in passes) + len(disagreements)
    lines = [
        f"workload {workload.name}: {workload.why}",
        f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} python={passes[0]['python']} "
        f"numpy={passes[0]['numpy']}",
        f"passes: {len(passes)} x {len(passes[0]['latencies_s'])} runs, digest {passes[0]['digest']}, "
        + ", ".join(f"{k}={v}" for k, v in sorted(passes[0]["counts"].items())),
    ]
    for k, ms in per_k_ms(passes[:1] if trace else passes).items():
        lines.append(f"k={k}: {ms:.1f} ms/run, raw")
    probes = [q for p in passes for q in p["probes_s"]]
    lines.append(f"probe: median {MS * statistics.median(probes):.3f} ms, "
                 f"fastest {MS * min(probes):.3f} ms (nominal {MS * PROBE_NOMINAL_S:.1f} ms)")
    if trace:
        untraced, traced = (sum(normalized(p)) for p in passes)
        metrics = dict(passes[1]["layers"], **{"trace.overhead_ratio": traced / untraced})
        for k, share in passes[1]["tensor_share_by_k"].items():
            lines.append(f"k={k}: payoff-tensor build is {100 * share:.1f}% of traced run time")
        units = {name: unit_of(name) for name in metrics}
    else:
        children = list(passes)
        while len(children) < SETUP_SAMPLES:
            children.append(run_child(workload, seed, "setup"))
        metrics = end_to_end(passes, [(c["setup_s"], c["setup_probe_s"]) for c in children])
        raw = [t for p in passes for t in p["latencies_s"]]
        lines.append(f"raw, not normalized: {len(raw) / sum(raw):.4g} runs/s, "
                     f"p50 {MS * statistics.median(raw):.4g} ms, "
                     f"setup {statistics.median(c['setup_s'] for c in children):.4g} s")
        units = END_TO_END_UNITS
    lines.append(f"error_rate: {failed / attempted:.4g} ratio ({failed} of {attempted} runs)")
    lines += [f"{name}: {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"FAILED {p}" for p in problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("ratio") or last == "objectives_per_iteration":
        return "ratio"
    return "bytes" if last == "bytes" else "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result, lines = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result))
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
