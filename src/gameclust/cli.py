"""Command-line front end: single runs, benchmark grids, data generation.

Subcommands:

* ``run``   -- one algorithm, one k, one ns, one seed; emits a one-row table.
* ``bench`` -- full (algorithm x ns x k) grid over repeated paired seeds.
* ``gen``   -- write a synthetic blob dataset to CSV.

Results are emitted as JSON (canonical, schema_version 2) or CSV (the
means block only).  Identical invocations are byte-identical except for
wall-time fields.  Exit status: 0 success; 2 usage or dataset/config
failure, including results that are not finite (inf or nan, when the
data's scale overflows the objectives); 3 internal error.  No result is
written on status 2 or 3.  When --out is omitted, results go to
$GAMECLUST_OUTPUT_DIR/results.<fmt> if the variable is set, else to
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datagen import Ds1Config, generate_ds1, load_csv, save_csv
from .drivers import ALGORITHMS, VariantSummary, paired_compare
from .errors import GameclustError, StructuralError, UndefinedIndexError
from .fairness import clamp_nonnegative, geometric_mean_index, jain_index

SCHEMA_VERSION = 2
OUTPUT_DIR_ENV = "GAMECLUST_OUTPUT_DIR"


@dataclass(frozen=True)
class CliInvocation:
    """A validated command line."""

    subcommand: str
    data_path: Optional[str] = None
    use_ds1: bool = False
    ds1_seed: int = 0
    k_values: Tuple[int, ...] = ()
    algorithms: Tuple[str, ...] = ()
    ns_values: Tuple[Optional[int], ...] = ()
    seeds: Tuple[int, ...] = ()
    out_path: Optional[str] = None
    out_format: str = "json"
    gen: Optional[Ds1Config] = None

    @property
    def reps(self) -> int:
        return len(self.seeds)


def _parse_int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                parser.error(f"{flag}: cannot parse range {part!r}")
            if hi < lo:
                parser.error(f"{flag}: empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                parser.error(f"{flag}: cannot parse {part!r}")
    seen = []
    for v in out:
        if v not in seen:
            seen.append(v)
    return seen


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gameclust",
        description="Multi-objective clustering through local load-balancing games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", help="CSV file of points, one row per point")
        p.add_argument("--ds1", action="store_true", help="use the built-in synthetic blob dataset")
        p.add_argument("--ds1-seed", type=int, default=0, help="seed for --ds1 (default 0)")
        p.add_argument("--out", help="output path (default: stdout, or $GAMECLUST_OUTPUT_DIR)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    run = sub.add_parser("run", help="run one algorithm once")
    add_source(run)
    run.add_argument("--k", required=True, help="number of clusters")
    run.add_argument("--algo", default="gtkmeans", help="gtkmeans or pkgame")
    run.add_argument("--ns", default="0", help="strategy selection granularity, 0 disables")
    run.add_argument("--seed", default="0", help="run seed")

    bench = sub.add_parser("bench", help="benchmark a grid of variants over paired seeds")
    add_source(bench)
    bench.add_argument("--k", required=True, help="k values, e.g. 5 or 4..8 or 4,6,8")
    bench.add_argument("--algo", default="gtkmeans,pkgame", help="comma list of algorithms")
    bench.add_argument("--ns", default="0", help="comma list of ns values, 0 disables selection")
    bench.add_argument("--seed", default="0", help="base seed or comma list of seeds")
    bench.add_argument("--reps", type=int, default=1, help="repetitions (seeds base..base+reps-1)")

    gen = sub.add_parser("gen", help="generate a synthetic blob dataset CSV")
    gen.add_argument("--out", required=True, help="CSV file to write")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=150, help="number of points")
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--blobs", type=int, default=8)
    gen.add_argument("--std", type=float, default=2.0)
    return parser


def parse_invocation(argv: Sequence[str]) -> CliInvocation:
    """Parse and validate argv; usage problems exit with status 2."""
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    if args.subcommand == "gen":
        try:
            cfg = Ds1Config(
                n_points=args.n, dim=args.dim, blob_count=args.blobs,
                std_dev=args.std, seed=args.seed,
            )
        except GameclustError as exc:
            parser.error(str(exc))
        return CliInvocation(subcommand="gen", out_path=args.out, gen=cfg)

    if bool(args.data) == bool(args.ds1):
        parser.error("exactly one of --data and --ds1 is required")
    k_values = _parse_int_list(args.k, "--k", parser)
    for k in k_values:
        if k < 2:
            parser.error(f"--k: values must be >= 2, got {k}")
    algorithms = tuple(a.strip() for a in args.algo.split(","))
    for a in algorithms:
        if a not in ALGORITHMS:
            parser.error(f"--algo: unknown algorithm {a!r}")
    ns_raw = _parse_int_list(args.ns, "--ns", parser)
    for v in ns_raw:
        if v < 0:
            parser.error(f"--ns: values must be >= 0, got {v}")
    ns_values = tuple(None if v == 0 else v for v in ns_raw)
    seed_list = _parse_int_list(str(args.seed), "--seed", parser)
    if args.subcommand == "run":
        for flag, values in (("--k", k_values), ("--algo", algorithms), ("--ns", ns_raw), ("--seed", seed_list)):
            if len(values) > 1:
                parser.error(f"{flag}: run takes one value, got {len(values)}; use bench for a grid")
    reps = getattr(args, "reps", 1)
    if reps < 1:
        parser.error(f"--reps: must be >= 1, got {reps}")
    if len(seed_list) > 1:
        if reps not in (1, len(seed_list)):
            parser.error(f"--reps={reps} conflicts with {len(seed_list)} explicit seeds")
        seeds = tuple(seed_list)
    else:
        seeds = tuple(seed_list[0] + i for i in range(reps))
    return CliInvocation(
        subcommand=args.subcommand,
        data_path=args.data,
        use_ds1=args.ds1,
        ds1_seed=args.ds1_seed,
        k_values=tuple(k_values),
        algorithms=algorithms,
        ns_values=ns_values,
        seeds=seeds,
        out_path=args.out,
        out_format=args.format,
    )


def _row(summary: VariantSummary) -> Dict[str, object]:
    sse_imp = summary.mean_sse_improvement_pct
    l_imp = summary.mean_l_improvement_pct
    jain: Optional[float] = None
    gmi: Optional[float] = None
    if sse_imp is not None and l_imp is not None:
        clamped = clamp_nonnegative([sse_imp, l_imp])
        try:
            jain = jain_index(clamped)
        except UndefinedIndexError:
            jain = None
        gmi = geometric_mean_index(clamped)
    return {
        "algorithm": summary.algorithm,
        "ns": summary.ns,
        "k": summary.k,
        "reps": len(summary.seeds),
        "mean_wall_time_s": summary.mean_wall_time_s,
        "mean_strategies_per_player": summary.mean_strategies_per_player,
        "mean_payoff_entries": summary.mean_payoff_entries,
        "mean_sse_improvement_pct": sse_imp,
        "mean_l_improvement_pct": l_imp,
        "jain_index": jain,
        "geometric_mean_index": gmi,
    }


def _raw_records(summary: VariantSummary) -> List[Dict[str, object]]:
    records = []
    for report in summary.reports:
        records.append(
            {
                "algorithm": summary.algorithm,
                "ns": summary.ns,
                "k": summary.k,
                "seed": report.config.seed,
                "wall_time_s": report.wall_time_s,
                "avg_strategies_per_player": report.avg_strategies_per_player,
                "total_payoff_entries": sum(report.payoff_entry_counts),
                "games_played": report.games_played,
                "outer_iterations": report.outer_iterations,
                "kmeans_iterations": report.kmeans_iterations,
                "sse_initial": report.initial.sse,
                "l_initial": report.initial.load_metric,
                "sse_final": report.final.sse,
                "l_final": report.final.load_metric,
                "sse_improvement_pct": report.improvement.sse_improvement_pct,
                "l_improvement_pct": report.improvement.l_improvement_pct,
            }
        )
    return records


def build_result_table(invocation: CliInvocation) -> Dict[str, object]:
    """Run the configured matrix and assemble the result table."""
    if invocation.use_ds1:
        dataset = generate_ds1(Ds1Config(seed=invocation.ds1_seed))
        source = f"ds1(seed={invocation.ds1_seed})"
    else:
        dataset = load_csv(invocation.data_path)
        source = invocation.data_path or ""
    rows: List[Dict[str, object]] = []
    raw: List[Dict[str, object]] = []
    for k in invocation.k_values:
        summaries = paired_compare(
            dataset,
            k,
            invocation.seeds,
            invocation.ns_values,
            algorithms=invocation.algorithms,
        )
        for summary in summaries:
            rows.append(_row(summary))
            raw.extend(_raw_records(summary))
    order = {a: i for i, a in enumerate(invocation.algorithms)}
    rows.sort(key=lambda r: (order[r["algorithm"]], r["ns"] or 0, r["k"]))
    raw.sort(key=lambda r: (order[r["algorithm"]], r["ns"] or 0, r["k"], r["seed"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "source": source,
            "k_values": list(invocation.k_values),
            "algorithms": list(invocation.algorithms),
            "ns_values": [0 if v is None else v for v in invocation.ns_values],
            "seeds": list(invocation.seeds),
            "reps": invocation.reps,
        },
        "rows": rows,
        "raw": raw,
    }


def _format(table: Dict[str, object], out_format: str) -> str:
    """The output text; a table holding inf or nan is a dataset failure."""
    try:
        text = json.dumps(table, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise StructuralError(
            "results are not finite (inf or nan): the data's scale overflows the objectives"
        ) from None
    return _format_csv(table) if out_format == "csv" else text


def _format_csv(table: Dict[str, object]) -> str:
    rows: List[Dict[str, object]] = table["rows"]  # type: ignore[assignment]
    columns = list(rows[0])  # the keys of _row, in its order
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            if v is None:
                cells.append("0" if col == "ns" else "")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, invocation: CliInvocation) -> None:
    path = invocation.out_path
    if path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if out_dir:
            path = os.path.join(out_dir, f"results.{invocation.out_format}")
        else:
            sys.stdout.write(text)
            return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def execute(invocation: CliInvocation) -> Tuple[int, Optional[Dict[str, object]]]:
    """Run an invocation; returns (exit status, result table when one was produced).

    numpy's overflow and invalid-value warnings are silenced: squared
    distances may overflow on legal data, and an SSE that does is
    reported once, as the error ``core.objectives`` raises.
    """
    table: Optional[Dict[str, object]] = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if invocation.subcommand == "gen":
                assert invocation.gen is not None
                save_csv(generate_ds1(invocation.gen), invocation.out_path or "ds1.csv")
            else:
                table = build_result_table(invocation)
                _emit(_format(table, invocation.out_format), invocation)
    except (GameclustError, OSError) as exc:
        # dataset, configuration and output-path failures are the caller's to fix
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3, None
    return 0, table


def main(argv: Optional[Sequence[str]] = None) -> int:
    invocation = parse_invocation(sys.argv[1:] if argv is None else argv)
    status, _ = execute(invocation)
    return status


if __name__ == "__main__":
    sys.exit(main())
