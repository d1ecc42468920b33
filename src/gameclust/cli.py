"""Command-line front end: single runs, benchmark grids, data generation.

Subcommands:

* ``run``   -- one algorithm, one k, one ns, one seed; emits a one-row table.
* ``bench`` -- full (algorithm x ns x k) grid over repeated paired seeds.
* ``gen``   -- write a synthetic blob dataset to CSV.

Results are emitted as JSON (canonical, schema_version 2) or CSV (the
means block only), byte-identical across identical invocations except
for wall-time fields.  Without --out they go to
$GAMECLUST_OUTPUT_DIR/results.<fmt> if the variable is set, else to stdout.
Exit status: 0 success; 3 internal error; 2 for a usage error (the
parser's own rules: syntax, ranges, one source, one value per flag for
``run``), a bad k, algorithm or seed (the library's rules, which
``paired_compare`` checks for the whole grid) or an output path that is
empty, a directory or in a missing one, each refused before the first
run; an unreadable dataset; or results that are not finite (the data's
scale overflows the objectives).  No result is written on status 2 or 3.
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
from .drivers import VariantSummary, paired_compare
from .errors import ConfigError, GameclustError, StructuralError
from .fairness import improvement_indices

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


def _int_list(text: str) -> Tuple[int, ...]:
    """The ``type`` of --k and --seed: comma-separated integers and lo..hi ranges, first occurrences kept, in order."""
    out: List[int] = []
    for part in (p.strip() for p in text.split(",")):
        lo, dots, hi = part.partition("..")
        try:
            values = range(int(lo), int(hi) + 1) if dots else [int(lo)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {'range ' if dots else ''}{part!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        out.extend(values)
    return tuple(dict.fromkeys(out))


def _ns_list(text: str) -> Tuple[int, ...]:
    """The ``type`` of --ns: an integer list of values >= 0, where 0 disables selection."""
    values = _int_list(text)
    for v in values:
        if v < 0:
            raise argparse.ArgumentTypeError(f"values must be >= 0, got {v}")
    return values


def _reps(text: str) -> int:
    """The ``type`` of --reps: an integer >= 1."""
    try:
        reps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    if reps < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {reps}")
    return reps


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gameclust",
        description="Multi-objective clustering through local load-balancing games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_shared(name: str, help_text: str, algo_default: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", help="CSV file of points, one row per point")
        p.add_argument("--ds1", action="store_true", help="use the built-in synthetic blob dataset")
        p.add_argument("--ds1-seed", type=int, default=0, help="seed for --ds1 (default 0)")
        p.add_argument("--out", help="output path (default: stdout, or $GAMECLUST_OUTPUT_DIR)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        p.add_argument("--k", type=_int_list, required=True, help="k values, e.g. 5 or 4..8 or 4,6,8")
        p.add_argument("--algo", default=algo_default, help="comma list of algorithms: gtkmeans, pkgame")
        p.add_argument("--ns", type=_ns_list, default="0", help="comma list of ns values, 0 disables selection")
        p.add_argument("--seed", type=_int_list, default="0", help="base seed or comma list of seeds")
        return p

    add_shared("run", "run one algorithm once (one value per flag)", "gtkmeans")
    bench = add_shared("bench", "benchmark a grid of variants over paired seeds", "gtkmeans,pkgame")
    bench.add_argument("--reps", type=_reps, default=1, help="repetitions (seeds base..base+reps-1)")

    gen = sub.add_parser("gen", help="generate a synthetic blob dataset CSV")
    gen.add_argument("--out", required=True, help="CSV file to write")
    gen.add_argument("--seed", type=int, default=Ds1Config.seed)
    gen.add_argument("--n", type=int, default=Ds1Config.n_points, help="number of points")
    gen.add_argument("--dim", type=int, default=Ds1Config.dim)
    gen.add_argument("--blobs", type=int, default=Ds1Config.blob_count)
    gen.add_argument("--std", type=float, default=Ds1Config.std_dev)
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
    algorithms = tuple(dict.fromkeys(a.strip() for a in args.algo.split(",")))  # first occurrences kept, in order
    if args.subcommand == "run":
        for flag, values in (("--k", args.k), ("--algo", algorithms), ("--ns", args.ns), ("--seed", args.seed)):
            if len(values) > 1:
                parser.error(f"{flag}: run takes one value, got {len(values)}; use bench for a grid")
    reps = getattr(args, "reps", 1)
    if len(args.seed) > 1:
        if reps not in (1, len(args.seed)):
            parser.error(f"--reps={reps} conflicts with {len(args.seed)} explicit seeds")
        seeds = args.seed
    else:
        seeds = tuple(args.seed[0] + i for i in range(reps))
    return CliInvocation(
        subcommand=args.subcommand,
        data_path=args.data,
        use_ds1=args.ds1,
        ds1_seed=args.ds1_seed,
        k_values=args.k,
        algorithms=algorithms,
        ns_values=tuple(None if v == 0 else v for v in args.ns),
        seeds=seeds,
        out_path=args.out,
        out_format=args.format,
    )


def _row(summary: VariantSummary) -> Dict[str, object]:
    sse_imp = summary.mean_sse_improvement_pct
    l_imp = summary.mean_l_improvement_pct
    jain, gmi = improvement_indices(sse_imp, l_imp)
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
    summaries = paired_compare(
        dataset, invocation.k_values, invocation.seeds, invocation.ns_values, invocation.algorithms
    )
    rows = [_row(summary) for summary in summaries]
    raw = [record for summary in summaries for record in _raw_records(summary)]
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


def _out_path(invocation: CliInvocation) -> Optional[str]:
    """Where the results go (None: stdout): a file name in an existing directory, checked before any run."""
    path = invocation.out_path
    if path is None and os.environ.get(OUTPUT_DIR_ENV):
        path = os.path.join(os.environ[OUTPUT_DIR_ENV], f"results.{invocation.out_format}")
    if path is not None and (not path or os.path.isdir(path)):
        raise ConfigError(f"output path {path!r} names no file")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output directory {os.path.dirname(path)!r} does not exist")
    return path


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
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
                save_csv(generate_ds1(invocation.gen), invocation.out_path)
            else:
                path = _out_path(invocation)
                table = build_result_table(invocation)
                _emit(_format(table, invocation.out_format), path)
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
