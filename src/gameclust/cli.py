"""Command-line front end: benchmark grids and data generation.

Subcommands:

* ``bench`` -- full (algorithm x ns x k) grid over paired seeds; one
  value per flag is a single run, emitted as a one-row table.
* ``gen``   -- write a synthetic blob dataset to CSV.

The parser is the one declaration of the command line: each flag's
argparse ``type`` yields the value the library takes (--k, --seed and
--ns as integer tuples, --ns 0 as ``None``, --algo as a tuple of names),
--data and --ds1 form a required mutually exclusive group, and
``parse_invocation`` returns the namespace argparse builds, adding only
``gen``'s checked ``Ds1Config`` as ``gen``.

Results are emitted as JSON (canonical, schema_version 2) or CSV (the
means block only), byte-identical across identical invocations except
for wall-time fields.  Without --out they go to
$GAMECLUST_OUTPUT_DIR/results.<fmt> if the variable is set, else to stdout.
Exit status: 0 success; 3 internal error; 2 for a usage error (the
parser's own rules: syntax, ranges, at most ``MAX_FLAG_VALUES`` values
a flag, one source), a bad k, algorithm or seed (the library's rules,
which ``paired_compare`` checks for the whole grid) or an output path
that is empty, a directory or in a missing one, each refused before the
first run; an unreadable dataset; or results that are not finite (the
data's scale overflows the objectives).  No result is written on status
2 or 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datagen import Ds1Config, generate_ds1, load_csv, save_csv
from .drivers import VariantSummary, paired_compare
from .errors import ConfigError, GameclustError, StructuralError
from .fairness import improvement_indices

SCHEMA_VERSION = 2
OUTPUT_DIR_ENV = "GAMECLUST_OUTPUT_DIR"
# Parsing costs about 120 bytes a value, and a bench grid runs every seed,
# so a typo such as --seed 0..1000000000 is refused before it is expanded.
MAX_FLAG_VALUES = 100_000


def _int_list(text: str) -> Tuple[int, ...]:
    """The ``type`` of --k and --seed: comma-separated integers and lo..hi ranges, first occurrences kept, in order."""
    out: List[int] = []
    for part in (p.strip() for p in text.split(",")):
        lo, dots, hi = part.partition("..")
        try:
            first, last = int(lo), int(hi if dots else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {'range ' if dots else ''}{part!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        if len(out) + last - first + 1 > MAX_FLAG_VALUES:
            raise argparse.ArgumentTypeError(f"more than {MAX_FLAG_VALUES:,} values, at {part!r}")
        out.extend(range(first, last + 1))
    return tuple(dict.fromkeys(out))


def _ns_list(text: str) -> Tuple[Optional[int], ...]:
    """The ``type`` of --ns: an integer list of values >= 0, where 0 is None (selection off)."""
    values = _int_list(text)
    for v in values:
        if v < 0:
            raise argparse.ArgumentTypeError(f"values must be >= 0, got {v}")
    return tuple(None if v == 0 else v for v in values)


def _algo_list(text: str) -> Tuple[str, ...]:
    """The ``type`` of --algo: comma-separated names, stripped, first occurrences kept, in order."""
    return tuple(dict.fromkeys(a.strip() for a in text.split(",")))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gameclust",
        description="Multi-objective clustering through local load-balancing games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    bench = sub.add_parser("bench", help="benchmark a grid of variants over paired seeds")
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="CSV file of points, one row per point")
    source.add_argument("--ds1", action="store_true", help="use the built-in synthetic blob dataset")
    bench.add_argument("--out", help="output path (default: stdout, or $GAMECLUST_OUTPUT_DIR)")
    bench.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    bench.add_argument("--k", type=_int_list, required=True, help="k values, e.g. 5 or 4..8 or 4,6,8")
    bench.add_argument(
        "--algo", type=_algo_list, default="gtkmeans,pkgame", help="comma list of algorithms: gtkmeans, pkgame"
    )
    bench.add_argument("--ns", type=_ns_list, default="0", help="comma list of ns values, 0 disables selection")
    bench.add_argument("--seed", type=_int_list, default="0", help="seeds, e.g. 0 or 0..49 or 1,5,9")

    gen = sub.add_parser("gen", help="generate a synthetic blob dataset CSV")
    gen.add_argument("--out", required=True, help="CSV file to write")
    gen.add_argument("--seed", type=int, default=Ds1Config.seed)
    gen.add_argument("--n", type=int, default=Ds1Config.n_points, help="number of points")
    gen.add_argument("--dim", type=int, default=Ds1Config.dim)
    gen.add_argument("--blobs", type=int, default=Ds1Config.blob_count)
    gen.add_argument("--std", type=float, default=Ds1Config.std_dev)
    return parser


def parse_invocation(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and validate argv into argparse's namespace; usage problems exit with status 2."""
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    if args.subcommand == "gen":
        try:
            args.gen = Ds1Config(
                n_points=args.n, dim=args.dim, blob_count=args.blobs,
                std_dev=args.std, seed=args.seed,
            )
        except GameclustError as exc:
            parser.error(str(exc))
    return args


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


def build_result_table(invocation: argparse.Namespace) -> Dict[str, object]:
    """Run the configured matrix and assemble the result table."""
    if invocation.ds1:
        dataset = generate_ds1(Ds1Config())
        source = f"ds1(seed={Ds1Config.seed})"
    else:
        dataset = load_csv(invocation.data)
        source = invocation.data
    summaries = paired_compare(dataset, invocation.k, invocation.seed, invocation.ns, invocation.algo)
    rows = [_row(summary) for summary in summaries]
    raw = [record for summary in summaries for record in _raw_records(summary)]
    order = {a: i for i, a in enumerate(invocation.algo)}
    rows.sort(key=lambda r: (order[r["algorithm"]], r["ns"] or 0, r["k"]))
    raw.sort(key=lambda r: (order[r["algorithm"]], r["ns"] or 0, r["k"], r["seed"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "source": source,
            "k_values": list(invocation.k),
            "algorithms": list(invocation.algo),
            "ns_values": [0 if v is None else v for v in invocation.ns],
            "seeds": list(invocation.seed),
            "reps": len(invocation.seed),
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
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")  # the keys of _row, in its order
    writer.writeheader()
    writer.writerows({**row, "ns": 0 if row["ns"] is None else row["ns"]} for row in rows)
    return out.getvalue()


def _out_path(invocation: argparse.Namespace) -> Optional[str]:
    """Where the results go (None: stdout): a file name in an existing directory, checked before any run."""
    path = invocation.out
    if path is None and os.environ.get(OUTPUT_DIR_ENV):
        path = os.path.join(os.environ[OUTPUT_DIR_ENV], f"results.{invocation.format}")
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


def execute(invocation: argparse.Namespace) -> Tuple[int, Optional[Dict[str, object]]]:
    """Run an invocation; returns (exit status, result table when one was produced).

    numpy's overflow and invalid-value warnings are silenced: squared
    distances may overflow on legal data, and an SSE that does is
    reported once, as the error ``core.objectives`` raises.
    """
    table: Optional[Dict[str, object]] = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if invocation.subcommand == "gen":
                save_csv(generate_ds1(invocation.gen), invocation.out)
            else:
                path = _out_path(invocation)
                table = build_result_table(invocation)
                _emit(_format(table, invocation.format), path)
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
