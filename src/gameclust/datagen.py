"""Seeded synthetic blob data and CSV ingestion.

The synthetic generator draws blob centers uniformly inside a box and
scatters points around them with Gaussian noise, split as evenly as
possible across blobs; everything is determined by the seed (PCG64 via
``numpy.random.default_rng``).  CSV files are comma-separated with '.'
decimals, UTF-8 (with or without a byte-order mark), and at most one
optional header row.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import Dataset, whole
from .errors import ConfigError, CsvFormatError

BLOB_BOX = (0.0, 10.0)  # blob centers are drawn uniformly from [0, 10) per dimension


@dataclass(frozen=True)
class Ds1Config:
    """Synthetic blob dataset settings: 150 2-d points around 8 blobs by default."""

    n_points: int = 150
    dim: int = 2
    blob_count: int = 8
    std_dev: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_points", "dim", "blob_count"):
            whole(getattr(self, name), name)
        whole(self.seed, "seed", least=0)
        if self.n_points < self.blob_count:
            raise ConfigError(
                f"n_points={self.n_points} must be at least blob_count={self.blob_count}"
            )
        std = self.std_dev
        if isinstance(std, bool) or not isinstance(std, numbers.Real) or not (std > 0 and math.isfinite(std)):
            raise ConfigError(f"std_dev must be a positive and finite number, got {std!r}")


def generate_ds1(config: Ds1Config) -> Dataset:
    """Generate the blob dataset; identical seeds give bit-identical data.

    Draw order is fixed: blob centers first (uniform per dimension),
    then all per-point noise in one normal draw.
    """
    rng = np.random.default_rng(config.seed)
    centers = rng.uniform(*BLOB_BOX, size=(config.blob_count, config.dim))
    noise = rng.normal(0.0, config.std_dev, size=(config.n_points, config.dim))
    base, extra = divmod(config.n_points, config.blob_count)
    counts = [base + (1 if i < extra else 0) for i in range(config.blob_count)]
    blob_ids = np.repeat(np.arange(config.blob_count), counts)
    return Dataset(points=centers[blob_ids] + noise)


def load_csv(path: str) -> Dataset:
    """Read one point per row; a single leading non-numeric row is skipped as a header.

    A leading UTF-8 byte-order mark is dropped, so it never makes the first
    data row look like a header.  Any malformed file raises ``CsvFormatError``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not valid UTF-8: {exc}") from None
    except csv.Error as exc:  # raised by iteration only, so reader is bound
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: file contains no data rows")
    start = 0
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise CsvFormatError(f"{path}: only a header row, no data")
    dim = len(rows[start][1])
    points = []
    for line, row in rows[start:]:
        if len(row) != dim:
            raise CsvFormatError(f"{path}: line {line} has {len(row)} columns, expected {dim}")
        values = []
        for c, cell in enumerate(row, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvFormatError(f"{path}: line {line}, column {c}: {cell!r} is not numeric") from None
        points.append(values)
    return Dataset(points=np.asarray(points, dtype=np.float64))


def save_csv(dataset: Dataset, path: str) -> None:
    """Write points one per row, no header, each value as the shortest text that reads back to the same float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in dataset.points:
            writer.writerow([repr(float(v)) for v in row])  # numpy 2's repr of a float64 is np.float64(...)
