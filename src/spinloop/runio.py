"""Result serialization and reproducibility metadata.

All floats are written with 17 significant digits, enough for a bit-exact
round trip of IEEE doubles.  Trajectory CSVs use the fixed column order
t,x,y,z,j_true,meas,ctl_z,ctl_x,j_est; multi-shot files stack shots, each
starting again at t = 0, with row offsets recorded in the JSON sidecar.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .loop_sim import TrajectoryRecord

SCHEMA_VERSION = 1
TRAJECTORY_HEADER = ",".join(TrajectoryRecord.COLUMNS)


def fmt_float(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{float(v):.17g}"


def emit_csv(path, header: str, rows) -> Path:
    """Write rows of floats under a fixed header.  Empty input yields a
    header-only file.  Each row is one "%.17g" format per column, which
    writes exactly the text of fmt_float for every value."""
    path = Path(path)
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\n")
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    return path


def emit_json(path, obj) -> Path:
    path = Path(path)

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not serializable: {type(o)}")

    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True, default=default)
            fh.write("\n")
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    return path


def emit_trajectories(path, records: list[TrajectoryRecord]) -> tuple[Path, list[int]]:
    """Stack records into one CSV; returns the path and per-shot row offsets."""
    offsets = list(accumulate((len(rec.t) for rec in records), initial=0))[:-1]
    # plain floats format faster than numpy scalars, to the same text
    rows = (row for rec in records for row in rec.column_stack().tolist())
    return emit_csv(path, TRAJECTORY_HEADER, rows), offsets


def read_trajectory_csv(path) -> list[TrajectoryRecord]:
    """Inverse of emit_trajectories; shots split where t restarts at 0."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return []
    starts = np.flatnonzero(data[1:, 0] == 0.0) + 1
    return [TrajectoryRecord(*block.T) for block in np.split(data, starts)]


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    config_sha256: str
    tool_version: str
    seed: int
    outputs: dict = field(default_factory=dict)  # name -> sha256
    wall_clock_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def add(self, path) -> None:
        self.outputs[Path(path).name] = file_sha256(path)

    def write(self, path) -> Path:
        return emit_json(path, {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "outputs": self.outputs,
            "wall_clock_s": self.wall_clock_s,
        })


def config_sha256(path) -> str:
    return file_sha256(path)
