"""Result serialization and reproducibility metadata.

All floats are written with 17 significant digits, enough for a bit-exact
round trip of IEEE doubles.  Trajectory CSVs use the fixed column order
t,x,y,z,j_true,meas,ctl_z,ctl_x,j_est; multi-shot files stack shots, each
starting again at t = 0, with row offsets recorded in the JSON sidecar.

Most of an ensemble's trajectory file is text, so both directions do as
little of it as they can.  The writer formats a column whose values it has
already written (the shared t, j_true and j_est, and an LMG ensemble's
ctl_x) once, and every later record reuses that text; the file's bytes are
the same as formatting each value.  The reader parses only the columns the
caller names, plus t, so ``analyze`` reads only what its kind uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .loop_sim import TrajectoryRecord

SCHEMA_VERSION = 1
TRAJECTORY_HEADER = ",".join(TrajectoryRecord.COLUMNS)


def fmt_float(v: float) -> str:
    return f"{float(v):.17g}"


def _write_lines(path, header: str, lines) -> Path:
    """Write the header line and then lines to path, creating its directory
    first: the writers own the output directory, so a run that fails before
    its first write leaves none."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    return path


def emit_csv(path, header: str, rows) -> Path:
    """Write rows of floats under a fixed header.  Empty input yields a
    header-only file.  Each row is one "%.17g" format per column, which
    writes exactly the text of fmt_float for every value."""
    return _write_lines(path, header, (
        ",".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in rows
    ))


def emit_json(path, obj) -> Path:
    """Write obj as standard JSON.  A NaN or infinity raises ValueError
    before the file or its directory is made, so nothing partial is left."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not serializable: {type(o)}")

    text = json.dumps(obj, indent=1, sort_keys=True, default=default, allow_nan=False)
    return _write_lines(path, text, ())


def _repeated_text(col: np.ndarray, seen: dict) -> list[str] | None:
    """The "%.17g" text of col's values if a column with the same dtype and
    bytes came before, formatted the first time it repeats; None for values
    not seen before, which the caller formats in its row format."""
    data = col.tobytes()
    key = (col.dtype.str, hash(data))
    entry = seen.get(key)
    if entry is None:
        # the column, not its bytes: the records hold it anyway
        seen[key] = [col, None]
        return None
    first, text = entry
    if first.tobytes() != data:  # a hash collision: not the same values
        return None
    if text is None:
        text = entry[1] = ["%.17g" % v for v in col.tolist()]
    return text


def emit_trajectories(path, records: list[TrajectoryRecord]) -> tuple[Path, list[int]]:
    """Stack records into one CSV; returns the path and per-shot row offsets.

    Each row is one format: "%.17g" for a column seen for the first time,
    "%s" of its cached text for a repeated one (``_repeated_text``).
    Partial records (read for some columns only) are refused before the
    file is opened."""
    columns = [[np.asarray(c) for c in rec.columns()] for rec in records]
    offsets = list(accumulate((len(cols[0]) for cols in columns), initial=0))[:-1]
    seen: dict = {}

    def lines():
        for cols in columns:
            texts = [_repeated_text(c, seen) for c in cols]
            fmt = ",".join("%.17g" if x is None else "%s" for x in texts) + "\n"
            # plain floats format faster than numpy scalars, to the same text
            fields = [c.tolist() if x is None else x for c, x in zip(cols, texts)]
            yield from map(fmt.__mod__, zip(*fields))

    return _write_lines(path, TRAJECTORY_HEADER, lines()), offsets


def read_trajectory_csv(path, columns=TrajectoryRecord.COLUMNS) -> list[TrajectoryRecord]:
    """Inverse of emit_trajectories; shots split where t restarts at 0.

    Only t and the named columns are parsed; the others are None on the
    returned records, which emit_trajectories and column_stack refuse."""
    names = TrajectoryRecord.COLUMNS
    unknown = sorted(set(columns) - set(names))
    if unknown:
        raise ValueError(f"unknown trajectory column(s): {', '.join(unknown)}")
    use = [i for i, c in enumerate(names) if i == 0 or c in columns]
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=use)
    if data.size == 0:
        return []
    starts = np.flatnonzero(data[1:, 0] == 0.0) + 1
    recs = []
    for block in np.split(data, starts):
        read = dict(zip((names[i] for i in use), block.T))
        recs.append(TrajectoryRecord(**{c: read.get(c) for c in names}))
    return recs


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

    def add(self, path) -> None:
        self.outputs[Path(path).name] = file_sha256(path)

    def write(self, path) -> Path:
        return emit_json(path, {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "outputs": self.outputs,
            "wall_clock_s": self.wall_clock_s,
        })
