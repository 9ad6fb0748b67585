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

Forked work follows one rule.  ``part_cuts`` cuts a job into contiguous
ranges, one per usable CPU but at most one per given share of the total,
so a trajectory file under 6000 rows (``PART_MIN_ROWS``) forks nothing.
``fork_parts`` runs the first range here and each other one in a forked
child, and reports only whether all returned; if not, the caller does the
whole job again here, so a run ends with one process's result or error.
In the one trajectory writer, ``_write_parts``, each child formats its range
into an anonymous temporary file, appended in order; each range has its own
text cache, so the bytes are those of one process.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .loop_sim import TrajectoryRecord

SCHEMA_VERSION = 1
TRAJECTORY_HEADER = ",".join(TrajectoryRecord.COLUMNS)
# The fewest rows worth a process of their own: a trajectory file is cut
# into at most one part per PART_MIN_ROWS rows.  Formatting one file in two
# processes broke even with one process at 4500-6000 rows (2-CPU Xeon,
# alternating, medians of 40: 4500 rows 19.2 ms in one process and 27.6 ms
# in two, 6000 rows 30.2 and 24.7 ms, 7500 rows 40.6 and 27.2 ms), so each
# part gets half of 6000.  The quantum-qmf files (302 and 1510 rows) stay
# whole.
PART_MIN_ROWS = 3000


def fmt_float(v: float) -> str:
    return f"{float(v):.17g}"


@contextmanager
def _created(path: Path, header: str):
    """path opened for writing, its header line written, its directory made
    first: the writers own the output directory, so a run that fails before
    its first write leaves none.  An OSError inside names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            yield fh
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def _write_lines(path, header: str, lines) -> Path:
    path = Path(path)
    with _created(path, header) as fh:
        fh.writelines(lines)
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


def _lines(columns):
    """The rows of records given as column lists, each one format: "%.17g"
    for a column seen for the first time, "%s" of its cached text for a
    repeated one (``_repeated_text``)."""
    seen: dict = {}
    for cols in columns:
        texts = [_repeated_text(c, seen) for c in cols]
        fmt = ",".join("%.17g" if x is None else "%s" for x in texts) + "\n"
        # plain floats format faster than numpy scalars, to the same text
        fields = [c.tolist() if x is None else x for c, x in zip(cols, texts)]
        yield from map(fmt.__mod__, zip(*fields))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def part_cuts(sizes, least: int) -> list[tuple[int, int]]:
    """Contiguous, non-empty (start, stop) ranges of the items whose sizes
    are given, of about equal total size: one per usable CPU, but at most
    one per `least` of the total.  No items are one empty range."""
    *offsets, total = accumulate(sizes, initial=0)
    n = len(offsets)
    parts = max(1, min(_usable_cpus(), n, total // least))
    cuts = [0]
    for k in range(1, parts):  # each cut leaves every range an item
        cut = bisect_left(offsets, k * total / parts)
        cuts.append(min(max(cut, cuts[-1] + 1), n - parts + k))
    return list(zip(cuts, [*cuts[1:], n]))


def fork_parts(n_parts: int, run) -> bool:
    """run(0) in this process while a forked child runs run(k) for each
    later part k.  True once every run returned; False if any raised, here
    or in a child, or if a fork failed, and every child is then killed.
    Every child is reaped, and ends only through os._exit, so it runs no
    atexit handler and flushes no buffer of this process."""
    children = []
    try:
        for k in range(1, n_parts):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run(k)
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        run(0)
        while children:
            if os.waitstatus_to_exitcode(os.waitpid(children.pop(0), 0)[1]):
                return False
        return True
    except Exception:
        return False
    finally:
        if children:
            import signal  # only here: not loaded at start-up

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_parts(fh, columns, ranges: list[tuple[int, int]]) -> None:
    """Write the rows of columns to fh: the first range here while one
    forked child per later range formats it into an anonymous temporary
    file beside fh (``fork_parts``), appended once every range is done.  If
    any of that fails, fh is cut back to where it stood and every row is
    written here.  One range forks nothing and makes no temporary file."""
    start = fh.tell()
    try:
        with ExitStack() as temps:
            files = [fh, *(temps.enter_context(tempfile.TemporaryFile(
                "w+", dir=Path(fh.name).parent)) for _ in ranges[1:])]

            def run(k):
                a, b = ranges[k]
                files[k].writelines(_lines(columns[a:b]))
                files[k].flush()

            if fork_parts(len(ranges), run):
                for part in files[1:]:
                    part.seek(0)
                    shutil.copyfileobj(part, fh)
                return
    except OSError:
        pass
    fh.seek(start)
    fh.truncate()
    fh.writelines(_lines(columns))


def emit_trajectories(path, records: list[TrajectoryRecord]) -> tuple[Path, list[int]]:
    """Stack records into one CSV; returns the path and per-shot row offsets.

    The rows are ``_lines``, written by ``_write_parts`` in ranges of at
    least about ``PART_MIN_ROWS`` rows (``part_cuts``), to the same bytes.
    Partial records (read for some columns only) are refused before the
    file is opened or a process is forked."""
    columns = [[np.asarray(c) for c in rec.columns()] for rec in records]
    sizes = [len(cols[0]) for cols in columns]
    ranges = part_cuts(sizes, PART_MIN_ROWS)
    path = Path(path)
    with _created(path, TRAJECTORY_HEADER) as fh:
        _write_parts(fh, columns, ranges)
    return path, list(accumulate(sizes, initial=0))[:-1]


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
