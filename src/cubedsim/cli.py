"""Command line driver.

Three subcommands:

    run     one scenario -> breakdown or I/O metrics CSV plus summary.txt
    sweep   one scenario axis -> one CSV row per axis value
    report  combine previously written CSVs (2 -> ratio, 3+ -> mean/std)

Exit status (`CubedsimError.exit_code`): 0 on success, 2 for configuration
problems and unusable paths, 3 for simulation failures (memory guard,
unwritable field, server overflow).
Output files are written atomically (temp file then rename), with the
mode a plain open() gives them: 0666 less the umask.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence

from . import dyncore, iosim
from .config import SWEEP_AXES, Scenario, load_scenario, vary
from .errors import ConfigError, CubedsimError, located
from .mesh import build_mesh


class TableMismatchError(ConfigError):
    """Tables combined by `report` differ in shape or axes, or share no
    numeric column."""


# the columns that say which configuration a row measures
AXES = frozenset({"panel_size", "ranks", *SWEEP_AXES})


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0600; give it the mode open() would, 0666
        # less the umask, which can only be read by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(path: Path, rows: Sequence[Dict[str, object]]) -> None:
    """Rows under the first row's keys, in its order."""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    _write_atomic(path, "\n".join(lines) + "\n")


def _parse_cell(value: str) -> object:
    try:
        num = float(value)
    except ValueError:
        return value
    return int(num) if num.is_integer() and "." not in value else num


def read_csv(path: Path) -> List[Dict[str, object]]:
    rows = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ConfigError(
                        f"{path}: line {reader.line_num} has {len(fields)} "
                        f"fields, the header {len(header)}")
                rows.append({key: _parse_cell(value)
                             for key, value in zip(header, fields)})
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def _breakdown_summary(row: Dict[str, object]) -> str:
    parts = [("user", row["user_s"]), ("mpi p2p", row["p2p_s"]),
             ("mpi coll", row["coll_s"]), ("etc", row["etc_s"])]
    total = row["total_s"]
    lines = [f"timestep breakdown, {row['ranks']} ranks x "
             f"{row['threads']} threads on {row['nodes']} nodes "
             f"(panel size {row['panel_size']})", ""]
    for name, value in parts:
        # at most 1: a part never exceeds the float sum of parts >= 0
        share = value / total if total else 0.0
        lines.append(f"  {name:<8} {value:10.6f} s {100 * share:5.1f}%  "
                     f"{'#' * round(40 * share)}")
    lines.append(f"  {'total':<8} {total:10.6f} s")
    return "\n".join(lines) + "\n"


def _io_summary(row: Dict[str, object]) -> str:
    lines = ["diagnostic output simulation", ""]
    lines.append(f"  wall clock      {row['wall_clock_s']:14.3f} s")
    lines.append(f"  client wait     {row['wait_pct']:14.3f} %")
    lines.append(f"  write rate      {row['write_rate_mib_s']:14.3f} MiB/s")
    lines.append(f"  bytes written   {row['bytes_written']:14d}")
    return "\n".join(lines) + "\n"


def _axes(row: Dict[str, object]) -> Dict[str, object]:
    """The configuration axes of a row, in its column order."""
    return {k: v for k, v in row.items() if k in AXES}


def _check_shape(tables: Sequence[Sequence[Dict[str, object]]],
                 names: Sequence[str], columns: bool) -> None:
    """Raise naming the first table, by `names`, whose row count, axes row
    by row or, with `columns`, header differs from the first table's."""
    first = tables[0]
    for name, table in zip(names, tables):
        if len(table) != len(first) \
                or columns and list(table[0]) != list(first[0]):
            raise TableMismatchError(
                f"{name}: {len(table)} rows of {list(table[0])}, expected "
                f"{len(first)} rows of {list(first[0])}")
        for number, (row, row0) in enumerate(zip(table, first), start=1):
            if _axes(row) != _axes(row0):
                raise TableMismatchError(
                    f"{name}: row {number} has axes {_axes(row)}, "
                    f"{names[0]} {_axes(row0)}")


def _stats_rows(samples: Sequence[Sequence[Dict[str, object]]],
                names: Sequence[str]) -> List[Dict[str, object]]:
    """Per-cell mean and standard deviation across repeated tables of one
    shape, named by `names`; the axes, equal in every table, are copied."""
    _check_shape(samples, names, columns=True)
    out = []
    for row_idx in range(len(samples[0])):
        row: Dict[str, object] = {}
        for col in samples[0][0]:
            values = [s[row_idx][col] for s in samples]
            if col not in AXES \
                    and all(isinstance(v, (int, float)) for v in values):
                row[f"{col}_mean"] = statistics.fmean(values)
                row[f"{col}_std"] = statistics.pstdev(values)
            else:
                row[col] = values[0]
        out.append(row)
    return out


def ratio_report(table_a: Sequence[Dict[str, object]],
                 table_b: Sequence[Dict[str, object]],
                 names: Sequence[str] = ("table a", "table b"),
                 ) -> List[Dict[str, object]]:
    """Elementwise a/b over the time columns; values above one mean the
    b table is faster.  Tables must share their row count, row by row
    their configuration axes, and at least one time column; an error
    names the odd table."""
    _check_shape([table_a, table_b], names, columns=False)
    out: List[Dict[str, object]] = []
    ratios = 0
    for ra, rb in zip(table_a, table_b):
        row = _axes(ra)
        axes = len(row)
        for key, va in ra.items():
            if key in AXES or isinstance(va, bool) \
                    or not isinstance(va, (int, float)):
                continue
            vb = rb.get(key)
            if isinstance(vb, (int, float)) and not isinstance(vb, bool):
                row[key] = va / vb if vb else float("inf")
        ratios += len(row) - axes
        out.append(row)
    if not ratios:
        raise TableMismatchError(
            f"{names[1]}: no numeric column in common with {names[0]}")
    return out


def _timestep_runs(scenario: Scenario) -> List[dyncore.RunSpec]:
    """The runs of a timestep scenario, all built (so checked) first."""
    if scenario.grid is None:
        return [scenario.run_spec()]
    levels = scenario.mesh.levels if scenario.mesh is not None else 120
    runs = []
    for k, point in enumerate(scenario.grid.points):
        where = f"{scenario.source}.grid.points[{k}]"
        with located(where):
            mesh = build_mesh(point.panel_size,
                              levels if point.levels is None else point.levels)
        # the layout's keys are not the point's
        with located(where, keyed=False):
            runs += [scenario.run_spec(mesh, point.nodes, threads)
                     for threads in scenario.grid.threads or [None]]
    return runs


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    out = Path(args.out)
    if scenario.io_scenario is not None:
        rows = [iosim.metrics_row(iosim.simulate_io(scenario.io_scenario))]
        csv_name, stats_name = "io.csv", "io_stats.csv"
        summary = _io_summary
    else:
        rows = [dyncore.breakdown_row(run, dyncore.simulate(run))
                for run in _timestep_runs(scenario)]
        csv_name, stats_name = "dyncore.csv", "dyncore_stats.csv"
        summary = _breakdown_summary
    write_csv(out / csv_name, rows)
    if args.repeat > 1:
        # the model is deterministic: every repeat is this same table
        write_csv(out / stats_name, _stats_rows([rows] * args.repeat,
                                                [csv_name] * args.repeat))
    _write_atomic(out / "summary.txt", summary(rows[0]))
    print(f"wrote {out / csv_name}")
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    axis = args.axis
    if axis not in scenario.sweep:
        raise ConfigError(f"{scenario.source}.sweep: no axis {axis!r} "
                          f"(available: {sorted(scenario.sweep) or 'none'})")
    where = f"{scenario.source}.sweep.{axis}"
    shared: dict = {}  # stage one, where sweep points leave it alone
    rows = []
    for k, value in enumerate(scenario.sweep[axis]):
        point = vary(scenario, axis, value)
        try:
            if isinstance(point, iosim.IoScenario):
                rows.append({axis: value, **iosim.metrics_row(
                    iosim.simulate_io(point, shared))})
                continue
            # threads and nodes sweeps drop the layout's mode, halo depth
            # and bytes per cell: the recorded benchmark outputs encode that
            point = replace(point, mode=dyncore.Mode.EXCHANGE_HALOS,
                            halo_depth=1, bytes_per_cell=None)
            rows.append(dyncore.breakdown_row(point, dyncore.simulate(point)))
        except CubedsimError as exc:
            if axis != "nodes" or \
                    not isinstance(exc, dyncore.MemoryLimitError):
                # named by its point, of the same class and exit status
                raise type(exc)(f"{where}[{k}] = {value}: {exc}",
                                exc.key) from exc
            print(f"warning: {where}: skipping {value} nodes: {exc}",
                  file=sys.stderr)
    if not rows:
        raise dyncore.MemoryLimitError(
            f"{where}: every value trips the memory guard")
    if axis == "nodes":     # ideal scaling from the first point kept
        total0, nodes0 = rows[0]["total_s"], rows[0]["nodes"]
        for row in rows:
            row["ideal_s"] = total0 * nodes0 / row["nodes"]
    elif axis == "threads":  # the fewest threads win an exact tie
        best = min(rows, key=lambda row: (row["total_s"], row["threads"]))
        for row in rows:
            row["best"] = row is best
    out = Path(args.out)
    write_csv(out / f"sweep_{axis}.csv", rows)
    print(f"wrote {out / f'sweep_{axis}.csv'}")
    return 0


def cmd_report(args) -> int:
    tables = [read_csv(Path(p)) for p in args.inputs]
    out = Path(args.out)
    if len(tables) < 2:
        raise ConfigError("report needs at least two input CSVs")
    if len(tables) == 2:
        rows = ratio_report(tables[0], tables[1], args.inputs)
        name = "ratio.csv"
    else:
        rows = _stats_rows(tables, args.inputs)
        name = "stats.csv"
    write_csv(out / name, rows)
    print(f"wrote {out / name}")
    return 0


def _repeat_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    later call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cubedsim",
        description="performance model for a cubed-sphere dynamical core "
                    "and its diagnostic output servers")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--repeat", type=_repeat_count, default=1,
                     help="repetitions; >1 adds a mean/std table")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep one axis of a scenario")
    sweep.add_argument("--config", required=True, help="scenario JSON file")
    sweep.add_argument("--axis", required=True,
                       help="one of " + ", ".join(SWEEP_AXES))
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="combine result CSVs")
    report.add_argument("inputs", nargs="+", help="CSV files to combine")
    report.add_argument("--out", required=True, help="output directory")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CubedsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
