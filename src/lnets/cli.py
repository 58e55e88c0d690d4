"""Pipeline orchestration and command-line interface.

Subcommands: ``run`` (full pipeline from a JSON config), ``verify``
(contact check of a stored net), ``tessellate`` (mesh export of a stored
net) and ``report`` (summary table from iteration logs).

A pipeline run writes four artifacts into the output directory: the
serialized net (``lnet.json``), the tessellated mesh (``mesh.obj``), the
per-iteration log (``iterations.csv``) and a run summary
(``summary.json``). The net and mesh files are byte-identical across
repeated runs of the same config; the log and summary carry timings. The
four are written into a staging directory inside the output directory
and renamed into place once all exist, so a failed run leaves the
artifacts of an earlier run as they were. ``tessellate`` stages its OBJ
the same way.

The mesh is merged once, by :func:`lnets.tessellate.dedupe_mesh`, between
tessellation and export; :func:`export_obj` writes it as given, one
group per run of a patch kind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import reprlib
import shutil
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bspline import load_surface
from .conjugacy import CongruenceSpec
from .errors import (ConfigError, LnetsError, checked, json_fields,
                     read_json)
from .lnet import (DEFAULT_TOL_OC, initialize, load_lnet,
                   save_lnet, verify)
from .optimize import Schedule, Weights, lm_run
from .remesh import ANGLE_FAMILIES, AngleField, GridSpec, trace_grid
from .tessellate import (LABELS, LabeledMesh, TessellationParams,
                         dedupe_mesh, tessellate)

CONFIG_FORMAT_VERSION = 1
LOG_FORMAT_VERSION = 1
OBJ_FORMAT_VERSION = 1
SUMMARY_FORMAT_VERSION = 1

# Rows of the mesh formatted per write of :func:`export_obj`.
OBJ_BLOCK_ROWS = 8192

LOG_COLUMNS = ("iter", "E_total", "E_oc", "E_prox", "E_tan", "E_td",
               "E_lfair", "E_gfair", "E_unit", "ms")


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline parameters (see ``config_from_dict``)."""

    surface_path: Path
    radius: CongruenceSpec
    fix_radii: bool
    theta: AngleField
    grid: GridSpec
    weights: Weights
    schedule: Schedule
    tessellation: TessellationParams
    output_dir: Path
    raw: dict


# Kinds of the run config (see :func:`lnets.errors.json_fields`). The
# radius and theta kinds depend on the mode and family.
_CONFIG_KINDS = {"format_version": int, "surface": str, "radius": dict,
                 "theta": dict, "grid": dict, "weights": dict,
                 "schedule": dict, "tessellation": dict, "output_dir": str}
_CONFIG_REQUIRED = ("format_version", "surface", "radius", "theta", "grid",
                    "output_dir")
_RADIUS_KINDS = {"tau_min": {"mode": str, "tau": float},
                 "explicit": {"mode": str, "value": float, "fix_radii": bool}}
_THETA_KINDS = {**dict.fromkeys(ANGLE_FAMILIES, get_type_hints(AngleField)),
                "constant": {"family": str, "value": float}}


def _section(cls, data, where: str):
    """``cls`` built from the JSON object ``data``: its field annotations
    are the kinds, and the fields without a default are required."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return checked(cls, where, **json_fields(data, where,
                                             get_type_hints(cls), required))


def _variant(section: dict, where: str, key: str, tables: dict) -> dict:
    """The fields of ``section``, whose ``key`` field is checked first and
    picks their kinds from ``tables``; all but ``fix_radii`` are required."""
    choice = section.get(key)
    if not (isinstance(choice, str) and choice in tables):
        raise ConfigError(f"{where}: {key} must be one of {list(tables)}, "
                          f"got {reprlib.repr(choice)}")
    kinds = tables[choice]
    return json_fields(section, where, kinds,
                       [k for k in kinds if k != "fix_radii"])


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Strict parse and validation of the run-config schema."""
    top = json_fields(data, "config", _CONFIG_KINDS, _CONFIG_REQUIRED)
    if top["format_version"] != CONFIG_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported config format_version {top['format_version']!r}")
    base = Path(base_dir) if base_dir is not None else Path(".")
    surface_path = base / top["surface"]
    if not os.path.isfile(surface_path):  # False for an unusable name too
        raise ConfigError(f"surface file not found: {surface_path}")

    radius = _variant(top["radius"], "radius", "mode", _RADIUS_KINDS)
    # Prescribed constant radii are held fixed by default.
    fix_radii = radius.pop("fix_radii", radius["mode"] == "explicit")
    if radius["mode"] == "explicit" and radius["value"] <= 0.0:
        raise ConfigError(f"radius: value={radius['value']:g} must be "
                          f"positive")
    theta = _variant(top["theta"], "theta", "family", _THETA_KINDS)
    if "value" in theta:
        theta["theta_min"] = theta["theta_max"] = theta.pop("value")
    weights = _section(Weights, top.get("weights", {}), "weights")
    return RunConfig(
        surface_path=surface_path,
        radius=checked(CongruenceSpec, "radius", **radius),
        fix_radii=fix_radii, theta=checked(AngleField, "theta", **theta),
        grid=_section(GridSpec, top["grid"], "grid"), weights=weights,
        schedule=_section(Schedule, top.get("schedule", {}), "schedule"),
        tessellation=_section(TessellationParams,
                              top.get("tessellation", {}), "tessellation"),
        output_dir=base / top["output_dir"], raw=data)


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path), base_dir=Path(path).parent)


def _write_rows(fh, line: str, rows: np.ndarray, offset: int = 0) -> None:
    """Write ``line % (row + offset)`` for every row, :data:`OBJ_BLOCK_ROWS`
    rows per formatting call; the offset is added per block, so no shifted
    copy of ``rows`` is made."""
    for lo in range(0, rows.shape[0], OBJ_BLOCK_ROWS):
        block = rows[lo:lo + OBJ_BLOCK_ROWS]
        if offset:
            block = block + offset
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def export_obj(mesh: LabeledMesh, path) -> None:
    """Write a labeled triangle mesh as an ASCII OBJ file.

    The mesh comes from :func:`lnets.tessellate.dedupe_mesh`, which merges
    vertices, drops degenerate triangles and orders the vertices; this
    function writes what it is given. All ``v`` lines come first, in mesh
    order and printed with 17 significant digits, followed by one ``g``
    group per non-empty run of a patch kind (planar, conical, spherical)
    with its 1-based ``f`` lines in triangle order. Lines are formatted
    and written in blocks of rows, so the whole text is never held in
    memory.
    """
    runs = np.split(mesh.triangles, np.cumsum(mesh.counts)[:-1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# lnets mesh format_version={OBJ_FORMAT_VERSION}\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        for label, group in zip(LABELS, runs):
            if group.size:
                fh.write(f"g {label}\n")
                _write_rows(fh, "f %d %d %d\n", group, offset=1)


@contextlib.contextmanager
def _staging(out_dir: Path):
    """A fresh directory inside ``out_dir`` for files that are renamed into
    place once complete; it is removed, with whatever is left in it, on
    exit."""
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        yield staging
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _radius_token(cfg: RunConfig) -> str:
    if cfg.radius.mode == "tau_min":
        return f"tau:{cfg.radius.tau!r}"
    return f"explicit:{cfg.radius.value!r}"


def _theta_token(theta: AngleField) -> str:
    if theta.family == "constant":
        return f"constant:{theta.theta_min!r}"
    return f"{theta.family}:{theta.theta_min!r}:{theta.theta_max!r}"


def write_iteration_log(path, records, cfg: RunConfig,
                        timestamp: str) -> None:
    lines = [f"# lnets iteration log format_version={LOG_FORMAT_VERSION}",
             (f"# run timestamp={timestamp} radius={_radius_token(cfg)} "
              f"theta={_theta_token(cfg.theta)} "
              f"w_prox={cfg.weights.w_prox!r} w_tan={cfg.weights.w_tan!r} "
              f"w_td={cfg.weights.w_td!r}"),
             ",".join(LOG_COLUMNS)]
    for rec in records:
        e = rec.energies
        row = (rec.iteration, rec.e_total, e["oc"], e["prox"], e["tan"],
               e["td"], e["lfair"], e["gfair"], e["unit"], rec.ms)
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute surface -> field -> grid -> net -> optimization -> export.

    Returns the summary dictionary; a failed run replaces no artifact. An
    :class:`LnetsError` is re-raised as its own type and an ``OSError`` as
    an ``LnetsError``, both prefixed with the stage name; any other
    exception, a fault of the program, propagates unchanged.
    """
    stage = "load-surface"
    try:
        surface = load_surface(cfg.surface_path)
        stage = "remesh"
        grid = trace_grid(surface, cfg.radius, cfg.theta, cfg.grid)
        stage = "initialize"
        net0 = initialize(grid, surface, cfg.radius)
        stage = "optimize"
        net, records = lm_run(net0, surface, cfg.weights, cfg.schedule,
                              fix_radii=cfg.fix_radii)
        stage = "verify"
        report_v = verify(net, DEFAULT_TOL_OC)
        stage = "tessellate"
        mesh = dedupe_mesh(tessellate(net, cfg.tessellation))
        stage = "write"
        timestamp = datetime.now(timezone.utc).isoformat()
        # The last record is measured at the returned net. A run without
        # records returns the initialized net, which tessellate rejects.
        final_raw = records[-1].energies
        n_main = sum(1 for r in records if r.phase == "main")
        ms_mean = sum(r.ms for r in records) / len(records)
        summary = {
            "format_version": SUMMARY_FORMAT_VERSION,
            "timestamp": timestamp,
            "config": cfg.raw,
            "grid_rows": grid.rows,
            "grid_cols": grid.cols,
            "iterations_main": n_main,
            "iterations_contact": len(records) - n_main,
            "final_energies": {f"E_{k}": v for k, v in final_raw.items()},
            "combined_residual": (final_raw["oc"] + final_raw["prox"]
                                  + final_raw["tan"]),
            "final_e_oc": final_raw["oc"],
            "max_contact_residual": report_v.max_contact_residual,
            "num_inadmissible_edges": report_v.num_inadmissible_edges,
            "is_lnet": report_v.is_lnet,
            "ms_per_iteration": ms_mean,
        }
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        with _staging(out) as staging:
            save_lnet(net, staging / "lnet.json")
            export_obj(mesh, staging / "mesh.obj")
            write_iteration_log(staging / "iterations.csv", records, cfg,
                                timestamp)
            (staging / "summary.json").write_text(
                json.dumps(summary, indent=1), encoding="utf-8")
            for name in ("lnet.json", "mesh.obj", "iterations.csv",
                         "summary.json"):
                os.replace(staging / name, out / name)
        return summary
    except Exception as exc:
        if isinstance(exc, LnetsError):
            raise type(exc)(f"[stage {stage}] {exc}") from exc
        if isinstance(exc, OSError):
            raise LnetsError(f"[stage {stage}] {exc}") from exc
        raise


def _parse_log_runs(path):
    """Runs of an iteration log: dicts of run-marker ``meta`` and numeric
    ``rows``."""
    runs = []
    current = None
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed log {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if line.startswith("# run "):
            current = {"meta": {}, "rows": []}
            runs.append(current)
            for token in line[len("# run "):].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    current["meta"][key] = val
        elif not line or line.startswith("#") or line.startswith("iter,"):
            continue
        else:
            if current is None:
                raise ConfigError(f"malformed log {path}: data before "
                                  "a run marker")
            parts = line.split(",")
            try:  # an integer iteration count, then numbers
                row = [int(parts[0])] + [float(p) for p in parts[1:]]
            except ValueError:
                row = []
            if len(row) != len(LOG_COLUMNS):
                raise ConfigError(f"malformed log row: {line!r}")
            current["rows"].append(row)
    if not runs or any(not r["rows"] for r in runs):
        raise ConfigError(f"log {path} contains no complete runs")
    return runs


def report(log_path) -> str:
    """Summary table (one row per run) rendered from an iteration log.

    The combined residual column sums the final contact, proximity and
    tangency energies; runs are ordered by their timestamps.
    """
    runs = sorted(_parse_log_runs(log_path),
                  key=lambda r: r["meta"].get("timestamp", ""))
    header = ("timestamp", "radius", "theta", "w_prox", "w_tan", "w_td",
              "ms/iter", "iter", "residual", "residual_oc")
    table = [header]
    for run in runs:
        rows = run["rows"]
        last = rows[-1]
        col = {name: idx for idx, name in enumerate(LOG_COLUMNS)}
        combined = (last[col["E_oc"]] + last[col["E_prox"]]
                    + last[col["E_tan"]])
        ms = sum(r[col["ms"]] for r in rows) / len(rows)
        meta = run["meta"]
        table.append((meta.get("timestamp", "-"), meta.get("radius", "-"),
                      meta.get("theta", "-"), meta.get("w_prox", "-"),
                      meta.get("w_tan", "-"), meta.get("w_td", "-"),
                      f"{ms:.1f}", str(int(last[col['iter']])),
                      f"{combined:.3e}", f"{last[col['E_oc']]:.3e}"))
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
             for row in table]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lnets",
        description="Approximate positively curved surfaces by watertight "
                    "plane/cone/sphere quad assemblies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the full pipeline")
    p_run.add_argument("--config", required=True, help="JSON run config")

    p_verify = sub.add_parser("verify", help="check a stored net")
    p_verify.add_argument("--lnet", required=True)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL_OC)

    p_tess = sub.add_parser("tessellate", help="export a stored net as OBJ")
    p_tess.add_argument("--lnet", required=True)
    p_tess.add_argument("--out", default="mesh.obj")
    p_tess.add_argument("--arc-samples", type=int,
                        default=TessellationParams.arc_samples)
    p_tess.add_argument("--tol", type=float, default=DEFAULT_TOL_OC)

    p_rep = sub.add_parser("report", help="summary table from iteration logs")
    p_rep.add_argument("--log", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run_pipeline(load_config(args.config))
            print(json.dumps(summary, indent=1))
            return 0
        if args.command == "verify":
            rep = verify(load_lnet(args.lnet), args.tol)
            print(f"max_contact_residual {rep.max_contact_residual:.6e}")
            print(f"num_inadmissible_edges {rep.num_inadmissible_edges}")
            print(f"max_unit_deviation {rep.max_unit_deviation:.6e}")
            print(f"is_lnet {rep.is_lnet}")
            return 0 if rep.is_lnet else 1
        if args.command == "tessellate":
            params = checked(TessellationParams, "tessellate",
                             args.arc_samples)
            net = load_lnet(args.lnet)
            mesh = dedupe_mesh(tessellate(net, params, args.tol))
            # Written beside the target and renamed over it, so a failed
            # write leaves an earlier file as it was.
            out = Path(args.out)
            with _staging(out.parent) as staging:
                export_obj(mesh, staging / out.name)
                os.replace(staging / out.name, out)
            print(f"wrote {args.out}: {mesh.vertices.shape[0]} vertices, "
                  f"{mesh.triangles.shape[0]} triangles")
            return 0
        if args.command == "report":
            print(report(args.log))
            return 0
    except (LnetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
