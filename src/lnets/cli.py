"""Pipeline orchestration and command-line interface.

Subcommands: ``run`` (full pipeline from a JSON config), ``verify``
(contact check of a stored net), ``tessellate`` (mesh export of a stored
net) and ``report`` (summary table from iteration logs).

A pipeline run writes four artifacts into the output directory: the
serialized net (``lnet.json``), the tessellated mesh (``mesh.obj``), the
per-iteration log (``iterations.csv``) and a run summary
(``summary.json``). The net and mesh files are byte-identical across
repeated runs of the same config; the log and summary carry timings.

The mesh is merged once, by :func:`lnets.tessellate.dedupe_mesh`, between
tessellation and export; :func:`export_obj` writes it as given.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bspline import load_surface
from .conjugacy import CongruenceSpec
from .errors import ConfigError, LnetsError, read_json
from .lnet import (DEFAULT_TOL_OC, initialize, load_lnet,
                   save_lnet, verify)
from .optimize import Schedule, Weights, lm_run
from .remesh import AngleField, GridSpec, trace_grid
from .tessellate import (LABEL_CONICAL, LABEL_PLANAR, LABEL_SPHERICAL,
                         LabeledMesh, TessellationParams, dedupe_mesh,
                         tessellate)

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
    seed: int
    raw: dict


def _require(mapping: dict, key: str, where: str, convert=None):
    if key not in mapping:
        raise ConfigError(f"missing config field {where}{key}")
    try:
        return mapping[key] if convert is None else convert(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{key}: {exc}") from exc


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields in {where}: "
                          f"{sorted(unknown)}")


def _parse_radius(data: dict):
    _reject_unknown(data, {"mode", "tau", "value", "fix_radii"}, "radius")
    mode = _require(data, "mode", "radius.")
    if mode == "tau_min":
        tau = _require(data, "tau", "radius.", float)
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"radius.tau={tau:g} must lie in (0, 1)")
        if "fix_radii" in data or "value" in data:
            raise ConfigError("radius.fix_radii/value only apply to "
                              "explicit mode")
        return CongruenceSpec("tau_min", tau=tau), False
    if mode == "explicit":
        value = _require(data, "value", "radius.", float)
        if not value > 0.0:
            raise ConfigError(f"radius.value={value:g} must be positive")
        # Prescribed constant radii are held fixed by default.
        fix = data.get("fix_radii", True)
        if not isinstance(fix, bool):
            raise ConfigError(f"radius.fix_radii={fix!r} must be a boolean")
        return CongruenceSpec("explicit", value=value), fix
    raise ConfigError(f"radius.mode={mode!r} must be tau_min or explicit")


def _parse_theta(data: dict) -> AngleField:
    family = _require(data, "family", "theta.")
    try:
        if family == "constant":
            _reject_unknown(data, {"family", "value"}, "theta")
            return AngleField.constant(float(_require(data, "value",
                                                      "theta.")))
        _reject_unknown(data, {"family", "theta_min", "theta_max"}, "theta")
        return AngleField(family,
                          float(_require(data, "theta_min", "theta.")),
                          float(_require(data, "theta_max", "theta.")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta: {exc}") from exc


def config_from_dict(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Strict parse and validation of the run-config schema."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"format_version", "surface", "radius", "theta", "grid",
               "weights", "schedule", "tessellation", "output_dir", "seed"}
    _reject_unknown(data, allowed, "config")
    if _require(data, "format_version", "") != CONFIG_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported config format_version {data['format_version']!r}")
    base = Path(base_dir) if base_dir is not None else Path(".")
    surface_path = base / str(_require(data, "surface", ""))
    if not surface_path.is_file():
        raise ConfigError(f"surface file not found: {surface_path}")
    radius, fix_radii = _parse_radius(_require(data, "radius", ""))
    theta = _parse_theta(_require(data, "theta", ""))

    grid_data = _require(data, "grid", "")
    _reject_unknown(grid_data, {"rows", "cols", "edge_length", "rk4_step"},
                    "grid")
    try:
        grid = GridSpec(int(_require(grid_data, "rows", "grid.")),
                        int(_require(grid_data, "cols", "grid.")),
                        float(_require(grid_data, "edge_length", "grid.")),
                        (float(grid_data["rk4_step"])
                         if grid_data.get("rk4_step") is not None else None))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    weights_data = dict(data.get("weights", {}))
    _reject_unknown(weights_data, set(Weights.__dataclass_fields__),
                    "weights")
    try:
        weights = Weights(**weights_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"weights: {exc}") from exc
    if weights.w_reg == 0.0:
        raise ConfigError("weights: w_reg must be positive (LM damping)")

    sched_data = dict(data.get("schedule", {}))
    _reject_unknown(sched_data, set(Schedule.__dataclass_fields__),
                    "schedule")
    try:
        schedule = Schedule(**sched_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    tess_data = dict(data.get("tessellation", {}))
    _reject_unknown(tess_data, {"arc_samples", "ruling_samples"},
                    "tessellation")
    try:
        tess = TessellationParams(**{k: int(v) for k, v in tess_data.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tessellation: {exc}") from exc

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed={seed!r} must be an integer")
    return RunConfig(surface_path=surface_path, radius=radius,
                     fix_radii=fix_radii, theta=theta, grid=grid,
                     weights=weights, schedule=schedule, tessellation=tess,
                     output_dir=base / str(_require(data, "output_dir", "")),
                     seed=seed, raw=data)


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path), base_dir=Path(path).parent)


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write ``line % row`` for every row, :data:`OBJ_BLOCK_ROWS` rows per
    formatting call."""
    for lo in range(0, rows.shape[0], OBJ_BLOCK_ROWS):
        block = rows[lo:lo + OBJ_BLOCK_ROWS]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def export_obj(mesh: LabeledMesh, path) -> None:
    """Write a labeled triangle mesh as an ASCII OBJ file.

    The mesh comes from :func:`lnets.tessellate.dedupe_mesh`, which merges
    vertices, drops degenerate triangles and orders the vertices; this
    function writes what it is given. All ``v`` lines come first, in mesh
    order and printed with 17 significant digits, followed by one ``g``
    group per non-empty patch label (planar, conical, spherical) with its
    1-based ``f`` lines in triangle order. Lines are formatted and
    written in blocks of rows, so the whole text is never held in memory.
    """
    labels = np.asarray(mesh.labels, dtype=str)
    faces = mesh.triangles + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# lnets mesh format_version={OBJ_FORMAT_VERSION}\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        for label in (LABEL_PLANAR, LABEL_CONICAL, LABEL_SPHERICAL):
            group = faces[labels == label]
            if group.size:
                fh.write(f"g {label}\n")
                _write_rows(fh, "f %d %d %d\n", group)


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

    Returns the summary dictionary. Any stage failure removes artifacts
    written so far and re-raises the error prefixed with the stage name.
    """
    written = []
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
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        timestamp = datetime.now(timezone.utc).isoformat()

        lnet_path = out / "lnet.json"
        save_lnet(net, lnet_path)
        written.append(lnet_path)

        obj_path = out / "mesh.obj"
        export_obj(mesh, obj_path)
        written.append(obj_path)

        csv_path = out / "iterations.csv"
        write_iteration_log(csv_path, records, cfg, timestamp)
        written.append(csv_path)

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
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=1),
                                encoding="utf-8")
        written.append(summary_path)
        return summary
    except Exception as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        if isinstance(exc, LnetsError):
            raise type(exc)(f"[stage {stage}] {exc}") from exc
        raise LnetsError(f"[stage {stage}] {exc}") from exc


def _parse_log_runs(path):
    """Runs found in an iteration log: (marker dict, final row, n, ms)."""
    runs = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
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
                if len(parts) != len(LOG_COLUMNS):
                    raise ConfigError(f"malformed log row: {line!r}")
                current["rows"].append([float(p) for p in parts])
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
    p_tess.add_argument("--arc-samples", type=int, default=8)
    p_tess.add_argument("--ruling-samples", type=int, default=8)
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
            try:
                params = TessellationParams(args.arc_samples,
                                            args.ruling_samples)
            except ValueError as exc:
                raise ConfigError(f"tessellate: {exc}") from exc
            net = load_lnet(args.lnet)
            mesh = dedupe_mesh(tessellate(net, params, args.tol))
            export_obj(mesh, args.out)
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
