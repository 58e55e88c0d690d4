"""Config validation, pipeline artifacts, OBJ export, reports, CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lnets
from lnets import (ConfigError, LNet, LnetsError, TracingError, cli,
                   load_lnet, load_surface, save_lnet, save_surface)
from lnets.cli import (LOG_COLUMNS, OBJ_BLOCK_ROWS, config_from_dict,
                       export_obj, load_config, main, report, run_pipeline)
from lnets.tessellate import (LABELS, LabeledMesh, TessellationParams,
                              dedupe_mesh, tessellate)

from conftest import solved_sphere_net, translational_offset_net


def base_config(tmp_path, patch, **overrides):
    save_surface(patch, tmp_path / "surf.json")
    cfg = {
        "format_version": 1,
        "surface": "surf.json",
        "radius": {"mode": "tau_min", "tau": 0.75},
        "theta": {"family": "constant", "value": math.pi / 4},
        "grid": {"rows": 6, "cols": 6, "edge_length": 0.3},
        "schedule": {"max_iters": 15, "final_pass_iters": 10},
        "output_dir": "out",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_validation_names_offending_field(tmp_path, patch):
    path = base_config(tmp_path, patch,
                       radius={"mode": "tau_min", "tau": 1.2})
    with pytest.raises(ConfigError, match="radius: tau"):
        load_config(path)


def test_config_rejects_unknown_and_missing_fields(tmp_path, patch):
    save_surface(patch, tmp_path / "surf.json")
    good = json.loads((base_config(tmp_path, patch)).read_text())
    bad = dict(good)
    bad["typo_field"] = 1
    with pytest.raises(ConfigError, match="typo_field"):
        config_from_dict(bad, tmp_path)
    bad2 = dict(good)
    del bad2["grid"]
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(bad2, tmp_path)
    bad3 = dict(good)
    bad3["theta"] = {"family": "constant", "value": 2.0}
    with pytest.raises(ConfigError, match="theta"):
        config_from_dict(bad3, tmp_path)
    bad4 = dict(good)
    bad4["surface"] = "missing.json"
    with pytest.raises(ConfigError, match="missing.json"):
        config_from_dict(bad4, tmp_path)


def test_config_rejects_negative_fairness_decay(tmp_path, patch):
    # A decay above 1 would overflow the fairness weights during the run.
    for bad in (-0.1, 1e200):
        path = base_config(tmp_path, patch, schedule={"fairness_decay": bad})
        with pytest.raises(ConfigError, match="schedule: fairness_decay"):
            load_config(path)


def test_config_rejects_mismatched_sample_counts(tmp_path, patch):
    # The ruling count is the arc count: a second count, equal or not, is
    # an unknown field.
    good = json.loads(base_config(tmp_path, patch).read_text())
    for extra in ({"ruling_samples": 6}, {"ruling_samples": 5}):
        bad = dict(good, tessellation={"arc_samples": 5, **extra})
        with pytest.raises(ConfigError, match="tessellation: unknown fields "
                                              r"\['ruling_samples'\]"):
            config_from_dict(bad, tmp_path)
    cfg = config_from_dict(dict(good, tessellation={"arc_samples": 5}),
                           tmp_path)
    assert cfg.tessellation == TessellationParams(5)


@pytest.mark.parametrize("weights", [{"w_lfair": math.nan},
                                     {"w_tan": math.inf}, {"w_reg": 0.0},
                                     {"w_td": "1e-5"}])
def test_config_rejects_nonfinite_weights_and_zero_damping(tmp_path, patch,
                                                           weights):
    # Python's json reads and writes NaN and Infinity.
    path = base_config(tmp_path, patch, weights=weights)
    with pytest.raises(ConfigError, match="weights: "):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    ("schedule", {"max_iters": "5"}), ("grid", {"rows": None, "cols": 6,
                                                "edge_length": 0.3}),
    ("theta", {"family": "constant", "value": None}),
    ("tessellation", {"arc_samples": None})])
def test_config_rejects_values_of_the_wrong_type(tmp_path, patch, field,
                                                  value):
    path = base_config(tmp_path, patch, **{field: value})
    with pytest.raises(ConfigError, match=f"{field}: "):
        load_config(path)


@pytest.mark.parametrize("overrides,field", [
    ({"radius": {"mode": "tau_min", "tau": "abc"}}, "radius.tau"),
    ({"radius": {"mode": "explicit", "value": "abc"}}, "radius.value"),
    ({"radius": {"mode": "explicit", "value": 0.2, "fix_radii": "false"}},
     "radius.fix_radii"),
    # The pipeline is deterministic: a seed of any value is unknown.
    ({"seed": 0}, "seed"), ({"seed": 1.5}, "seed")])
def test_config_rejects_radius_and_seed_of_the_wrong_type(tmp_path, patch,
                                                          overrides, field):
    path = base_config(tmp_path, patch, **overrides)
    with pytest.raises(ConfigError, match=field.replace(".", ": ")):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("schedule", [
    {"max_iters": 2.5}, {"final_pass_iters": True}, {"decay_every": 2.0},
    {"converge_patience": 3.0}, {"converge_rtol": math.nan},
    {"converge_rtol": -1e-14}])
def test_config_rejects_non_integer_counts_and_bad_tolerances(tmp_path, patch,
                                                              schedule):
    path = base_config(tmp_path, patch, schedule=schedule)
    with pytest.raises(ConfigError, match=f"schedule: {next(iter(schedule))}"):
        load_config(path)


def test_cli_malformed_input_exits_with_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for loader in (load_config, load_lnet, load_surface):
        with pytest.raises(ConfigError, match="bad.json"):
            loader(bad)
    good = tmp_path / "lnet.json"
    save_lnet(translational_offset_net(3, 3), good)
    for argv in (["run", "--config", str(bad)],
                 ["verify", "--lnet", str(bad)],
                 ["tessellate", "--lnet", str(bad)],
                 ["tessellate", "--lnet", str(good), "--arc-samples", "1"]):
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(e.startswith("error: ") for e in err)
    assert err[-1] == "error: tessellate: arc_samples must be at least 2"


@pytest.mark.parametrize("normal", [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0)])
def test_cli_rejects_a_net_with_non_unit_normals(tmp_path, capsys, normal):
    # Every contact satisfies <n, c> + h = r, but with |n| != 1 that
    # residual measures no distance.
    ii, jj = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    centers = np.stack([ii, jj, np.zeros_like(ii)], axis=2)
    path = tmp_path / "lnet.json"
    save_lnet(LNet(np.broadcast_to(normal, (3, 3, 3)), np.ones((3, 3)),
                   centers, np.ones((2, 2))), path)
    assert main(["verify", "--lnet", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "max_unit_deviation 1.000000e+00" in out
    assert out[-1] == "is_lnet False"
    obj = tmp_path / "mesh.obj"
    assert main(["tessellate", "--lnet", str(path), "--out", str(obj)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: net fails verification")
    assert "max unit deviation 1)" in err[0]
    assert not obj.exists()


def test_failed_tessellate_write_leaves_the_earlier_obj(tmp_path, capsys,
                                                       monkeypatch):
    path = tmp_path / "lnet.json"
    save_lnet(translational_offset_net(3, 3, d=0.2), path)
    obj = tmp_path / "mesh.obj"
    assert main(["tessellate", "--lnet", str(path), "--out", str(obj)]) == 0
    before = obj.read_bytes()
    capsys.readouterr()

    def fault(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_rows", fault)
    assert main(["tessellate", "--lnet", str(path), "--out", str(obj),
                 "--arc-samples", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: disk full"]
    assert obj.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lnet.json",
                                                           "mesh.obj"]


def test_importing_the_cli_does_not_load_scipy():
    # Only an LM run needs scipy; verify, tessellate and report do not.
    src = str(Path(lnets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import lnets.cli, sys; "
                    "assert 'scipy' not in sys.modules"], env=env,
                   check=True, timeout=60)


def test_explicit_radius_defaults_to_fixed(tmp_path, patch):
    path = base_config(tmp_path, patch,
                       radius={"mode": "explicit", "value": 0.2})
    cfg = load_config(path)
    assert cfg.fix_radii
    path2 = base_config(tmp_path, patch,
                        radius={"mode": "explicit", "value": 0.2,
                                "fix_radii": False})
    assert not load_config(path2).fix_radii
    assert not load_config(base_config(tmp_path, patch)).fix_radii


def test_pipeline_writes_artifacts_and_is_deterministic(tmp_path, patch):
    cfg = load_config(base_config(tmp_path, patch))
    summary = run_pipeline(cfg)
    out = tmp_path / "out"
    for name in ("lnet.json", "mesh.obj", "iterations.csv", "summary.json"):
        assert (out / name).is_file()
    assert summary["is_lnet"]
    assert summary["final_e_oc"] <= 1e-18
    # Every config parameter is echoed into the summary record.
    assert summary["config"] == json.loads(
        (tmp_path / "config.json").read_text())

    lnet_1 = (out / "lnet.json").read_bytes()
    obj_1 = (out / "mesh.obj").read_bytes()
    run_pipeline(cfg)
    assert (out / "lnet.json").read_bytes() == lnet_1
    assert (out / "mesh.obj").read_bytes() == obj_1


def test_pipeline_stage_error_removes_outputs(tmp_path, patch):
    # An edge length far larger than the domain leaves no tractable grid.
    path = base_config(tmp_path, patch,
                       grid={"rows": 6, "cols": 6, "edge_length": 50.0})
    cfg = load_config(path)
    with pytest.raises(TracingError, match=r"\[stage remesh\] .* 2x2"):
        run_pipeline(cfg)
    out = tmp_path / "out"
    assert not out.is_dir() or not list(out.iterdir())


def test_pipeline_program_fault_propagates_and_removes_outputs(
        tmp_path, patch, monkeypatch):
    # The log is written after the net and the mesh.
    def fault(*args):
        raise RuntimeError("fault in the log writer")

    monkeypatch.setattr(cli, "write_iteration_log", fault)
    cfg = load_config(base_config(tmp_path, patch))
    with pytest.raises(RuntimeError, match="^fault in the log writer$"):
        run_pipeline(cfg)
    assert not list((tmp_path / "out").iterdir())


def test_failed_rerun_leaves_the_previous_artifacts(tmp_path, patch,
                                                    monkeypatch):
    path = base_config(tmp_path, patch,
                       grid={"rows": 5, "cols": 5, "edge_length": 0.2},
                       schedule={"max_iters": 20, "final_pass_iters": 5})
    run_pipeline(load_config(path))
    out = tmp_path / "out"
    names = ["iterations.csv", "lnet.json", "mesh.obj", "summary.json"]
    before = {name: (out / name).read_bytes() for name in names}

    def fault(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_iteration_log", fault)
    with pytest.raises(LnetsError, match=r"^\[stage write\] disk full$"):
        run_pipeline(load_config(path))
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


def quad_mesh():
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [1., 1., 0.],
                      [0., 1., 0.]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return LabeledMesh(verts, tris, (2, 0, 0))


def test_export_obj_single_quad(tmp_path):
    path = tmp_path / "quad.obj"
    export_obj(quad_mesh(), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    g_lines = [l for l in lines if l.startswith("g ")]
    assert len(v_lines) == 4 and len(f_lines) == 2
    assert g_lines == ["g planar"]
    assert f_lines[0] == "f 1 2 3"


def test_export_obj_dedupes_shared_vertices(tmp_path):
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [0., 1., 0.],
                      [1., 0., 0.], [0., 1., 0.], [1., 1., 0.]])
    tris = np.array([[0, 1, 2], [3, 5, 4]])
    mesh = LabeledMesh(verts, tris, (1, 1, 0))
    path = tmp_path / "two.obj"
    export_obj(dedupe_mesh(mesh), path)
    v_lines = [l for l in path.read_text().splitlines()
               if l.startswith("v ")]
    assert len(v_lines) == 4  # shared pair emitted once


def test_export_obj_writes_each_nonempty_run_as_a_group(tmp_path):
    verts = np.eye(3)
    tris = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    path = tmp_path / "runs.obj"
    export_obj(LabeledMesh(verts, tris, (2, 0, 1)), path)
    lines = path.read_text().splitlines()
    assert lines[4:] == ["g planar", "f 1 2 3", "f 2 3 1", "g spherical",
                         "f 3 1 2"]


def reference_obj_text(mesh):
    """OBJ text of the former two-pass export: a dict merge of exactly
    equal vertices, then a second per-corner dict merge at write time."""
    index, unique = {}, []
    remap = np.empty(mesh.vertices.shape[0], dtype=int)
    for k, vert in enumerate(mesh.vertices):
        key = vert.tobytes()
        if key not in index:
            index[key] = len(unique)
            unique.append(vert)
        remap[k] = index[key]
    tris = remap[mesh.triangles]
    keep = [t[0] != t[1] and t[1] != t[2] and t[0] != t[2] for t in tris]
    labels = [lab for lab, k in zip(np.repeat(LABELS, mesh.counts), keep)
              if k]
    tris = tris[np.asarray(keep, dtype=bool)]

    index, verts = {}, []
    groups = {"planar": [], "conical": [], "spherical": []}
    for tri, label in zip(tris, labels):
        ids = []
        for vid in tri:
            key = unique[vid].tobytes()
            if key not in index:
                index[key] = len(verts)
                verts.append(unique[vid])
            ids.append(index[key])
        if ids[0] != ids[1] and ids[1] != ids[2] and ids[0] != ids[2]:
            groups[label].append(ids)
    lines = ["# lnets mesh format_version=1"]
    lines += [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in verts]
    for label in ("planar", "conical", "spherical"):
        if groups[label]:
            lines.append(f"g {label}")
            lines += [f"f {a + 1} {b + 1} {c + 1}"
                      for a, b, c in groups[label]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [8, 5])
def test_export_matches_two_pass_reference(tmp_path, patch, count):
    params = TessellationParams(count)
    # A solved net, and a point-sphere net whose collapsed patches give
    # degenerate triangles and vertices only they use.
    for name, net in (("solved", solved_sphere_net(patch, 5, 4)),
                      ("points", translational_offset_net(3, 3, d=0.0))):
        raw = tessellate(net, params)
        mesh = dedupe_mesh(raw)
        if name == "points":
            assert mesh.triangles.shape[0] < raw.triangles.shape[0]
        path = tmp_path / f"{name}.obj"
        export_obj(mesh, path)
        assert path.read_text(encoding="utf-8") == reference_obj_text(raw)


def joined_obj_text(mesh):
    """Reference OBJ text for the streamed writer: every line built, then
    joined."""
    lines = ["# lnets mesh format_version=1"]
    lines += [f"v {x:.17g} {y:.17g} {z:.17g}"
              for x, y, z in mesh.vertices.tolist()]
    labels = np.repeat(LABELS, mesh.counts)
    faces = mesh.triangles + 1
    for label in ("planar", "conical", "spherical"):
        group = faces[labels == label].tolist()
        if group:
            lines.append(f"g {label}")
            lines += [f"f {a} {b} {c}" for a, b, c in group]
    return "\n".join(lines) + "\n"


def test_export_obj_streams_blocks_as_the_joined_text(tmp_path):
    rng = np.random.default_rng(29)
    n = 2 * OBJ_BLOCK_ROWS + 37
    verts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-12, 12,
                                                           size=(n, 3))
    verts[:5] = [[-0.0, 0.0, 1.0], [1e-300, -2.5, 3.0],
                 [1.0 / 3.0, 2.0 ** 60, -7.0], [0.1, 0.2, 0.3],
                 [-1e22, 5e-324, 123456789.0]]
    tris = rng.integers(0, n, size=(2 * n + 11, 3))
    # Three runs; the conical one alone spans more than two blocks.
    conical = 2 * OBJ_BLOCK_ROWS + 501
    mesh = LabeledMesh(verts, tris, (7001, conical,
                                     tris.shape[0] - 7001 - conical))
    path = tmp_path / "big.obj"
    export_obj(mesh, path)
    assert path.read_text(encoding="utf-8") == joined_obj_text(mesh)


def test_export_obj_empty_mesh(tmp_path):
    path = tmp_path / "empty.obj"
    export_obj(LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int),
                           (0, 0, 0)), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def test_report_renders_runs(tmp_path, patch):
    cfg = load_config(base_config(tmp_path, patch))
    run_pipeline(cfg)
    log = tmp_path / "out" / "iterations.csv"
    table = report(log)
    rows = table.splitlines()
    assert rows[0].startswith("timestamp")
    assert len(rows) == 2
    assert "tau:0.75" in rows[1]
    assert "constant:" in rows[1]
    # Two runs appended: two rows, ordered by timestamp.
    doubled = tmp_path / "two_runs.csv"
    text = log.read_text()
    doubled.write_text(text + text.replace("timestamp=2", "timestamp=3"))
    assert len(report(doubled).splitlines()) == 3
    with pytest.raises(ConfigError):
        report(base_config(tmp_path, patch))  # not a log file


def test_report_rejects_a_malformed_log(tmp_path, capsys):
    head = ("# lnets iteration log format_version=1\n# run timestamp=t\n"
            + ",".join(LOG_COLUMNS) + "\n")
    log = tmp_path / "log.csv"
    # A non-numeric cell, a fractional iteration count, a short row.
    for row in ("1,abc,1,1,1,1,1,1,1,1", "1.5,1,1,1,1,1,1,1,1,1", "1,1,1"):
        log.write_text(head + row + "\n", encoding="utf-8")
        assert main(["report", "--log", str(log)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed log row: {row!r}"]
    log.write_bytes(b"\xff\xfe not text")
    assert main(["report", "--log", str(log)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed log ")


def test_cli_run_verify_tessellate_report(tmp_path, patch, capsys):
    cfg_path = base_config(tmp_path, patch)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert main(["verify", "--lnet", str(out / "lnet.json"),
                 "--tol", "1e-9"]) == 0
    assert main(["tessellate", "--lnet", str(out / "lnet.json"),
                 "--out", str(tmp_path / "mesh2.obj"),
                 "--arc-samples", "5"]) == 0
    assert (tmp_path / "mesh2.obj").is_file()
    assert main(["report", "--log", str(out / "iterations.csv")]) == 0
    captured = capsys.readouterr()
    assert "is_lnet True" in captured.out
    assert main(["verify", "--lnet", str(tmp_path / "nope.json")]) == 2


def test_last_log_row_is_measured_at_the_returned_net(tmp_path, patch):
    # The acceptance config; contact-pass rows keep the footpoints of the
    # last main iteration, the last row those of the returned net.
    path = base_config(
        tmp_path, patch, grid={"rows": 16, "cols": 16, "edge_length": 0.13},
        weights={"w_prox": 1e-4, "w_tan": 1e-4, "w_td": 1e-5},
        schedule={"max_iters": 100, "final_pass_iters": 20})
    summary = run_pipeline(load_config(path))
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    last = dict(zip(lines[2].split(","), map(float, lines[-1].split(","))))
    assert last["E_oc"] + last["E_prox"] + last["E_tan"] == pytest.approx(
        summary["combined_residual"], rel=1e-12, abs=0.0)


def test_csv_log_has_documented_columns(tmp_path, patch):
    run_pipeline(load_config(base_config(tmp_path, patch)))
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert lines[0].startswith("# lnets iteration log format_version=")
    assert lines[1].startswith("# run timestamp=")
    assert lines[2] == ("iter,E_total,E_oc,E_prox,E_tan,E_td,E_lfair,"
                        "E_gfair,E_unit,ms")
    first = lines[3].split(",")
    assert first[0] == "1"
    assert len(first) == 10


def test_run_without_iterations_fails_verification(tmp_path, patch, capsys):
    # No LM records: the initialized net reaches tessellate unrefined.
    path = base_config(tmp_path, patch,
                       schedule={"max_iters": 0, "final_pass_iters": 0})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[stage tessellate] net fails verification" in err
    out = tmp_path / "out"
    assert not out.is_dir() or not list(out.iterdir())
