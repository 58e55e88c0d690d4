"""Config validation, pipeline artifacts, OBJ export, reports, CLI."""

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lnets
from lnets import (ConfigError, IrregularError, LNet, LnetsError,
                   TracingError, cli, load_lnet, load_surface, save_lnet,
                   save_surface)
from lnets.cli import (LOG_COLUMNS, OBJ_BLOCK_ROWS, config_from_dict,
                       export_obj, load_config, main, report, run_pipeline)
from lnets.objtext import face_lines, vertex_lines
from lnets.optimize import BLOCK_ORDER, IterationRecord, Schedule
from lnets.tessellate import (LABELS, LabeledMesh, TessellationParams,
                              dedupe_mesh, tessellate)

from conftest import (folded_patch, laguerre_boost, solved_sphere_net,
                      translational_offset_net)


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
    ({"seed": 0}, "seed"), ({"seed": 1.5}, "seed"),
    # An explicit radius must be positive.
    ({"radius": {"mode": "explicit", "value": -0.1}}, "radius.value")])
def test_config_rejects_radius_and_seed_of_the_wrong_type(tmp_path, patch,
                                                          overrides, field):
    path = base_config(tmp_path, patch, **overrides)
    with pytest.raises(ConfigError, match=field.replace(".", ": ")):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("schedule", [
    {"max_iters": 2.5}, {"final_pass_iters": True}, {"decay_every": 2.0}])
def test_config_rejects_non_integer_counts_and_bad_tolerances(tmp_path, patch,
                                                              schedule):
    path = base_config(tmp_path, patch, schedule=schedule)
    with pytest.raises(ConfigError, match=f"schedule: {next(iter(schedule))}"):
        load_config(path)


def test_config_with_an_early_stop_tolerance_is_rejected(tmp_path, patch,
                                                         capsys):
    # Each LM pass runs all its iterations, so the schedule has no
    # early-stop fields.
    path = base_config(tmp_path, patch, schedule={"converge_rtol": 1e-14})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: schedule: unknown fields ['converge_rtol']"]


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
    assert err[-1] == ("error: tessellate: arc_samples must be an integer "
                       ">= 2, got 1")


@pytest.mark.parametrize("command", ["verify", "tessellate"])
@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_cli_rejects_a_nan_or_negative_tolerance(tmp_path, capsys, command,
                                                 tol):
    # The net is exact, so only the tolerance can be at fault.
    path = tmp_path / "lnet.json"
    save_lnet(translational_offset_net(3, 3), path)
    assert main([command, "--lnet", str(path), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err == [f"error: {command}: --tol must be a nonnegative number, "
                   f"got {float(tol)}"]


@pytest.mark.parametrize("command", ["verify", "tessellate"])
def test_cli_tolerance_help_states_its_meaning(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    # argparse wraps the help text; compare it with single spaces.
    text = " ".join(capsys.readouterr().out.split())
    assert ("--tol TOL absolute bound on every contact residual |oc| = |n . c "
            "+ h - r|, in the net's length units (default: 1e-09)") in text


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
    # Only an OBJ export needs the formatter's tables.
    src = str(Path(lnets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import lnets.cli, sys; "
                    "assert 'scipy' not in sys.modules; "
                    "assert 'lnets.objtext' not in sys.modules"], env=env,
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


def test_run_on_a_folded_surface_exits_with_a_located_error(tmp_path,
                                                            capsys):
    # The acceptance config; the centre seed, on the fold, is the first
    # point traced.
    path = base_config(
        tmp_path, folded_patch(),
        grid={"rows": 16, "cols": 16, "edge_length": 0.13},
        weights={"w_prox": 1e-4, "w_tan": 1e-4, "w_td": 1e-5},
        schedule={"max_iters": 100, "final_pass_iters": 20})
    out = tmp_path / "out"
    out.mkdir()
    names = ["iterations.csv", "lnet.json", "mesh.obj", "summary.json"]
    for name in names:
        (out / name).write_text(f"earlier {name}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [stage remesh] at (u=0.5, v=0.5): jet is not regular: f_u "
        "and f_v are parallel"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / name).read_text() == f"earlier {name}\n"
               for name in names)


def test_staged_error_keeps_its_location(tmp_path):
    # The centre seed, on the fold, is the first point traced.
    path = base_config(tmp_path, folded_patch(),
                       grid={"rows": 16, "cols": 16, "edge_length": 0.13})
    with pytest.raises(IrregularError, match=r"^\[stage remesh\] at "
                       r"\(u=0\.5, v=0\.5\): ") as info:
        run_pipeline(load_config(path))
    assert np.array_equal(info.value.uv, [0.5, 0.5])
    assert info.value.index == 0
    assert info.value.line is None


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
    # A solved net, the same net boosted so that its radii vary, and a
    # point-sphere net whose collapsed patches give degenerate triangles
    # and vertices only they use.
    solved = solved_sphere_net(patch, 5, 4)
    for name, net in (("solved", solved),
                      ("boosted", laguerre_boost(solved, 0.15)),
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
    # Three runs; the planar one inside the first block, the conical one
    # alone spans more than two blocks.
    planar, conical = OBJ_BLOCK_ROWS // 2 + 3, 2 * OBJ_BLOCK_ROWS + 501
    mesh = LabeledMesh(verts, tris, (planar, conical,
                                     tris.shape[0] - planar - conical))
    path = tmp_path / "big.obj"
    export_obj(mesh, path)
    assert path.read_text(encoding="utf-8") == joined_obj_text(mesh)


def test_export_obj_empty_mesh(tmp_path):
    path = tmp_path / "empty.obj"
    export_obj(LabeledMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int),
                           (0, 0, 0)), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def vertex_text(values):
    """``vertex_lines`` of ``values`` (padded with 1.0 to whole rows)."""
    values = list(values) + [1.0] * (-len(values) % 3)
    rows = np.array(values, dtype=float).reshape(-1, 3)
    return vertex_lines(rows).tobytes().translate(None, b"\0")


def percent_text(values):
    values = list(values) + [1.0] * (-len(values) % 3)
    return b"".join(b"v %.17g %.17g %.17g\n" % tuple(values[k:k + 3])
                    for k in range(0, len(values), 3))


# Finite doubles as 64-bit patterns; half the exponents are drawn from
# the range that vertex_lines computes itself, [1e-4, 1e16) and a step
# beyond, the others from all finite exponents, which mostly take the
# `%` fallback.
finite_doubles = st.builds(
    lambda sign, exp, frac: struct.unpack(
        "<d", struct.pack("<Q", sign << 63 | exp << 52 | frac))[0],
    st.integers(0, 1), st.integers(1008, 1078) | st.integers(0, 2046),
    st.integers(0, 2 ** 52 - 1))


@settings(max_examples=300)
@given(st.lists(finite_doubles, min_size=1, max_size=30))
def test_vertex_lines_format_as_percent_17g(values):
    assert vertex_text(values) == percent_text(values)


def test_vertex_lines_explicit_cases():
    # 17-digit ties round half to even.
    assert vertex_text([1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 0.5]) == (
        b"v 1.0000076293945312 1.0000228881835938 0.5\n")
    cases = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e-310, 1.5, 0.25]
    for k in range(-4, 17):
        power = float(f"1e{k}")
        cases += [power, np.nextafter(power, 0.0),
                  np.nextafter(power, np.inf)]
    cases += [-x for x in cases]
    assert vertex_text(cases) == percent_text(cases)


@pytest.mark.parametrize("miss", [-1, 1])
def test_vertex_lines_correct_a_wrong_log10_estimate(monkeypatch, miss):
    # Every exponent estimate one off: the exact range check moves each
    # value back, so the text is unchanged.
    rng = np.random.default_rng(5)
    values = (rng.normal(size=300) * 10.0 ** rng.uniform(-4, 16, 300))
    values = values.tolist() + [1e-4, 0.1, 1.0, 999999999999999.9]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
    text = vertex_text(values)
    monkeypatch.undo()
    assert text == percent_text(values)


def test_face_lines_at_every_digit_width_boundary():
    # 1-based values n - 1 and n at each power of ten n, then around
    # 2**32, where a block switches from uint32 to uint64 digits.
    ones = [10 ** k for k in range(1, 10)] + [2 ** 32 - 1, 2 ** 32, 10 ** 10]
    values = [v for n in ones for v in (n - 1, n)]
    rows = np.array(values, dtype=np.int64).reshape(-1, 3) - 1
    for block in (rows[:1], rows[:6], rows[6:7], rows[7:], rows):
        text = b"".join(b"f %d %d %d\n" % tuple(r)
                        for r in (block + 1).tolist())
        assert face_lines(block).tobytes().translate(None, b"\0") == text


def test_export_obj_memory_stays_within_a_block(tmp_path):
    rng = np.random.default_rng(3)
    n = 4 * OBJ_BLOCK_ROWS + 123
    mesh = LabeledMesh(rng.normal(size=(n, 3)),
                       rng.integers(0, n, size=(2 * n, 3)), (n, n, 0))
    tracemalloc.start()
    try:
        export_obj(mesh, tmp_path / "mesh.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


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


@pytest.mark.parametrize("grid", [
    None, {"rows": 4, "cols": 4, "edge_length": 1e-4}],
    ids=["initial_net_fails_verify", "initial_net_verifies"])
def test_run_without_iterations_is_rejected_at_load(tmp_path, patch, capsys,
                                                    grid):
    # A schedule with no LM iteration is a config error, before any stage
    # runs. At edge 1e-4 the initialized net would pass verification, and
    # the run would have reached the summary with no record.
    path = base_config(tmp_path, patch,
                       schedule={"max_iters": 0, "final_pass_iters": 0},
                       **({"grid": grid} if grid else {}))
    with pytest.raises(ConfigError, match="schedule: max_iters and "
                       "final_pass_iters are both 0"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: schedule: ")
    assert not (tmp_path / "out").exists()
    # One iteration in either pass is a valid schedule.
    Schedule(max_iters=1, final_pass_iters=0)
    Schedule(max_iters=0, final_pass_iters=1)


def test_log_run_marker_of_a_varying_angle_field_reads_back(tmp_path, patch,
                                                           capsys):
    cfg = load_config(base_config(
        tmp_path, patch,
        theta={"family": "linear_u", "theta_min": 0.5, "theta_max": 0.75}))
    record = IterationRecord(
        iteration=1, phase="main", e_total=0.25, energies=dict.fromkeys(
            BLOCK_ORDER, 0.125), max_oc=0.5, w_lfair=1e-3, w_gfair=1e-3,
        escalations=0, footpoint_fallbacks=0, solves=1, ms=2.0)
    log = tmp_path / "iterations.csv"
    cli.write_iteration_log(log, [record], cfg, "t0")
    lines = log.read_text().splitlines()
    assert "theta=linear_u:0.5:0.75" in lines[1].split()
    assert lines[3] == "1,0.25,0.125,0.125,0.125,0.125,0.125,0.125,0.125,2.0"
    assert main(["report", "--log", str(log)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["t0", "tau:0.75", "linear_u:0.5:0.75"]


def test_report_rejects_a_run_marker_without_rows(tmp_path, capsys):
    head = "# lnets iteration log format_version=1\n# run timestamp=t\n"
    row = "1," + ",".join(["1.0"] * (len(LOG_COLUMNS) - 1)) + "\n"
    log = tmp_path / "log.csv"
    # No run at all, one empty run, and a complete run then an empty one.
    for text in ("", head + ",".join(LOG_COLUMNS) + "\n", head + row + head):
        log.write_text(text, encoding="utf-8")
        assert main(["report", "--log", str(log)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: log {log} contains no complete runs"]
