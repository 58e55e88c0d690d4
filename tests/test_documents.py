"""Property tests of the three JSON documents: run config, surface, net.

Starting from a valid document, an arbitrary JSON value is put at a
random key path (or replaces the whole document). Loading then either
returns or raises ConfigError, never another exception; the command line
turns such documents into exit code 2 and one ``error:`` line.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnets import ConfigError, convex_paraboloid_patch, save_surface
from lnets.bspline import surface_from_dict, surface_to_dict
from lnets.cli import config_from_dict, main
from lnets.lnet import lnet_from_dict, lnet_to_dict

from conftest import translational_offset_net

EXAMPLES = 500

CONFIG = {
    "format_version": 1,
    "surface": "surf.json",
    "radius": {"mode": "explicit", "value": 0.2, "fix_radii": False},
    "theta": {"family": "linear_u", "theta_min": 0.3, "theta_max": 1.2},
    "grid": {"rows": 6, "cols": 6, "edge_length": 0.3, "rk4_step": None},
    "weights": {"w_prox": 1e-4},
    "schedule": {"max_iters": 15, "final_pass_iters": 10},
    "tessellation": {"arc_samples": 8},
    "output_dir": "out",
}
SURFACE = surface_to_dict(convex_paraboloid_patch())
NET = lnet_to_dict(translational_offset_net(3, 3))
# An array nested deeper than numpy's 64 dimensions.
DEEP = json.loads("[" * 100 + "1" + "]" * 100)


def json_values(depth=3):
    """JSON values: null, bools, integers (some beyond the float range),
    floats with +-inf and NaN, strings, :data:`DEEP`, and arrays and
    objects nested up to ``depth`` levels."""
    leaves = (st.none() | st.booleans() | st.integers()
              | st.sampled_from([10 ** 400, -(2 ** 64), DEEP]) | st.floats()
              | st.text(max_size=8))
    if depth == 0:
        return leaves
    inner = json_values(depth - 1)
    return (leaves | st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3))


def key_paths(doc, prefix=()):
    """Every key path into ``doc``, and one new key per object."""
    paths = [prefix]
    if isinstance(doc, dict):
        paths.append(prefix + ("new_key",))
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        paths += key_paths(value, prefix + (key,))
    return paths


def put(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``; the empty path
    replaces the whole document."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def mutated(doc):
    """``doc`` with an arbitrary JSON value at a random key path."""
    # Each depth is equally likely, so the few top-level keys are drawn
    # as often as the many array entries.
    by_depth = {}
    for path in key_paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    paths = st.sampled_from(sorted(by_depth)).flatmap(
        lambda depth: st.sampled_from(by_depth[depth]))
    return st.builds(put, st.just(doc), paths, json_values())


@pytest.fixture(scope="module")
def surface_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    save_surface(convex_paraboloid_patch(), path / "surf.json")
    return path


def test_valid_documents_load(surface_dir):
    config_from_dict(CONFIG, surface_dir)
    surface_from_dict(SURFACE)
    lnet_from_dict(NET)


@settings(max_examples=EXAMPLES)
@given(mutated(CONFIG))
def test_config_returns_or_raises_config_error(surface_dir, doc):
    try:
        config_from_dict(doc, surface_dir)
    except ConfigError:
        pass


@settings(max_examples=EXAMPLES)
@given(mutated(SURFACE))
def test_surface_returns_or_raises_config_error(doc):
    try:
        surface_from_dict(doc)
    except ConfigError:
        pass


@settings(max_examples=EXAMPLES)
@given(mutated(NET))
def test_net_returns_or_raises_config_error(doc):
    try:
        lnet_from_dict(doc)
    except ConfigError:
        pass


# (command, document, key path, value): one bad field per case.
CLI_CASES = [
    ("run", CONFIG, ("grid",), None),
    ("run", CONFIG, ("radius",), 5),
    ("run", CONFIG, ("schedule",), [1]),
    ("run", CONFIG, ("weights",), "ab"),
    ("run", CONFIG, ("grid", "rows"), 2.7),
    ("run", CONFIG, ("grid", "rows"), "16"),
    ("run", CONFIG, ("grid", "edge_length"), True),
    ("run", CONFIG, ("radius", "value"), "0.5"),
    ("run", CONFIG, ("schedule", "fairness_decay"), math.inf),
    ("run", CONFIG, ("output_dir",), None),
    ("run", CONFIG, ("format_version",), True),
    ("run", CONFIG, ("seed",), 0),
    ("run", CONFIG, ("grid", "edge_length"), 10 ** 400),
    ("run", CONFIG, ("grid", "edge_length"), 1e-16),
    ("run", CONFIG, ("theta", "family"), "spiral"),
    ("run", SURFACE, ("degree_u",), 2.7),
    ("run", SURFACE, ("control_points", 1, 1, 2), math.nan),
    ("run", SURFACE, ("knots_u", 5), math.inf),
    ("verify", NET, ("planes", 0, 0), {"a": 1}),
    ("verify", NET, ("spheres", 1), "ab"),
    ("verify", NET, ("format_version",), 1.0),
    ("tessellate", NET, ("planes", 0, 0), {"a": 1}),
    ("tessellate", NET, ("spheres", 0, 0, 1), None),
    ("tessellate", NET, ("planes", 2, 1, 0), [1, 2, "3"]),
]


@pytest.mark.parametrize("command,doc,path,value", CLI_CASES,
                         ids=[f"{c[0]}-{'.'.join(map(str, c[2]))}"
                              for c in CLI_CASES])
def test_cli_reports_a_bad_document_in_one_error_line(tmp_path, capsys,
                                                     command, doc, path,
                                                     value):
    bad = put(doc, path, value)
    # A bad surface is read through the valid config.
    (tmp_path / "surf.json").write_text(
        json.dumps(bad if doc is SURFACE else SURFACE))
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(CONFIG if doc is SURFACE else bad))
    flag = "--config" if command == "run" else "--lnet"
    argv = [command, flag, str(doc_path)]
    if command == "tessellate":
        argv += ["--out", str(tmp_path / "mesh.obj")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "mesh.obj").exists()


def test_json_nested_beyond_the_parser_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("run --config", "verify --lnet", "tessellate --lnet"):
        assert main(command.split() + [str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
