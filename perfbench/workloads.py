"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload generates its inputs from ``--seed`` (seed 0 is the exact
reference configuration; other seeds perturb the inputs slightly without
changing the amount of work), warms up on a tiny input of the same kind,
then runs its operation repeatedly. Every call into ``lnets`` goes through
a module attribute (``cli.run_pipeline``, ``optimize.lm_run``, ...) so that
the traced run's wrappers are the bindings that get called.

Workloads and why they exist:

- ``pipeline_acceptance``: ``run_pipeline`` on the acceptance config. The
  run users make; tracing dominates it.
- ``lm_converge_10x10``: initialize + 100+20 LM iterations + verify on a
  uniform 10x10 lattice. No tracing; footpoint refresh dominates and the
  contact pass reaches the roundoff floor.
- ``lm_step_40x40``: initialize + 3+1 LM iterations on a 40x40 lattice.
  No tracing; the sparse factorization dominates.
- ``export_exact_64x64``: load, verify, tessellate, dedupe, OBJ export and
  save of an exactly tangent 64x64 net, the stages the other workloads
  barely touch.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from pathlib import Path

import numpy as np

from lnets.bspline import convex_paraboloid_patch, save_surface
from lnets.conjugacy import CongruenceSpec
from lnets.remesh import QuadGrid

# Modules by import path: the package re-exports the function
# ``tessellate`` under the name of its module.
cli, lnet, optimize, tessellate = (
    importlib.import_module(f"lnets.{m}")
    for m in ("cli", "lnet", "optimize", "tessellate"))

from tracing import ZERO_STEP_ESCALATIONS

CONTACT_TOL = 1e-9


def perturbation(seed: int, n: int, half_width: float) -> np.ndarray:
    """``n`` offsets in ``[-half_width, half_width]``; all zero for seed 0."""
    if seed == 0:
        return np.zeros(n)
    return np.random.default_rng(seed).uniform(-half_width, half_width, n)


def paraboloid_coefficients(seed: int) -> tuple[float, float]:
    """Patch ``alpha``/``beta`` (1.0, 0.4) scaled by at most 1%."""
    scale = 1.0 + perturbation(seed, 2, 0.01)
    return 1.0 * float(scale[0]), 0.4 * float(scale[1])


def lattice_uv(surface, rows: int, cols: int, seed: int) -> np.ndarray:
    """Uniform lattice with the margins of the optimizer tests, jittered.

    Margins (0.06, 0.11) in u and (0.09, 0.07) in v move by at most
    0.005 each for seeds other than 0.
    """
    m = np.array([0.06, 0.11, 0.09, 0.07]) + perturbation(seed, 4, 0.005)
    u0, u1, v0, v1 = surface.domain
    us = np.linspace(u0 + m[0], u1 - m[1], rows)
    vs = np.linspace(v0 + m[2], v1 - m[3], cols)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return np.stack([uu, vv], axis=2)


def exact_net(alpha: float, beta: float, rows: int, cols: int,
              d: float = 0.25) -> lnet.LNet:
    """Exactly tangent net on ``z = (alpha x^2 + beta y^2) / 2``.

    The construction of the test suite's solved-sphere net, in closed
    form: vertex planes are the oriented (upward, positive mean
    curvature) tangent planes on an asymmetric parameter lattice of the
    unit patch over ``[-1, 1]^2``; each face sphere solves its four
    corner contact equations; everything is offset by ``d`` so the
    radii are positive.
    """
    us = np.linspace(0.06, 1.0 - 0.13, rows)
    vs = np.linspace(0.11, 1.0 - 0.07, cols)
    x, y = np.meshgrid(2.0 * us - 1.0, 2.0 * vs - 1.0, indexing="ij")
    points = np.stack([x, y, 0.5 * (alpha * x * x + beta * y * y)], axis=2)
    normals = np.stack([-alpha * x, -beta * y, np.ones_like(x)], axis=2)
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    intercepts = -np.einsum("ijc,ijc->ij", points, normals)

    corners = [(slice(da, da + rows - 1), slice(db, db + cols - 1))
               for da, db in lnet.CORNERS]
    a = np.empty((rows - 1, cols - 1, 4, 4))
    b = np.empty((rows - 1, cols - 1, 4))
    for k, (si, sj) in enumerate(corners):
        a[:, :, k, :3] = normals[si, sj]
        a[:, :, k, 3] = -1.0
        b[:, :, k] = -intercepts[si, sj]
    sol = np.linalg.solve(a, b[..., None])[..., 0]
    return lnet.LNet(normals, intercepts + d, sol[..., :3], sol[..., 3] + d)


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices ``(V, 3)`` and 0-based triangles ``(T, 3)`` of an OBJ file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    v = " ".join(ln[2:] for ln in lines if ln.startswith("v "))
    f = " ".join(ln[2:] for ln in lines if ln.startswith("f "))
    verts = np.array(v.split(), dtype=float).reshape(-1, 3)
    tris = np.array(f.split(), dtype=np.int64).reshape(-1, 3) - 1
    return verts, tris


def watertight_problems(tris: np.ndarray, n_verts: int) -> list[str]:
    """Problems with a triangle mesh's edge structure (empty when sound).

    Every edge must be used by one triangle (rim) or two (interior),
    at least one edge must be interior, and the rim must be a union of
    closed loops (each rim vertex on exactly two rim edges).
    """
    if tris.size == 0:
        return ["mesh has no triangles"]
    if tris.min() < 0 or tris.max() >= n_verts:
        return ["triangle index out of range"]
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                            tris[:, [2, 0]]])
    edges.sort(axis=1)
    keys, counts = np.unique(edges[:, 0] * n_verts + edges[:, 1],
                             return_counts=True)
    problems = []
    if counts.max() != 2:
        problems.append(f"largest edge use is {counts.max()}, not 2")
    rim = keys[counts == 1]
    degree = np.bincount(np.concatenate([rim // n_verts, rim % n_verts]),
                         minlength=n_verts)
    if np.any((degree != 0) & (degree != 2)):
        problems.append("rim is not a union of closed loops")
    return problems


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Base: ``generate`` writes inputs, ``op`` runs, ``check`` judges."""

    name = ""

    def __init__(self, seed: int, workdir: Path,
                 digest_store: Path | None = None, code_id: str = ""):
        self.seed = seed
        self.workdir = Path(workdir)
        # Where workloads that check byte-identical artifacts keep the
        # digests of earlier repetitions, keyed with the code identity.
        self.digest_store = digest_store
        self.code_id = code_id

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError


def _write_config(dirpath: Path, grid, schedule, rk4_step=None) -> Path:
    cfg = {
        "format_version": 1,
        "surface": "surf.json",
        "radius": {"mode": "tau_min", "tau": 0.75},
        "theta": {"family": "constant", "value": math.pi / 4},
        "grid": {"rows": grid[0], "cols": grid[1], "edge_length": grid[2]},
        "weights": {"w_prox": 1e-4, "w_tan": 1e-4, "w_td": 1e-5},
        "schedule": {"max_iters": schedule[0],
                     "final_pass_iters": schedule[1]},
        "output_dir": "out",
    }
    if rk4_step is not None:
        cfg["grid"]["rk4_step"] = rk4_step
    path = dirpath / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


class PipelineAcceptance(Workload):
    """``run_pipeline`` on the acceptance config (16x16 at edge 0.13)."""

    name = "pipeline_acceptance"

    def _prepare(self, sub: str, grid, schedule, rk4_step=None) -> Path:
        dirpath = self.workdir / sub
        dirpath.mkdir(parents=True, exist_ok=True)
        alpha, beta = paraboloid_coefficients(self.seed)
        save_surface(convex_paraboloid_patch(alpha, beta),
                     dirpath / "surf.json")
        return _write_config(dirpath, grid, schedule, rk4_step)

    def generate(self):
        self.config_path = self._prepare("in", (16, 16, 0.13), (100, 20))

    def warm_up(self):
        # Coarse steps keep the warm-up short; it still converges.
        path = self._prepare("warm", (4, 4, 0.2), (10, 5), rk4_step=0.1)
        cli.run_pipeline(cli.load_config(path))

    def op(self):
        cfg = cli.load_config(self.config_path)
        return cfg.output_dir, cli.run_pipeline(cfg)

    def check(self, result):
        out, summary = result
        problems = []
        if not summary["is_lnet"]:
            problems.append("net fails verification")
        if not summary["max_contact_residual"] <= CONTACT_TOL:
            problems.append(f"max contact residual "
                            f"{summary['max_contact_residual']:.3e}")
        verts, tris = read_obj(out / "mesh.obj")
        problems += watertight_problems(tris, verts.shape[0])
        problems += self._check_determinism(out)
        return problems

    def _check_determinism(self, out: Path) -> list[str]:
        """Artifacts must equal those of every earlier run of this seed.

        Digests persist in ``digest_store`` keyed by workload, seed and
        code identity, so repetitions in later runs are compared too.
        """
        digests = [file_digest(out / "lnet.json"),
                   file_digest(out / "mesh.obj")]
        if self.digest_store is None:
            return []
        key = f"{self.name}/seed{self.seed}/{self.code_id}"
        store = {}
        if self.digest_store.is_file():
            store = json.loads(self.digest_store.read_text(encoding="utf-8"))
        if key in store:
            if store[key] != digests:
                return ["lnet.json/mesh.obj differ from an earlier "
                        "repetition of this seed"]
            return []
        store[key] = digests
        tmp = self.digest_store.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(store, indent=1), encoding="utf-8")
        os.replace(tmp, self.digest_store)
        return []


class LatticeLM(Workload):
    """initialize + ``lm_run`` on a uniform lattice of the default patch."""

    rows = cols = 0
    schedule = optimize.Schedule()
    verify_net = True

    def generate(self):
        dirpath = self.workdir / "in"
        dirpath.mkdir(parents=True, exist_ok=True)
        self.surface = convex_paraboloid_patch()
        self.uv = lattice_uv(self.surface, self.rows, self.cols, self.seed)
        np.save(dirpath / "lattice_uv.npy", self.uv)

    def _solve(self, uv, schedule):
        grid = QuadGrid(uv, self.surface.domain)
        net0 = lnet.initialize(grid, self.surface,
                               CongruenceSpec("tau_min", tau=0.6))
        net, records = optimize.lm_run(net0, self.surface,
                                       optimize.Weights(), schedule)
        report = lnet.verify(net) if self.verify_net else None
        return net, records, report

    def warm_up(self):
        self._solve(lattice_uv(self.surface, 4, 4, self.seed),
                    optimize.Schedule(max_iters=2, final_pass_iters=1))

    def op(self):
        return self._solve(self.uv, self.schedule)


class LMConverge10(LatticeLM):
    name = "lm_converge_10x10"
    rows = cols = 10
    schedule = optimize.Schedule(max_iters=100, final_pass_iters=20)

    def check(self, result):
        _, _, report = result
        return [] if report.is_lnet else [
            f"net fails verification (max residual "
            f"{report.max_contact_residual:.3e})"]


class LMStep40(LatticeLM):
    name = "lm_step_40x40"
    rows = cols = 40
    schedule = optimize.Schedule(max_iters=3, final_pass_iters=1)
    verify_net = False

    def check(self, result):
        _, records, _ = result
        problems = []
        values = [v for r in records
                  for v in (r.e_total, r.max_oc, *r.energies.values())]
        if not np.all(np.isfinite(values)):
            problems.append("non-finite iteration record")
        if any(r.escalations >= ZERO_STEP_ESCALATIONS for r in records):
            problems.append("zero step")
        if not records or not records[-1].e_total < records[0].e_total:
            problems.append("final energy not below the first record's")
        return problems


class ExportExact64(Workload):
    """load -> verify -> tessellate -> dedupe -> OBJ -> save, 64x64 net."""

    name = "export_exact_64x64"
    size = 64

    def generate(self):
        dirpath = self.workdir / "in"
        dirpath.mkdir(parents=True, exist_ok=True)
        alpha, beta = paraboloid_coefficients(self.seed)
        self.in_path = dirpath / "lnet.json"
        lnet.save_lnet(exact_net(alpha, beta, self.size, self.size),
                       self.in_path)

    def _export(self, in_path: Path, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        net = lnet.load_lnet(in_path)
        report = lnet.verify(net)
        mesh = tessellate.dedupe_mesh(tessellate.tessellate(net))
        cli.export_obj(mesh, out / "mesh.obj")
        lnet.save_lnet(net, out / "lnet.json")
        return out, report, mesh

    def warm_up(self):
        path = self.workdir / "warm" / "lnet.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        alpha, beta = paraboloid_coefficients(self.seed)
        lnet.save_lnet(exact_net(alpha, beta, 4, 4), path)
        self._export(path, self.workdir / "warm" / "out")

    def op(self):
        return self._export(self.in_path, self.workdir / "out")

    def check(self, result):
        out, report, mesh = result
        problems = [] if report.is_lnet else ["net fails verification"]
        verts, tris = read_obj(out / "mesh.obj")
        if verts.shape[0] != mesh.vertices.shape[0]:
            problems.append(f"OBJ has {verts.shape[0]} vertices, mesh "
                            f"{mesh.vertices.shape[0]}")
        if tris.shape[0] != mesh.triangles.shape[0]:
            problems.append(f"OBJ has {tris.shape[0]} triangles, mesh "
                            f"{mesh.triangles.shape[0]}")
        return problems + watertight_problems(tris, verts.shape[0])


WORKLOADS = {w.name: w for w in (PipelineAcceptance, LMConverge10, LMStep40,
                                 ExportExact64)}
