"""Spans around calls into ``lnets``, recorded from the benchmark's side.

:class:`Tracer` replaces each traced function at every ``lnets`` module
binding that holds it (several functions are imported by name, so
``lnets.optimize.project_points`` and ``lnets.lnet.project_points`` are
separate bindings) and each traced method on its class. The wrapper
records a span ``(name, start, end, parent, op)`` and, for some names, a
count taken from the arguments or the result. Leaving the ``with`` block
restores every original.

:func:`layer_metrics` derives the per-layer metrics from the spans and
counts alone; :func:`self_times` is the span-tree arithmetic it uses.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) of every traced function; span name "module.attr".
FUNCTIONS = (
    ("kernels", "surface_jets_batch"),
    ("bspline", "evaluate_jet"),
    ("bspline", "project_points"),
    ("bspline", "oriented_normal"),
    ("bspline", "principal_frame"),
    ("conjugacy", "pseudo_lconj_partner"),
    ("remesh", "trace_grid"),
    ("remesh", "frame_at"),
    ("lnet", "initialize"),
    ("lnet", "verify"),
    ("lnet", "load_lnet"),
    ("lnet", "save_lnet"),
    ("optimize", "lm_run"),
    ("optimize", "solve_normal_equations"),
    ("tessellate", "tessellate"),
    ("tessellate", "dedupe_mesh"),
    ("cli", "run_pipeline"),
    ("cli", "export_obj"),
    ("cli", "write_iteration_log"),
)
# (module, class, method); span name "module.method".
METHODS = tuple(("optimize", "ResidualSystem", m) for m in (
    "refresh_footpoints", "residual", "jacobian", "raw_energies",
    "total_energy", "max_contact_residual"))

# ``_attempt_step`` reports max_escalations + 1 (8 + 1) for a zero step.
ZERO_STEP_ESCALATIONS = 9

ENERGY = ("optimize.raw_energies", "optimize.total_energy",
          "optimize.max_contact_residual")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_jets(c, args, kwargs, out):
    c["kernels.jet_points"] += len(_arg(args, kwargs, 5, "us"))


def _count_projection(c, args, kwargs, out):
    c["bspline.project_points"] += out[0].shape[0]
    c["bspline.project_unconverged"] += int(np.sum(~np.asarray(out[3])))


def _count_grid(c, args, kwargs, out):
    spec = _arg(args, kwargs, 3, "seeds")
    c["remesh.grid_rows"] += out.rows
    c["remesh.grid_cols"] += out.cols
    c["remesh.grid_vertices"] += out.rows * out.cols
    c["remesh.grid_requested"] += spec.rows * spec.cols


def _count_lm(c, args, kwargs, out):
    net, records = out
    fr, fc = net.face_shape
    vr, vc = net.vertex_shape
    c["optimize.n_vars"] += 4 * (fr * fc + vr * vc)
    c["optimize.iterations"] += len(records)
    c["optimize.escalations"] += sum(r.escalations for r in records)
    c["optimize.zero_steps"] += sum(r.escalations >= ZERO_STEP_ESCALATIONS
                                    for r in records)


def _count_fallbacks(c, args, kwargs, out):
    c["optimize.footpoint_fallbacks"] += args[0].footpoint_fallbacks


def _count_jacobian(c, args, kwargs, out):
    c["optimize.jac_nnz_sum"] += out.nnz


def _count_tessellation(c, args, kwargs, out):
    c["tessellate.vertices_raw"] += out.vertices.shape[0]


def _count_dedupe(c, args, kwargs, out):
    c["tessellate.dedupe_in"] += _arg(args, kwargs, 0, "mesh").vertices.shape[0]
    c["tessellate.dedupe_out"] += out.vertices.shape[0]
    c["tessellate.triangles"] += out.triangles.shape[0]


def _count_obj(c, args, kwargs, out):
    c["cli.obj_bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


COUNTERS = {
    "kernels.surface_jets_batch": _count_jets,
    "bspline.project_points": _count_projection,
    "remesh.trace_grid": _count_grid,
    "optimize.lm_run": _count_lm,
    "optimize.refresh_footpoints": _count_fallbacks,
    "optimize.jacobian": _count_jacobian,
    "tessellate.tessellate": _count_tessellation,
    "tessellate.dedupe_mesh": _count_dedupe,
    "cli.export_obj": _count_obj,
}


def _lnets_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lnets"
                                    or name.startswith("lnets."))]


class Tracer:
    """Context manager that wraps the traced ``lnets`` bindings.

    ``spans`` holds ``(name, start, end, parent, op)`` tuples; ``parent``
    is the index of the enclosing span or -1, ``op`` the value of
    :attr:`op` when the span started. ``counts`` accumulates the
    counters above. Functions missing from the code under test are
    skipped and listed in ``absent``.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        try:
            modules = _lnets_modules()
            for mod_name, attr in FUNCTIONS:
                home = importlib.import_module(f"lnets.{mod_name}")
                fn = getattr(home, attr, None)
                if fn is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        self._replace(mod, attr, wrapper)
            for mod_name, cls_name, attr in METHODS:
                cls = getattr(importlib.import_module(f"lnets.{mod_name}"),
                              cls_name, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if fn is None:
                    self.absent.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                self._replace(cls, attr, self._wrap(f"{mod_name}.{attr}", fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every original binding back, last replaced first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Spans as CSV, times in seconds relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["id,name,start,end,parent,op"]
        lines += [f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{o}"
                  for i, (n, s, e, p, o) in enumerate(self.spans)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    A child's interval lies inside its parent's because calls nest, so
    the children's durations are the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def group_time(spans, names) -> float:
    """Total duration of spans named in ``names``, nested ones once."""
    names = set(names)
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(spans, counts, n_ops: int) -> dict:
    """Per-layer metrics per operation, as ``{name: (value, unit)}``.

    Times and counts are totals over the traced operations divided by
    ``n_ops``. Ratios are taken of those totals; a ratio whose base is
    zero (the layer was not called) reads 0.
    """
    calls = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    own = self_times(spans)
    own_by_name = defaultdict(float)
    for span, t in zip(spans, own):
        own_by_name[span[0]] += t

    def t(*names):
        return group_time(spans, names) / n_ops

    def n(name):
        return calls[name] / n_ops

    def c(key):
        return counts.get(key, 0.0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    lm_s = t("optimize.lm_run")
    iterations = c("optimize.iterations")
    factor_calls = n("optimize.solve_normal_equations")
    jac_calls = n("optimize.jacobian")
    s, cnt, ms, one = "s", "count", "ms", "ratio"
    return {
        "kernels.jet_calls": (n("kernels.surface_jets_batch"), cnt),
        "kernels.jet_points": (c("kernels.jet_points"), cnt),
        "kernels.jet_s": (t("kernels.surface_jets_batch"), s),
        "bspline.scalar_jet_calls": (n("bspline.evaluate_jet"), cnt),
        "bspline.project_calls": (n("bspline.project_points"), cnt),
        "bspline.project_points": (c("bspline.project_points"), cnt),
        "bspline.project_s": (t("bspline.project_points"), s),
        "bspline.project_unconverged": (c("bspline.project_unconverged"),
                                        cnt),
        "bspline.normal_calls": (n("bspline.oriented_normal"), cnt),
        "bspline.normal_s": (t("bspline.oriented_normal"), s),
        "bspline.frame_calls": (n("bspline.principal_frame"), cnt),
        "bspline.frame_s": (t("bspline.principal_frame"), s),
        "conjugacy.partner_calls": (n("conjugacy.pseudo_lconj_partner"), cnt),
        "conjugacy.partner_s": (t("conjugacy.pseudo_lconj_partner"), s),
        "remesh.trace_s": (t("remesh.trace_grid"), s),
        "remesh.frame_samples": (n("remesh.frame_at"), cnt),
        "remesh.frame_s": (t("remesh.frame_at"), s),
        "remesh.self_s": (own_by_name["remesh.trace_grid"] / n_ops, s),
        "remesh.grid_rows": (ratio(c("remesh.grid_rows"),
                                   n("remesh.trace_grid")), cnt),
        "remesh.grid_cols": (ratio(c("remesh.grid_cols"),
                                   n("remesh.trace_grid")), cnt),
        "remesh.grid_fill": (ratio(c("remesh.grid_vertices"),
                                   c("remesh.grid_requested")), one),
        "lnet.initialize_s": (t("lnet.initialize"), s),
        "lnet.verify_s": (t("lnet.verify"), s),
        "lnet.load_s": (t("lnet.load_lnet"), s),
        "lnet.save_s": (t("lnet.save_lnet"), s),
        "optimize.lm_s": (lm_s, s),
        "optimize.iterations": (iterations, cnt),
        "optimize.iter_ms": (ratio(1e3 * lm_s, iterations), ms),
        "optimize.n_vars": (ratio(c("optimize.n_vars"),
                                  n("optimize.lm_run")), cnt),
        "optimize.jac_nnz": (ratio(c("optimize.jac_nnz_sum"), jac_calls),
                             cnt),
        "optimize.footpoint_calls": (n("optimize.refresh_footpoints"), cnt),
        "optimize.footpoint_s": (t("optimize.refresh_footpoints"), s),
        "optimize.footpoint_fallbacks": (c("optimize.footpoint_fallbacks"),
                                         cnt),
        "optimize.residual_calls": (n("optimize.residual"), cnt),
        "optimize.residual_s": (t("optimize.residual"), s),
        "optimize.jacobian_s": (t("optimize.jacobian"), s),
        "optimize.energy_calls": (sum(n(e) for e in ENERGY), cnt),
        "optimize.energy_s": (t(*ENERGY), s),
        "optimize.factor_calls": (factor_calls, cnt),
        "optimize.factor_s": (t("optimize.solve_normal_equations"), s),
        "optimize.escalations": (c("optimize.escalations"), cnt),
        "optimize.zero_steps": (c("optimize.zero_steps"), cnt),
        "optimize.step_yield": (ratio(iterations - c("optimize.zero_steps"),
                                      factor_calls), one),
        "optimize.self_s": (own_by_name["optimize.lm_run"] / n_ops, s),
        "tessellate.tessellate_s": (t("tessellate.tessellate"), s),
        "tessellate.dedupe_s": (t("tessellate.dedupe_mesh"), s),
        "tessellate.vertices_raw": (c("tessellate.vertices_raw"), cnt),
        "tessellate.triangles": (c("tessellate.triangles"), cnt),
        "tessellate.dedupe_keep": (ratio(c("tessellate.dedupe_out"),
                                         c("tessellate.dedupe_in")), one),
        "cli.run_pipeline_s": (t("cli.run_pipeline"), s),
        "cli.export_obj_s": (t("cli.export_obj"), s),
        "cli.obj_bytes": (c("cli.obj_bytes"), "B"),
        "cli.log_s": (t("cli.write_iteration_log"), s),
        "trace.spans": (len(spans) / n_ops, cnt),
    }
