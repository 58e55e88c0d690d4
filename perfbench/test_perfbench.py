"""Tests of the benchmark's own code: inputs, checks and span arithmetic."""

import importlib
import signal
import time

import numpy as np
import pytest

import hostspeed
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path / "a")
    second = cls(7, tmp_path / "b")
    first.generate()
    second.generate()
    a = sorted((tmp_path / "a" / "in").iterdir())
    b = sorted((tmp_path / "b" / "in").iterdir())
    assert [p.name for p in a] == [p.name for p in b] and a
    assert all(p.read_bytes() == q.read_bytes() for p, q in zip(a, b))


def test_seed_zero_is_the_reference_configuration():
    assert workloads.paraboloid_coefficients(0) == (1.0, 0.4)
    surface = workloads.convex_paraboloid_patch()
    uv = workloads.lattice_uv(surface, 10, 10, 0)
    assert uv[0, 0].tolist() == [0.06, 0.09]
    assert uv[-1, -1].tolist() == [1.0 - 0.11, 1.0 - 0.07]
    alpha, beta = workloads.paraboloid_coefficients(5)
    assert alpha != 1.0 and abs(alpha - 1.0) <= 0.01
    assert beta != 0.4 and abs(beta / 0.4 - 1.0) <= 0.01


@pytest.mark.parametrize("seed", [0, 11])
def test_exact_net_passes_verify_at_1e_12(seed):
    alpha, beta = workloads.paraboloid_coefficients(seed)
    net = workloads.exact_net(alpha, beta, 64, 64)
    report = workloads.lnet.verify(net, 1e-12)
    assert report.is_lnet
    assert np.all(net.radii > 0.0)


def test_watertight_check_flags_open_and_overused_edges():
    square = np.array([[0, 1, 2], [0, 2, 3]])
    assert workloads.watertight_problems(square, 4) == []
    fin = np.array([[0, 1, 2], [0, 2, 3], [0, 2, 4]])
    assert workloads.watertight_problems(fin, 5)
    lone = np.array([[0, 1, 2]])
    assert workloads.watertight_problems(lone, 3)
    assert workloads.watertight_problems(square, 3)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("b", 6.0, 7.0, 3, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    assert tracing.group_time(spans, ["b"]) == 4.0
    assert tracing.group_time(spans, ["b", "c"]) == 4.0
    assert tracing.group_time(spans, ["a", "b"]) == 10.0


def test_layer_self_times_subtract_direct_children():
    spans = [
        ("remesh.trace_grid", 0.0, 10.0, -1, 0),
        ("remesh.frame_at", 1.0, 3.0, 0, 0),
        ("conjugacy.pseudo_lconj_partner", 1.5, 2.0, 1, 0),
        ("remesh.frame_at", 4.0, 8.0, 0, 0),
        ("optimize.lm_run", 20.0, 30.0, -1, 1),
        ("optimize.refresh_footpoints", 21.0, 25.0, 4, 1),
        ("bspline.project_points", 21.5, 24.5, 5, 1),
        ("optimize.total_energy", 26.0, 28.0, 4, 1),
        ("optimize.raw_energies", 26.5, 27.5, 7, 1),
    ]
    m = tracing.layer_metrics(spans, {}, n_ops=2)
    assert m["remesh.trace_s"] == (5.0, "s")
    assert m["remesh.frame_s"] == (3.0, "s")
    assert m["remesh.self_s"] == (2.0, "s")
    assert m["optimize.footpoint_s"] == (2.0, "s")
    assert m["optimize.energy_s"] == (1.0, "s")
    assert m["optimize.energy_calls"] == (1.0, "count")
    assert m["optimize.self_s"] == (2.0, "s")


def _bindings():
    """Every (owner, attribute) -> object the tracer may replace."""
    found = {}
    for mod in tracing._lnets_modules():
        for _, attr in tracing.FUNCTIONS:
            if hasattr(mod, attr):
                found[(mod.__name__, attr)] = getattr(mod, attr)
    for mod_name, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(f"lnets.{mod_name}"), cls_name)
        found[(cls_name, attr)] = cls.__dict__[attr]
    return found


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    workload = workloads.WORKLOADS["lm_converge_10x10"](0, tmp_path)
    workload.generate()
    with tracing.Tracer() as tracer:
        assert any(getattr(obj, "__wrapped__", None) is not None
                   for obj in _bindings().values())
        workload.warm_up()
    assert tracer.spans and not tracer.absent
    assert {s[0] for s in tracer.spans} >= {
        "optimize.lm_run", "optimize.solve_normal_equations",
        "bspline.project_points", "kernels.surface_jets_batch",
        "lnet.initialize", "lnet.verify"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_bindings_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_speed_sampler_samples_during_the_block_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.SpeedSampler(interval=0.01)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples
    assert sampler.busy_s == pytest.approx(sum(sampler.samples))
    assert 0.0 < sampler.busy_s < 0.3


def test_calibration_scales_by_nominal_over_mean_kernel_time():
    sampler = hostspeed.SpeedSampler()
    sampler.samples = [2 * hostspeed.NOMINAL_KERNEL_S] * hostspeed.BURST
    assert sampler.calibrate(3.0) == pytest.approx(1.5)
    few = hostspeed.SpeedSampler()
    few.calibrate(1.0)
    assert len(few.samples) == hostspeed.BURST and few.busy_s == 0.0
