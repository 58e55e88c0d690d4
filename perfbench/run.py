#!/usr/bin/env python3
"""lnets benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload lm_converge_10x10 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` sets up three times (imports, timed in a fresh
interpreter; input generation from ``--seed``; a warm-up on a tiny input
of the same kind), then runs the workload's operation back to back until
``--seconds`` have passed (at least once), checking every output. It
reports the end-to-end metrics ``run_s`` (median seconds per operation),
``setup_s`` (median import time plus median generation and warm-up) and
``peak_rss_mb`` (peak resident memory up to the end of the first
operation, before any output check). Both times are calibrated to a
nominal host speed by a reference kernel sampled while they run (see
``hostspeed.py``); the raw wall times are printed beside them.

``--trace 1`` runs one untraced operation, then operations with every
traced ``lnets`` binding wrapped (see ``tracing.py``) for ``--seconds``,
writes the spans to ``perfbench/out/spans-<workload>-seed<n>.csv`` and
reports the per-layer metrics, per operation, plus ``trace.overhead``
(traced over untraced ``run_s``).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The process exits non-zero without that line when it
cannot set up, for instance when ``src/lnets`` is missing.
"""

import os
import sys

# One BLAS/OpenMP thread: SuperLU is serial anyway, and a single thread
# keeps timings steady on a shared machine. Set before numpy loads.
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (this directory leads sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# Imports of a fresh interpreter, timed inside it.
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; "
                "import hostspeed, tracing, workloads; "
                "print(time.perf_counter() - t0)")


def arg_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def code_identity() -> str:
    """Digest of the ``lnets`` sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lnets").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """Commit of the checkout from ``.git`` files, or None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    import lnets
    backend = getattr(lnets, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lnets_backend": backend() if backend else "n/a",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_cap": THREAD_CAP,
        "git_commit": git_commit(),
        "src_sha256": code_identity(),
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the benchmark and lnets."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                           str(HERE)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def summarize(values) -> dict:
    """Median, quartiles, count and the highest percentile with at least
    ten samples beyond it (nearest rank), when there are enough samples."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if n >= 2
                 else (vals[0],) * 3)
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            out[f"p{p:g}"] = vals[rank - 1]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds, tracer=None):
    """Run operations until ``seconds`` pass (at least one), checking each.

    Untraced operations run under a :class:`hostspeed.SpeedSampler`.
    Returns per-operation wall times (the sampler's share taken out),
    the same times calibrated to nominal host speed (empty when traced),
    failures as ``(op, problems)``, and the peak RSS right after the
    first operation, before its check.
    """
    walls, calibrated, failures = [], [], []
    rss_first = None
    start = time.perf_counter()
    while True:
        sampler = hostspeed.SpeedSampler()
        if tracer is not None:
            tracer.op = len(walls)
        t0 = time.perf_counter()
        elapsed = None
        try:
            with (sampler if tracer is None else contextlib.nullcontext()):
                result = workload.op()
            elapsed = time.perf_counter() - t0 - sampler.busy_s
            if rss_first is None:
                rss_first = peak_rss_mb()
            problems = workload.check(result)
        except Exception as exc:  # an operation that raises has failed
            if elapsed is None:
                elapsed = time.perf_counter() - t0 - sampler.busy_s
            problems = [f"{type(exc).__name__}: {exc}"]
        walls.append(elapsed)
        if tracer is None:
            calibrated.append(sampler.calibrate(elapsed))
        if problems:
            failures.append((len(walls), problems))
        if time.perf_counter() - start >= seconds:
            return walls, calibrated, failures, rss_first


def main(argv=None) -> int:
    parser = arg_parser()
    args = parser.parse_args(argv)
    if not (SRC / "lnets" / "__init__.py").is_file():
        print(f"error: lnets sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))

    workdir = OUT / f"work-{os.getpid()}"
    try:
        return run(args, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, tracing, workloads) -> int:
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workdir, digest_store=OUT / "digests.json",
        code_id=code_identity())
    imports, setups = [], []
    speed = hostspeed.SpeedSampler()
    for _ in range(SETUP_REPEATS):
        speed.burst()
        imports.append(import_seconds())
        busy = speed.busy_s
        t0 = time.perf_counter()
        with speed:
            workload.generate()
            workload.warm_up()
        setups.append(time.perf_counter() - t0 - (speed.busy_s - busy))
    setup_wall = statistics.median(imports) + statistics.median(setups)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")
    print("setup imports " + ", ".join(f"{s:.4f}" for s in imports)
          + " s; generate+warm-up " + ", ".join(f"{s:.4f}" for s in setups)
          + f" s; wall {setup_wall:.4f} s, calibrated "
          f"{speed.calibrate(setup_wall):.4f} s")

    if args.trace:
        plain, _, failures, _ = measure(workload, 0.0)
        tracer = tracing.Tracer()
        with tracer:
            traced, _, more, _ = measure(workload, args.seconds, tracer)
        failures += [(len(plain) + k, p) for k, p in more]
        times = plain + traced
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts,
                                        len(traced))
        metrics["trace.overhead"] = (statistics.median(traced)
                                     / statistics.median(plain), "ratio")
        print(f"untraced run_s {plain} traced run_s {traced}")
        print(f"spans {len(tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
        if tracer.absent:
            print("not traced (absent): " + ", ".join(tracer.absent))
    else:
        times, calibrated, failures, rss = measure(workload, args.seconds)
        metrics = {
            "run_s": (statistics.median(calibrated), "s"),
            "setup_s": (speed.calibrate(setup_wall), "s"),
            "peak_rss_mb": (rss if rss is not None else peak_rss_mb(), "MB"),
        }
        for label, values in (("run_s", calibrated), ("wall_s", times)):
            stats = summarize(values)
            print(f"{label} " + " ".join(
                f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                for k, v in stats.items()))
        print("op seconds calibrated "
              + " ".join(f"{t:.4f}" for t in calibrated)
              + "; wall " + " ".join(f"{t:.4f}" for t in times))

    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:32s} {value:16.6g} {unit}")
    attempted = len(times)
    print(f"fail_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:g}")
    for op, problems in failures:
        print(f"  op {op} failed: " + "; ".join(problems))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
