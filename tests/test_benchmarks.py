"""Smoke tests of the benchmark scripts against the package: a quick run
of ``benchmarks/bench_kernels.py`` prints every section, and every
binding ``perfbench/tracing.py`` wraps still resolves, so an API change
that breaks either fails here."""

import importlib.util
import logging
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_kernels.py"
TRACING = ROOT / "perfbench" / "tracing.py"


def load_script(name, path):
    """The module at ``path``, loaded under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    # The tracer skips a missing name silently; renaming a traced
    # function would drop its span from the benchmark without an error.
    with load_script("tracing", TRACING).Tracer() as tracer:
        assert tracer.absent == []


def test_bench_kernels_prints_every_section(capsys):
    bench = load_script("bench_kernels", BENCH)
    # The script silences the tracer's trimming warning for its process.
    logger = logging.getLogger("lnets.remesh")
    level = logger.level
    try:
        bench.main(["--points", "200", "--repeats", "1"])
    finally:
        logger.setLevel(level)
    heads = [line.split(":")[0].strip()
             for line in capsys.readouterr().out.splitlines()]
    assert heads == ["export 8x8", "jets", "trace", "projection", "lm 10x10",
                     "cold 10x10", "lm 40x40", "cold 40x40"]
