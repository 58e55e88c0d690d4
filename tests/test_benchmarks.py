"""Smoke test of ``benchmarks/bench_kernels.py``: a quick run prints every
section, so an API change that breaks the script fails here."""

import importlib.util
import logging
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_prints_every_section(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
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
