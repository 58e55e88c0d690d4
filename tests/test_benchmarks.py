"""Smoke tests of the benchmark scripts against the package: a quick run
of ``benchmarks/bench_kernels.py`` prints every section, every binding
``perfbench/tracing.py`` wraps still resolves, so an API change that
breaks either fails here, and ``benchmarks/code_lines.py`` counts code
lines as documented."""

import importlib.util
import logging
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_kernels.py"
CODE_LINES = ROOT / "benchmarks" / "code_lines.py"
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


# Seven code lines: the import, the class line, the two lines of the
# string that is not a docstring, the def line and both return lines.
FIXTURE = '''"""Module docstring
over two lines."""

# A comment.
import os  # and a trailing one


class A:
    """Class docstring."""

    x = """a string value,
    not a docstring"""

    def f(self):
        'Function docstring.'

        return (os.sep +
                "")
'''


def table(out):
    return {name: int(n) for name, n in map(str.split, out.splitlines())}


def test_code_lines_sums_the_modules_and_counts_a_fixture_exactly(
        capsys, tmp_path):
    code_lines = load_script("code_lines", CODE_LINES)
    code_lines.main([])
    counts = table(capsys.readouterr().out)
    total = counts.pop("total")
    assert "optimize.py" in counts and sum(counts.values()) == total
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert table(capsys.readouterr().out) == {"fixture.py": 7, "total": 7}
