"""Import paths for the benchmark's tests: the lnets sources and this
directory. Run with ``python3 -m pytest perfbench`` from the repository
root."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
