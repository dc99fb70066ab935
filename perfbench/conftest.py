"""Make the package under ``src`` importable for the benchmark's own tests.

Run them from the root of the repository with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
