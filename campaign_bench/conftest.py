"""Make ``campaign_bench`` and the program sources importable in tests:
``python -m pytest campaign_bench -q`` from the repository root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
