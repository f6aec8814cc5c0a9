"""Put the repository's src on sys.path right after the PYTHONPATH entries.

So `PYTHONPATH=<copy>/src python -m pytest` run from the repository root
tests that copy, a bare `python -m pytest` tests ./src, and either way src
comes before any installed powersumkit.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    _env = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
    sys.path.insert(max((i + 1 for i, p in enumerate(sys.path)
                         if p and os.path.abspath(p) in _env), default=0), SRC)
