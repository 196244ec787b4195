"""``python -m benchmarks.e13`` (with ``src`` and the repo root on ``PYTHONPATH``)."""

import sys

from .run import main

sys.exit(main())
