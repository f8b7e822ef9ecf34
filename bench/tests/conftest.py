"""Run with ``python -m pytest bench/tests -q`` from the repo root.

These tests are the benchmark's own and sit outside tier-1's
``testpaths``; the simulator is imported from this checkout's ``src/``.
"""

from bench import use_checkout_source

use_checkout_source()
