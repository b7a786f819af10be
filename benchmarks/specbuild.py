"""The spec-build operation: one seeded large-function spec and its checks.

An operation builds ``generators.random_large_function(seed_i, 64)``,
runs ``bohr.littlewood_check(phi, 64, 40)`` on its Schwarz factor and
takes ``bohr.bohr_operator(series, e^-pi, 1)``.  Each seed draws a fresh
alpha, so every ``q_series`` call misses its cache.

Run as a script (with ``src`` on PYTHONPATH) it is the set-up probe of
the workload: import plus one warm-up operation.
"""

from __future__ import annotations

import numpy as np

from bohrlab import bohr, generators
from bohrlab.modular import E_PI

ORDER = 64
KMAX = 40
#: Points where the truncated series is compared with the product form.
PROBE = 0.05 * np.exp(2j * np.pi * np.arange(8) / 8)
#: Operation index of the warm-up; far beyond any index a run reaches.
WARM_UP_INDEX = 2**40


def op_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**63


def build(seed_i: int):
    """The timed work of one operation; returns what the checks need."""
    spec = generators.random_large_function(seed_i, ORDER)
    littlewood = bohr.littlewood_check(spec.phi, ORDER, KMAX)
    majorant = bohr.bohr_operator(spec.series, E_PI, 1)
    return spec, littlewood, majorant


if __name__ == "__main__":
    build(op_seed(7, WARM_UP_INDEX))
