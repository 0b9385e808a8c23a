"""The benchmark's workloads: fixed CLI op lists, one per dominant mechanism.

Grid sizes are fixed per workload because they set the cost.  The seed only
shuffles the op order within each pass and draws the catalog function of each
`apply`/`convergence` op once per run, so every pass repeats the same argv
list and repeated ops can be compared byte for byte.
"""
from __future__ import annotations

import random

from reference import NONNULL_FUNCTIONS, NULL_FUNCTIONS

CONVERGENCE_NS = ",".join(str(2**k) for k in range(1, 11))  # 2 .. 1024

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("report", "oracle", "quadform", "bulk")


def _coeffs(method, n, fmt="json"):
    return ("coeffs", "--method", method, "--n", str(n), "--format", fmt)


def _norm(methods, n):
    return ("norm", "--methods", methods, "--n", str(n))


def build_ops(workload: str, rng: random.Random) -> list[tuple[str, ...]]:
    """The argv list of one pass of `workload`, with its seeded function draws.

    `apply` draws only functions outside the null space: on the null space the
    exact bound is 0 and the bound check is vacuous.  `convergence` draws from
    the whole catalog; null-space errors are then checked absolutely.
    """
    if workload == "report":
        return [_norm("all", n) for n in (64, 128, 256)] + [
            ("validate", "--max-n", "16", "--tol", "1e-9")
        ]
    if workload == "oracle":
        return [
            _coeffs("system", 512),
            _norm("multiplier", 512),
            _norm("expanded", 384),
            _coeffs("system", 256, "csv"),
        ]
    if workload == "quadform":
        catalog = sorted(NONNULL_FUNCTIONS) + sorted(NULL_FUNCTIONS)
        bounded = sorted(NONNULL_FUNCTIONS)
        return [
            ("convergence", "--n-list", CONVERGENCE_NS, "--function", rng.choice(catalog)),
            ("apply", "--n", "1024", "--function", rng.choice(bounded)),
            ("apply", "--n", "2048", "--function", rng.choice(bounded)),
            _norm("quadform", 1024),
        ]
    if workload == "bulk":
        # JSON at n=10^6 (9-12 s, 1.1 GB) is left out: a run would hold only
        # 3 passes, and on a shared machine they spread by a fifth.
        return [
            _coeffs("closed", 100_000),
            _coeffs("closed", 100_000, "csv"),
            _norm("theorem2", 1_000_000),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
