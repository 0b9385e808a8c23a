"""The exact core's float64 results, bit for bit, as one SHA-256 digest per field.

A change to how the 56-digit solve or its routes are formed should leave
every float64 it returns as it was.  Each digest covers the float.hex of
one field at every n of GRIDS (n = 1..600 and a ladder to 10^5) and, for
the fields that are O(1) to form, at every n of LARGE as well:

  closed_rule_norm(n);
  minimizer_audit(n)'s via_* and coefficient_max_deviation;
  multiplier_routes(n, "multiplier") and multiplier_routes(n, "expanded");
  minimizer_weights(n)'s b0, d and every weight (GRIDS only);
  minimizer_weights(n)'s two end windows (LARGE only), formed as it forms
  them but without its O(n) list of weights, which is float(h) between
  the windows.

A second set of digests pins the grid record the routes read,
norm._grid(n) in the working context at every n of GRIDS and LARGE: one
per _Grid field, over str() of each Decimal (its exact coefficient and
exponent) and the digits, exponent range and rounding of wide.

minimizer_audit's rel_diff_qf_* are left out: they are the rounding noise
of 56-digit sums that agree to about 1e-41, and move with the order of
the sums.  A change that moves a field on purpose records the old and new
digests and why in CHANGES.md; print the digests with

    PYTHONPATH=src python tests/test_exact_core_bits.py
"""
import hashlib
from decimal import Context, localcontext

from optquad.norm import (
    _CONTEXT,
    _Grid,
    _exact_solution,
    _float_weights_on,
    _grid,
    _window_width,
    closed_rule_norm,
    minimizer_audit,
    minimizer_weights,
    multiplier_routes,
)
from optquad.spectral import end_windows

GRIDS = (*range(1, 601), 1024, 2048, 4096, 10**4, 12345, 10**5)
LARGE = (10**6, 10**7, 10**8, 10**9)

_AUDITED = ("via_quadratic_form", "via_multipliers", "via_expanded", "coefficient_max_deviation")

# recorded at the commit before the end rows were read off the moment sums
DIGESTS = {
    "b0": "63eea6fc413bfc9cb5010b50884a3673bce42440ca2d3a7fdd6d7f5ea7232fad",
    "closed_rule_norm": "9e36a127fc2277efb2e7453736ae9b216e473c738e7404deeb13d55f7afa50d0",
    "coefficient_max_deviation": "7a59f4dbfad1df8b025ea7afab41d24d203985918094eaa0c14736401ef9e9b0",
    "d": "2de38b8323e9faddd1c0d1e32316b9bbb0e4e435cbe9ec4aa303dc43a43f0c71",
    "multiplier_routes.expanded": "9b0bc114e0940dd44425b8e4e179de544ad08204208bf88c4d9d17acb1ce62e6",
    "multiplier_routes.multiplier": "66d1619353a40aebfc49e68cfdfe5409908fe71fe13f55bd92e33c9c9970a828",
    "via_expanded": "9b0bc114e0940dd44425b8e4e179de544ad08204208bf88c4d9d17acb1ce62e6",
    "via_multipliers": "66d1619353a40aebfc49e68cfdfe5409908fe71fe13f55bd92e33c9c9970a828",
    "via_quadratic_form": "66d1619353a40aebfc49e68cfdfe5409908fe71fe13f55bd92e33c9c9970a828",
    "weights": "e26af65aac44e3b7a105505f9f881a806359f83ef839f45a670898ecbd72c53a",
    # recorded at the commit before the grid's values were formed straight-line
    "windows": "c0c9095cfebc9911a9606bf33625992b2f865b7dc1a9863c1bf1cbbbe046a978",
}

# recorded at the commit before e^h was summed in integers
GRID_DIGESTS = {
    "grid.n": "a61e69a6cc0924fa2b72b4b16d5d42f88b3ca332f4cf792a1f2f444175d443a8",
    "grid.h": "62770f089761f474faea884b778e23616ff056ec237c739d8fd6b2f838de5035",
    "grid.wide": "6a70397f68862d65993b76a390f808f8e40bc1a069087042c50b41592f38ea09",
    "grid.wide_eh": "4cae0e23ca0a2bf5b3ab4b2fcea8feb28ad058254ff557eb89d2cf046847e7ad",
    "grid.e": "1201a110b83ed9d6033c9a05c4b72163b5f23e4bd471373cf6456d818af22410",
    "grid.ei": "310e414bdabf450d14764194baa12985c62ad1c328086ae1dee5ac8ede969320",
    "grid.eh": "f167da20ff122106d1553a3ad18323aaec5e3ce235957f4b322270826b972085",
    "grid.ehi": "ac0ed3a2040543763cfd2a1bb6dc8edb3743941290ed09dfe90d171317f4b883",
    "grid.gap_eh": "b69e9abfaaeadacf5650685d04cbb1cdc426e8215742989be720ea1f50b48a71",
    "grid.gap_ehi": "36ba504c08cebb5c73b2a8718e2f341fe24aabb3a8b501eab207817abb41b298",
    "grid.psi_1": "e871aff065501dd600894db8ed91a27edf0c6c7674b1b97824d2f457e018059a",
}


def _windows(n: int) -> list[tuple[int, int, list[float]]]:
    """[(first, last, weights)]: minimizer_weights(n)'s end windows, formed as it forms them; O(1)."""
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        windows = end_windows(n, _window_width(sol))
        return [(first, last, weights)
                for (first, last), weights in zip(windows, _float_weights_on(sol, windows))]


def _fields(n: int, weights: bool) -> dict:
    """{field: [float, ...]} at n; every weight when weights is true, else the end windows."""
    audit = minimizer_audit(n)
    fields = {name: [audit[name]] for name in _AUDITED}
    fields["closed_rule_norm"] = [closed_rule_norm(n)]
    for method in ("multiplier", "expanded"):
        fields[f"multiplier_routes.{method}"] = [multiplier_routes(n, method)]
    if weights:
        c, b0, d = minimizer_weights(n)
        fields["weights"] = c
    else:  # minimizer_weights' multipliers and windows, without its O(n) weight list
        with localcontext(_CONTEXT):
            sol = _exact_solution(n)
            b0, d = float(sol.b0), float(sol.d)
        fields["windows"] = [w for _, _, window in _windows(n) for w in window]
    fields["b0"], fields["d"] = [b0], [d]
    return fields


def digests() -> dict:
    """{field: SHA-256 hex digest of 'n value.hex() ...' lines over every n}."""
    hashes = {}
    for ns, weights in ((GRIDS, True), (LARGE, False)):
        for n in ns:
            for name, values in _fields(n, weights).items():
                line = f"{n} {' '.join(map(float.hex, values))}\n"
                hashes.setdefault(name, hashlib.sha256()).update(line.encode())
    return {name: h.hexdigest() for name, h in sorted(hashes.items())}


def _grid_line(value) -> str:
    if isinstance(value, Context):
        return f"{value.prec} {value.Emin} {value.Emax} {value.rounding}"
    return str(value)


def grid_digests() -> dict:
    """{"grid.field": SHA-256 hex digest of 'n value' lines over every n}, value as _grid_line writes it."""
    hashes = {name: hashlib.sha256() for name in _Grid._fields}
    for n in (*GRIDS, *LARGE):
        with localcontext(_CONTEXT):
            grid = _grid(n)
        for name, value in zip(_Grid._fields, grid):
            hashes[name].update(f"{n} {_grid_line(value)}\n".encode())
    return {f"grid.{name}": h.hexdigest() for name, h in hashes.items()}


def test_exact_core_is_bit_identical():
    assert digests() == DIGESTS


def test_grid_is_digit_identical():
    assert grid_digests() == GRID_DIGESTS


def test_windows_are_minimizer_weights_own():
    # the windows the LARGE digest covers are minimizer_weights' weights
    # there, at the smallest n of LARGE, and float(h) lies between them
    n = LARGE[0]
    c = minimizer_weights(n)[0]
    windows = _windows(n)
    assert [(first, last) for first, last, _ in windows] == [(0, 29), (n - 29, n)]
    for first, last, window in windows:
        assert c[first:last + 1] == window
    assert set(c[30:n - 29]) == {1.0 / n}


if __name__ == "__main__":
    for name, digest in (*digests().items(), *grid_digests().items()):
        print(f'    "{name}": "{digest}",')
