"""The exact core's float64 results, bit for bit, as one SHA-256 digest per field.

A change to how the 56-digit solve or its routes are formed should leave
every float64 it returns as it was.  Each digest covers the float.hex of
one field at every n of GRIDS (n = 1..600 and a ladder to 10^5) and, for
the fields that are O(1) to form, at every n of LARGE as well:

  closed_rule_norm(n);
  minimizer_audit(n)'s via_* and coefficient_max_deviation;
  multiplier_routes(n, "multiplier") and multiplier_routes(n, "expanded");
  minimizer_weights(n)'s b0, d and every weight (GRIDS only), its
  windows spread over the grid with h between them;
  minimizer_weights(n)'s two end windows (LARGE only), formed as it forms
  them.

A second set of digests pins the grid record the routes read,
norm._grid(n) in the working context at every n of GRIDS and LARGE: one
per _Grid field, over str() of each Decimal (its exact coefficient and
exponent) and the digits, exponent range and rounding of wide.

A third set pins the Decimal layer between the grid and those floats,
for both rules, _exact_solution(n) and _printed_solution(n), in the
working context at every n of GRIDS and LARGE: one digest per
_LayoutSums field, one per _Moments field and one per amplitude
(c_0, c_n, A, B), each over str() of the minimizer's and the printed
rule's value.

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
    _LayoutSums,
    _Moments,
    _exact_solution,
    _float_weights_on,
    _grid,
    _printed_solution,
    _window_width,
    closed_rule_norm,
    minimizer_audit,
    minimizer_weights,
    multiplier_routes,
    power_sums,
)
from optquad.spectral import end_windows
from oracles import every_minimizer_weight

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

# recorded at the commit before the constant piece lost its amplitude
LAYER_DIGESTS = {
    "layout.mu": "d77e05c037fbb15e3f555c1194681b27d88207211bae59fde01bfa6afb2c8bbc",
    "layout.inv": "9d587e32cb207071a6ecf8af81af11aad41cf50e8f8a6ff81ec212334474d7ee",
    "layout.gap": "a258d2687c78dc160b305fd8bc41e60a776624c36a0d0ef7bf89a97d487dd2e1",
    "layout.mu_n": "555fb561b60ecc41dbcb7879962013b2ab7d00a397e9d1d10fe3ca95cb26c411",
    "layout.mu_up": "8671ab52fcf16e1bc18663ed538e8e418bdfb3b3f8a8df7c4f40c952bf1d46cd",
    "layout.mu_down": "dadcbf74640a49b69ddb68b5d028126499217ae1635cf1aa500f39b6836fff3f",
    "layout.gap_up": "7e54c35454989c978c86e1ccda9412af16e4fbd72b181e92ff2c1878881e18d5",
    "layout.gap_down": "74d76eb776ca53079af2b8a1c9a53893cab931e4b5abee946beb657b1136f17d",
    "layout.s0": "245aaef064edc8851b6a541f980ab5b6e27885a3f8b87c493d511450d0b9f8c6",
    "layout.s1": "c6a48ac5c12b5040b0489b159cdd89d5da62c0a98fb4347b6d42e1ade80508d1",
    "layout.s2": "7eb7b1ac83c41c6d990bf4c2e60546f17a89617a4d2c9f3b63a7c4bb46131e8f",
    "layout.up": "9568b2140308b9121063569acf83a80094c4e0d6cbe35f3fa5726f5e76777d85",
    "layout.down": "6ebb87cf1fc853fa58a542ce21a49bdce68906b3dd4dcbe74236f8cc9fcdd52c",
    "layout.flat_up": "536fbf470a95a94e6de3dc7927c4e9f346b6b5946cb67c57199f82e9729ace48",
    "layout.flat_down": "3c2fd7a130b9f4e431f5b51a150b5507c46d619bb93c00b9bc8245bc41a44a2f",
    "moments.c": "c3193a1efbfb12209244daedb1a2af37987a9946c3020051b4179bdf0a1eadec",
    "moments.ep": "cd6ac6e0a323ab07075cc06becbcd5b003249d20f76bab31b77d6484eed2502f",
    "moments.en": "8b910876b6b12fbbe3eb2c799501e107d0817f86275be14eee6484873990091e",
    "moments.x": "a266222a931834d9ee27cff2f7544c86038aa7d5627d8889c8efdf109b9ceb04",
    "moments.xx": "fe8f5444ada4f6dc2c9aaaead0cd880f54140dc10b024fd1638192ea44ef3d66",
    "moments.moment": "d97b16bcb8f36eb5825010f2f85d7edcc7b49ab6ed89497f6636d3898419ebc2",
    "amplitudes.c_0": "4a21dc5fff3eefa54e9c5495c142068398113a7d75b5bb03a501901b0dbbf64b",
    "amplitudes.c_n": "169a17019d18a0d47a471991471131f559b909102aa2bc94eefa5906a9459351",
    "amplitudes.A": "d90b7a57346ef0f7691ceb7c7e018d2edec0bf11c7a177eaad23fc9b3b29955c",
    "amplitudes.B": "0cb1ea58e0ff5e1b5ef10cfae2b11f7fa87ecf746e2af9c66211dad39c244586",
}

_AMPLITUDES = ("c_0", "c_n", "A", "B")


def _fields(n: int, weights: bool) -> dict:
    """{field: [float, ...]} at n; every weight when weights is true, else the end windows."""
    audit = minimizer_audit(n)
    fields = {name: [audit[name]] for name in _AUDITED}
    fields["closed_rule_norm"] = [closed_rule_norm(n)]
    for method in ("multiplier", "expanded"):
        fields[f"multiplier_routes.{method}"] = [multiplier_routes(n, method)]
    windows, _, b0, d = minimizer_weights(n)
    if weights:
        fields["weights"] = every_minimizer_weight(n).tolist()
    else:
        fields["windows"] = [w for _, _, window in windows for w in window]
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


def _layer_values(sol) -> dict:
    """{"group.field": Decimal} of sol's _LayoutSums, _Moments and amplitudes."""
    values = {f"layout.{name}": value for name, value in zip(_LayoutSums._fields, sol.layout_sums)}
    values.update((f"moments.{name}", value) for name, value in zip(_Moments._fields, sol.moments))
    values.update((f"amplitudes.{name}", value) for name, value in zip(_AMPLITUDES, sol.amplitudes))
    return values


def layer_digests() -> dict:
    """{"group.field": SHA-256 hex digest of 'n minimizer printed' lines over every n}, values as str()."""
    hashes = {}
    for n in (*GRIDS, *LARGE):
        with localcontext(_CONTEXT):
            exact, printed = _layer_values(_exact_solution(n)), _layer_values(_printed_solution(n))
        for name, value in exact.items():
            hashes.setdefault(name, hashlib.sha256()).update(f"{n} {value} {printed[name]}\n".encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_exact_core_is_bit_identical():
    assert digests() == DIGESTS


def test_grid_is_digit_identical():
    assert grid_digests() == GRID_DIGESTS


def test_decimal_layer_is_digit_identical():
    assert layer_digests() == LAYER_DIGESTS


def test_layout_sums_are_power_sums():
    # the layer ratio's end power and S_k are power_sums', digit for digit,
    # for both rules at every n of the digests
    for n in (*GRIDS, *LARGE):
        with localcontext(_CONTEXT):
            for sol in (_exact_solution(n), _printed_solution(n)):
                ls = sol.layout_sums
                sums = (ls.mu_n, ls.s0, ls.s1, ls.s2)
                assert list(map(str, sums)) == list(map(str, power_sums(ls.mu, n))), n


def test_windows_are_minimizer_weights_own():
    # the windows the LARGE digest covers are the ones _float_weights_on
    # steps out on the minimizer's window width, at the smallest n of LARGE
    n = LARGE[0]
    windows, h, _, _ = minimizer_weights(n)
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        own = end_windows(n, _window_width(sol))
        assert own == [(0, 29), (n - 29, n)]
        assert [(first, last, weights) for (first, last), weights
                in zip(own, _float_weights_on(sol, own))] == windows
    assert h == 1.0 / n


if __name__ == "__main__":
    for name, digest in (*digests().items(), *grid_digests().items(), *layer_digests().items()):
        print(f'    "{name}": "{digest}",')
