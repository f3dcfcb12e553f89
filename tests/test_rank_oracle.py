"""The lazy second page against its quotients.

``E2Page`` takes each cell's dimension from forward ranks,
``dim E1 - rank dout - rank din``, and ``E2Page.induced_rank`` takes the rank
of a power of ``N`` or ``L`` from one block rank on the first page,
``rank [[dout, 0], [M, din]] - rank dout - rank din``, with no quotient
built.  Here both are compared with the quotients themselves: every cell's
dimension with that of its ``QuotientSpace``, and the rank at every
``(op, a, b, r)`` that ``check_log_hl``, ``check_wm``, ``check_h1_suite``
and ``hl_suite`` read on the page with the rank of ``power(e2, ...)``
between built quotients.  The documents are the builtins, larger polygons
and products, the ``SIGN_MUTANTS`` and seeded random valid configurations.
"""

import random

import pytest

from helpers import SIGN_MUTANTS, bench_inputs, random_valid_complex, sign_mutant
from ssweight.checks import check_h1_suite, check_log_hl_all, check_wm
from ssweight.hodge_lefschetz import hl_suite
from ssweight.linalg import QuotientSpace
from ssweight.scenarios import build, builtin_specs, parse_spec
from ssweight.spectral import E1Page, E2Page, power
from ssweight.strata import StrataComplex

SOURCES = [
    *(s.label() for s in builtin_specs()),
    "ngon:40",
    "ngon:640",
    "ngon_x_p1:20",
    "tetrahedron x P2",
    *(f"mutant {name}" for name in SIGN_MUTANTS),
    *(f"random {seed}" for seed in range(40)),
]


def _complex(source: str) -> StrataComplex:
    kind, _, rest = source.partition(" ")
    if kind == "mutant":
        return StrataComplex.from_json_dict(sign_mutant(rest))
    if kind == "random":
        return random_valid_complex(random.Random(int(rest)))
    if " x " in source:
        return bench_inputs().build_rung(source)
    return build(parse_spec(source))


def _read_powers(monkeypatch, e2):
    """The ``(op, a, b, r)``, ``r >= 1``, of every power of the page's ``N``
    or ``L`` that the suites read, with every quotient built first."""
    keys = set()
    for cell in e2.e1.support():
        e2.quotient(*cell)

    def recording(read):
        def call(cx, op, a, b, r):
            if cx is e2 and r >= 1:
                keys.add((op, a, b, r))
            return read(cx, op, a, b, r)

        return call

    monkeypatch.setattr(E2Page, "induced_rank", recording(E2Page.induced_rank))
    for module in ("ssweight.checks", "ssweight.hodge_lefschetz"):
        monkeypatch.setattr(f"{module}.power", recording(power))
    check_log_hl_all(e2), check_wm(e2)
    if e2.n >= 1:
        check_h1_suite(e2)
    if e2.cycle_generated:
        hl_suite(e2)
    monkeypatch.undo()
    return keys


@pytest.mark.parametrize("source", SOURCES)
def test_forward_ranks_and_block_ranks_match_the_quotients(monkeypatch, source):
    sc = _complex(source)
    built = E2Page(E1Page(sc))
    keys = _read_powers(monkeypatch, built)

    made = []
    init = QuotientSpace.__init__
    monkeypatch.setattr(QuotientSpace, "__init__", lambda q, *args: made.append(q) or init(q, *args))
    lazy = E2Page(E1Page(sc))
    dims = {cell: lazy.dim(*cell) for cell in lazy.e1.support()}
    support = lazy.support()
    ranks = {key: lazy.induced_rank(*key) for key in sorted(keys)}
    assert made == []
    monkeypatch.undo()

    assert dims == {cell: built.quotient(*cell).dim for cell in built.e1.support()}
    assert support == [cell for cell, d in dims.items() if d]
    assert ranks == {key: power(built, *key).rank() for key in keys}
