"""Builtin validated degenerations used as the test corpus and as input docs.

Every builder returns a ``StrataComplex`` that passes ``validate()``.  The
cohomology is hand-derived from standard geometry:

* ``good_reduction_pn`` -- a single projective-space component, no strata.
* ``ngon`` -- the cycle of N rational curves (totally degenerate genus-one
  fiber); nerve is the N-cycle graph.
* ``ngon_x_p1`` -- the same times a projective line, via the Kunneth builder.
* ``tetrahedron`` -- four rational surfaces glued along the boundary of the
  3-simplex.  Literal planes cannot appear here: the sum of all component
  classes must restrict to zero on every double curve, which forces each
  double curve to be a (-1)-curve on both neighbours.  The components are
  planes blown up in six points (two on each double curve), polarized by the
  anticanonical class, so each double curve has degree one and meets two
  triple points: -1 - 1 + 1 + 1 = 0.
* ``elliptic_stratum`` -- a genus-two degeneration: an elliptic curve and a
  rational curve meeting in two points; carries odd cohomology with the
  standard antisymmetric pairing, so it is not cycle-generated.
* ``cellular`` -- one smooth component whose H^{2k} has rank = number of
  codimension-k cells; the Lefschetz structure is the direct sum of weight
  filtration strings, one per primitive class, with intersection signs
  (-1)^s on the string born in degree 2s.

Like the loader, every builder makes one stratum object per distinct
stratum and one maps dict per distinct restriction, and shares them among
faces, so ``validate`` checks each once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameters
from .linalg import RatMatrix, _make, _quoted, integer
from .strata import StrataComplex, StratumCohomology


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        """The CLI syntax of this spec, which ``parse_spec`` reads back."""
        if not self.params:
            return self.kind
        values = []
        for _, v in sorted(self.params.items()):
            values.extend(v if isinstance(v, tuple) else (v,))
        return f"{self.kind}:{','.join(map(str, values))}"


def parse_spec(text: str) -> ScenarioSpec:
    """Parse CLI syntax ``kind`` or ``kind:p1,p2,...``."""
    kind, colon, rest = text.partition(":")
    if kind not in KINDS:
        raise InvalidParameters(f"unknown scenario kind {_quoted(kind)}; known: {', '.join(KINDS)}")
    try:
        args = [integer(x) for x in rest.split(",")] if colon else []
    except ValueError:
        raise InvalidParameters(
            f"scenario parameters must be comma-separated integers, not {_quoted(rest)}"
        ) from None
    _, name, default = _KINDS[kind]
    if kind == "cellular":
        if not args:
            raise InvalidParameters("cellular needs cell counts, e.g. cellular:1,2,1")
        return ScenarioSpec(kind, {name: tuple(args)})
    if name is None and args:
        raise InvalidParameters(f"scenario {kind} takes no parameters")
    if len(args) > 1:
        raise InvalidParameters(f"scenario {kind} takes one parameter, not {_quoted(rest)}")
    return ScenarioSpec(kind, {name: args[0] if args else default} if name else {})


def build(spec: ScenarioSpec) -> StrataComplex:
    """The complex of ``spec``; a parameter its kind does not take is an error."""
    builder, name, default = _KINDS.get(spec.kind, (None, None, None))
    if spec.params.keys() - {name}:
        raise InvalidParameters(f"scenario {spec.kind} does not take {_quoted(spec.params)}")
    if builder is None:
        raise InvalidParameters(f"unknown scenario kind {spec.kind!r}")
    return builder(spec.params.get(name, default)) if name else builder()


def builtin_specs() -> list[ScenarioSpec]:
    """The canonical corpus every quantified test runs over."""
    return [
        ScenarioSpec("good_reduction_pn", {"n": 1}),
        ScenarioSpec("good_reduction_pn", {"n": 2}),
        ScenarioSpec("good_reduction_pn", {"n": 3}),
        ScenarioSpec("ngon", {"N": 3}),
        ScenarioSpec("ngon", {"N": 5}),
        ScenarioSpec("ngon_x_p1", {"N": 3}),
        ScenarioSpec("tetrahedron"),
        ScenarioSpec("elliptic_stratum"),
        ScenarioSpec("cellular", {"cells": (1, 1)}),
        ScenarioSpec("cellular", {"cells": (1, 2, 1)}),
        ScenarioSpec("cellular", {"cells": (1, 3, 3, 1)}),
    ]


# -- reusable strata ---------------------------------------------------------


def point_cohomology(count: int = 1) -> StratumCohomology:
    return StratumCohomology(
        dim=0,
        dims={0: count},
        pairing={0: RatMatrix.identity(count)},
        lefschetz={},
        slope_pure=True,
    )


def projective_space_cohomology(n: int) -> StratumCohomology:
    one = RatMatrix.identity(1)
    return StratumCohomology(
        dim=n,
        dims={2 * c: 1 for c in range(n + 1)},
        pairing={2 * c: one for c in range(n + 1)},
        lefschetz={2 * c: one for c in range(n)},
        slope_pure=True,
    )


def elliptic_curve_cohomology(degree: int = 1) -> StratumCohomology:
    return StratumCohomology(
        dim=1,
        dims={0: 1, 1: 2, 2: 1},
        pairing={
            0: RatMatrix.identity(1),
            1: RatMatrix.from_rows([[0, 1], [-1, 0]]),
        },
        lefschetz={0: RatMatrix.from_rows([[degree]])},
        slope_pure=False,
    )


def cellular_cohomology(cells) -> StratumCohomology:
    """One stratum with H^{2k} of rank cells[k].

    The cell vector must be palindromic and unimodal: those are forced for a
    smooth projective cellular variety by Poincare duality and hard Lefschetz,
    and the construction below needs them to split H^* into Lefschetz strings.
    """
    cells = [int(c) for c in cells]
    n = len(cells) - 1
    if n < 0 or any(c < 1 for c in (cells[0], cells[-1])) or any(c < 0 for c in cells):
        raise InvalidParameters("cell counts must be nonnegative with nonzero ends")
    if cells != cells[::-1]:
        raise InvalidParameters("cell counts must be palindromic (Poincare duality)")
    half = (n + 2) // 2
    prim = []
    prev = 0
    for s in range(half):
        if cells[s] < prev:
            raise InvalidParameters("cell counts must be unimodal (hard Lefschetz)")
        prim.append(cells[s] - prev)
        prev = cells[s]

    # H^{2k} has the labels (s, t) of the strings born in degrees 2s up to
    # min(2k, 2(n-k)), in order of s: a prefix of the labels of the middle
    # degree, cells[k] long and the same for k and n-k.  So the pairing is
    # the diagonal of the signs (-1)^s, and L the identity on the labels of
    # H^{2k} that H^{2k+2} shares; each matrix is built from its nonzeros,
    # with rows shared among them.
    strings = [s for s in range(half) for _ in range(prim[s])]
    signed = [{i: (-1) ** s} for i, s in enumerate(strings)]
    unit = [{i: 1} for i in range(len(strings))]
    dims = {2 * k: c for k, c in enumerate(cells)}
    pairing = {2 * k: _make(c, c, 1, signed[:c]) for k, c in enumerate(cells)}
    lefschetz = {
        2 * k: _make(up, c, 1, unit[: min(c, up)] + [{}] * (up - c))
        for k, (c, up) in enumerate(zip(cells, cells[1:]))
    }
    return StratumCohomology(
        dim=n, dims=dims, pairing=pairing, lefschetz=lefschetz, slope_pure=True
    )


# -- scenario builders --------------------------------------------------------


def good_reduction_pn(n: int) -> StrataComplex:
    if n < 1:
        raise InvalidParameters("good_reduction_pn needs n >= 1")
    return StrataComplex(
        name=f"good_reduction_pn:{n}",
        n=n,
        components=["Y1"],
        faces={(1,): projective_space_cohomology(n)},
        restrictions={},
    )


def ngon(N: int) -> StrataComplex:
    if N < 3:
        raise InvalidParameters("ngon needs N >= 3")
    line, point = projective_space_cohomology(1), point_cohomology(1)
    unit = {0: RatMatrix.identity(1)}
    faces = {(i,): line for i in range(1, N + 1)}
    restrictions = {}
    for i in range(1, N + 1):
        edge = tuple(sorted((i, i % N + 1)))
        faces[edge] = point
        for v in edge:
            restrictions[((v,), edge)] = unit
    return StrataComplex(
        name=f"ngon:{N}",
        n=1,
        components=[f"C{i}" for i in range(1, N + 1)],
        faces=faces,
        restrictions=restrictions,
    )


def ngon_x_p1(N: int) -> StrataComplex:
    return ngon(N).product_with_factor(projective_space_cohomology(1))


def elliptic_stratum() -> StrataComplex:
    two_points = point_cohomology(2)
    ones = {0: RatMatrix.from_rows([[1], [1]])}
    return StrataComplex(
        name="elliptic_stratum",
        n=1,
        components=["E", "R"],
        faces={
            (1,): elliptic_curve_cohomology(degree=1),
            (2,): projective_space_cohomology(1),
            (1, 2): two_points,
        },
        restrictions={
            ((1,), (1, 2)): ones,
            ((2,), (1, 2)): ones,
        },
    )


def tetrahedron() -> StrataComplex:
    verts = (1, 2, 3, 4)
    restrictions = {}

    def others(i):
        return [j for j in verts if j != i]

    unit = RatMatrix.identity(1)
    # every component is one surface: the plane blown up in six points, two
    # on each of its three double curves, with the anticanonical polarization
    h2 = 7
    surface = StratumCohomology(
        dim=2,
        dims={0: 1, 2: h2, 4: 1},
        pairing={
            0: unit,
            2: RatMatrix.from_rows(
                [[(1 if r == 0 else -1) if r == c else 0 for c in range(h2)] for r in range(h2)]
            ),
        },
        lefschetz={
            0: RatMatrix.from_rows([[3]] + [[-1]] * (h2 - 1)),  # H^0 -> H^2
            2: RatMatrix.from_rows([[3] + [1] * (h2 - 1)]),  # H^2 -> H^4
        },
        slope_pure=True,
    )
    faces = {(i,): surface for i in verts}
    # double curves and triple points
    line, point = projective_space_cohomology(1), point_cohomology(1)
    for a in range(4):
        for b in range(a + 1, 4):
            faces[(verts[a], verts[b])] = line
    triples = [
        (verts[a], verts[b], verts[c])
        for a in range(4)
        for b in range(a + 1, 4)
        for c in range(b + 1, 4)
    ]
    for t in triples:
        faces[t] = point

    # restrictions component -> double curve: degree 0 is the unit; degree 2
    # is intersection with the strict transform l - e_{j,1} - e_{j,2}
    for i in verts:
        ex = others(i)
        for j in ex:
            edge = tuple(sorted((i, j)))
            row = [0] * (1 + 2 * len(ex))
            row[0] = 1
            pos = ex.index(j)
            row[1 + 2 * pos] = 1
            row[2 + 2 * pos] = 1
            restrictions[((i,), edge)] = {0: unit, 2: RatMatrix.from_rows([row])}
    # double curve -> triple point: unit in degree 0
    to_point = {0: unit}
    for t in triples:
        for a in range(3):
            restrictions[(t[:a] + t[a + 1 :], t)] = to_point

    return StrataComplex(
        name="tetrahedron",
        n=2,
        components=[f"S{i}" for i in verts],
        faces=faces,
        restrictions=restrictions,
    )


def cellular(cells) -> StrataComplex:
    coh = cellular_cohomology(cells)
    return StrataComplex(
        name="cellular:" + ",".join(str(c) for c in cells),
        n=coh.dim,
        components=["Z1"],
        faces={(1,): coh},
        restrictions={},
    )


# each kind: its builder, the name of its one parameter (None for a kind
# that takes none) and that parameter's default
_KINDS = {
    "good_reduction_pn": (good_reduction_pn, "n", 2),
    "ngon": (ngon, "N", 3),
    "ngon_x_p1": (ngon_x_p1, "N", 3),
    "tetrahedron": (tetrahedron, None, None),
    "elliptic_stratum": (elliptic_stratum, None, None),
    "cellular": (cellular, "cells", ()),
}
KINDS = tuple(_KINDS)
