"""Slope multisets, Newton/Hodge polygons, and the ordinarity pipeline.

The degree-q slope multiset of a cycle-generated configuration is read off
the second page: slope b/2 with multiplicity dim E2^{q-b, b}.  Polygons are
lower-convex chains starting at the origin whose segment slopes are the
sorted multiset entries; the right endpoint heights are the total slope
``t_N`` and total filtration weight ``t_H``.  Weak admissibility is checked
through its standard necessary conditions only: equal endpoints and the
Newton polygon lying on or above the Hodge polygon (subobjects are not
enumerated).  When every slope in degree q is an integer, ordinarity turns
the multiset directly into Hodge numbers: h^{i, q-i} = multiplicity of i.

The checks run on integers: a chain's slopes are sorted integer numerators
over their lcm denominator, and its heights at x = 0..n the prefix sums of
those numerators.  A chain built from a multiset bends only at integers, so
two compared at every integer are compared everywhere.  ``Fraction`` appears
only at the boundary: multiset entries and ``Polygon`` vertices; the
witness strings ``t_N`` and ``t_H`` are formatted from the integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .checks import CheckResult, check_log_hl
from .errors import InvalidParameters, NonIntegralSlopes, SlopesUnavailable
from .linalg import _format, _quoted, rat
from .spectral import E2Page, build_e1, compute_e2
from .strata import StrataComplex, ValidationReport


@dataclass(frozen=True)
class SlopeMultiset:
    """Sorted multiset of rational Frobenius slopes in one degree."""

    q: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @staticmethod
    def of(q: int, values) -> "SlopeMultiset":
        return SlopeMultiset(int(q), tuple(rat(v) for v in values))

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return [str(x) for x in self.entries]


@dataclass(frozen=True)
class HodgeVector:
    """h^{i, q-i} for i = 0..q."""

    q: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.q + 1:
            raise InvalidParameters("Hodge vector must have q+1 entries")
        if any(v < 0 for v in self.values):
            raise InvalidParameters("Hodge numbers are nonnegative")

    def jumps(self) -> tuple[int, ...]:
        out = []
        for i, v in enumerate(self.values):
            out.extend([i] * v)
        return tuple(out)

    def is_palindromic(self) -> bool:
        return self.values == self.values[::-1]

    def to_json(self):
        return [
            {"i": i, "j": self.q - i, "dim": v} for i, v in enumerate(self.values)
        ]


def _chain(values):
    """``(den, sums, ends)`` for the chain with slopes ``values`` (ints or
    Fractions): ``den`` is the lcm of their denominators, ``sums[k] / den``
    the chain's height at x = k, and ``ends`` the x of its vertices."""
    den = lcm(*(v.denominator for v in values))
    nums = sorted(v.numerator * (den // v.denominator) for v in values)
    n = len(nums)
    ends = [k for k in range(1, n + 1) if k == n or nums[k] != nums[k - 1]]
    return den, list(accumulate(nums, initial=0)), [0, *ends]


@dataclass(frozen=True)
class Polygon:
    """Lower-convex vertex chain from the origin, slopes nondecreasing."""

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        vs = self.vertices
        if not vs or vs[0] != (Fraction(0), Fraction(0)):
            raise InvalidParameters("polygon must start at the origin")
        slopes = []
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x1 <= x0:
                raise InvalidParameters("polygon x-coordinates must increase")
            slopes.append((y1 - y0) / (x1 - x0))
        if any(s1 < s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise InvalidParameters("polygon slopes must be nondecreasing")

    @staticmethod
    def from_slopes(values) -> "Polygon":
        den, sums, ends = _chain([rat(v) for v in values])
        return Polygon(tuple((Fraction(k), Fraction(sums[k], den)) for k in ends))

    @property
    def width(self) -> Fraction:
        return self.vertices[-1][0]

    def to_json(self):
        return [[str(x), str(y)] for x, y in self.vertices]

    def ascii_sketch(self) -> str:
        """Plain-text sketch of the chain, origin bottom-left, 41 by 12 characters."""
        width, height = 41, 12
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        xmax = max(xs) or Fraction(1)
        ymax = max(ys)
        ymin = min(0, min(ys))
        yspan = (ymax - ymin) or Fraction(1)
        grid = [[" "] * width for _ in range(height)]
        steps = 8 * width
        k = 0  # the segment under the sample: move on only past its end
        for t in range(steps + 1 if self.width else 0):  # a zero-width polygon is its origin
            x = xmax * t / steps
            while x > xs[k + 1]:
                k += 1
            y0, y1 = ys[k], ys[k + 1]
            y = y0 + (y1 - y0) * (x - xs[k]) / (xs[k + 1] - xs[k])
            cx = min(width - 1, int((x / xmax) * (width - 1)))
            cy = min(height - 1, int(((y - ymin) / yspan) * (height - 1)))
            grid[height - 1 - cy][cx] = "*"
        for vx, vy in self.vertices:
            cx = min(width - 1, int((vx / xmax) * (width - 1)))
            cy = min(height - 1, int(((vy - ymin) / yspan) * (height - 1)))
            grid[height - 1 - cy][cx] = "o"
        return "\n".join("".join(row).rstrip() for row in grid)


@dataclass(frozen=True)
class PhiNModule:
    """Slope multiset plus filtration jumps of a filtered (phi, N)-module."""

    slopes: SlopeMultiset
    filtration_jumps: tuple[int, ...]

    def __post_init__(self):
        for j in self.filtration_jumps:
            if isinstance(j, bool) or not isinstance(j, int):
                raise InvalidParameters(f"filtration jump {_quoted(j)} is not an integer")
        object.__setattr__(self, "filtration_jumps", tuple(sorted(self.filtration_jumps)))
        if len(self.slopes) != len(self.filtration_jumps):
            raise InvalidParameters("slope and filtration multisets must have equal size")


def slopes_from_e2(e2: E2Page, q: int) -> SlopeMultiset:
    if not e2.cycle_generated:
        raise SlopesUnavailable(
            "slopes are defined only for cycle-generated configurations"
        )
    values = []
    for a, b in e2.support():
        if a + b == q:
            values += [Fraction(b, 2)] * e2.dim(a, b)
    return SlopeMultiset(q, tuple(values))


def check_slope_symmetry(sl: SlopeMultiset) -> CheckResult:
    """Multiset invariance under slope -> q - slope: sorted, e[i] + e[-1-i] = q."""
    e, q = sl.entries, sl.q
    ok = all(a + b == q for a, b in zip(e, reversed(e)))
    witness = {"slopes": sl.to_json()}
    if not ok:
        witness["mirrored"] = [str(x) for x in sorted(q - x for x in e)]
    return CheckResult(
        "slope_symmetry",
        {"q": sl.q},
        "pass" if ok else "fail",
        note="vacuous (no classes)" if ok and not sl.entries else "",
        witness=witness,
    )


def check_admissibility_necessary(m: PhiNModule) -> CheckResult:
    """Necessary conditions only: endpoint equality and polygon dominance."""
    dn, newton, n_ends = _chain(m.slopes.entries)
    dh, hodge, h_ends = _chain(m.filtration_jumps)
    tn, th = _format(newton[-1], dn), _format(hodge[-1], dh)
    problems = []
    if newton[-1] * dh != hodge[-1] * dn:
        problems.append(f"t_N = {tn} differs from t_H = {th}")
    if any(y * dh < z * dn for y, z in zip(newton, hodge)):
        problems.append("Newton polygon dips below the Hodge polygon")
    return CheckResult(
        "weak_admissibility_necessary",
        {"q": m.slopes.q},
        "pass" if not problems else "fail",
        note="; ".join(problems) if problems else "necessary conditions only",
        witness={
            "t_N": tn,
            "t_H": th,
            "newton": [[str(k), _format(newton[k], dn)] for k in n_ends],
            "hodge": [[str(k), _format(hodge[k], dh)] for k in h_ends],
        },
    )


def check_linear_relation(h: HodgeVector) -> CheckResult:
    """The signed sum over i+j = q of (i-j) h^{i,j} must vanish."""
    total = sum((i - (h.q - i)) * v for i, v in enumerate(h.values))
    return CheckResult(
        "hodge_linear_relation",
        {"q": h.q},
        "pass" if total == 0 else "fail",
        witness={"signed_sum": total, "hodge_numbers": list(h.values)},
    )


def hodge_from_ordinary(sl: SlopeMultiset) -> HodgeVector:
    """Hodge numbers by slope multiplicity; only meaningful when the Newton
    and Hodge polygons coincide, which forces integral slopes."""
    values = [0] * (sl.q + 1)
    for x in sl.entries:
        if x.denominator != 1:
            raise NonIntegralSlopes(f"slope {x} is not an integer; input is not ordinary")
        if not 0 <= x.numerator <= sl.q:
            raise InvalidParameters(f"slope {x} outside [0, {sl.q}]")
        values[x.numerator] += 1
    return HodgeVector(sl.q, tuple(values))


# -- end-to-end report ---------------------------------------------------------


@dataclass
class Report:
    title: str
    validation: ValidationReport
    results: list[CheckResult] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "title": self.title,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
            "data": self.data,
        }


def hodge_symmetry_report(sc: StrataComplex) -> Report:
    """Per-degree pipeline from the second page to a Hodge-symmetry verdict.

    Degree q: hard Lefschetz at r = |n-q| on the page, slopes, slope
    symmetry, ordinarity via integral slopes, Hodge numbers, the linear
    relation, and the final h^{i,j} = h^{j,i} verdict.  Each step names the
    principle licensing it; a step whose prerequisite failed is reported
    skipped, never silently assumed.
    """
    validation = sc.validate()
    report = Report(f"hodge symmetry report for {sc.name}", validation)
    report.data["validation"] = validation.to_dict()
    if not validation.ok:
        report.results.append(
            CheckResult("input_valid", {}, "fail", note="structural validation failed")
        )
        return report
    report.results.append(CheckResult("input_valid", {}, "pass"))
    e2 = compute_e2(build_e1(sc))
    n = sc.n
    report.data["dimension"] = n
    report.data["cycle_generated"] = e2.cycle_generated
    report.data["abutment"] = {str(q): d for q, d in e2.abutment().items()}
    degrees = []
    for q in range(0, 2 * n + 1):
        entry: dict = {"q": q}
        r = abs(n - q)
        hl_results = check_log_hl(e2, r)
        hl_ok = all(c.ok for c in hl_results)
        for c in hl_results:
            c.location["q_reported"] = q
        report.results.extend(hl_results)
        entry["log_hard_lefschetz"] = {
            "r": r,
            "status": "pass" if hl_ok else "fail",
            "licensed_by": "hard Lefschetz between complementary degrees on the degenerate page",
        }
        if not e2.cycle_generated:
            entry["slopes"] = None
            entry["slope_symmetry"] = {
                "status": "skipped",
                "reason": "slopes undefined: configuration is not cycle-generated",
            }
            entry["hodge_numbers"] = None
            entry["hodge_symmetry"] = {
                "status": "skipped",
                "reason": "no slope data",
            }
            degrees.append(entry)
            continue
        sl = slopes_from_e2(e2, q)
        entry["slopes"] = sl.to_json()
        sym = check_slope_symmetry(sl)
        report.results.append(sym)
        entry["slope_symmetry"] = {
            "status": sym.status,
            "licensed_by": "duality pairing twisted by the Lefschetz isomorphism",
        }
        if not hl_ok:
            entry["slope_symmetry"]["note"] = (
                "hard Lefschetz failed in this degree; symmetry is reported as computed"
            )
        try:
            hv = hodge_from_ordinary(sl)
        except NonIntegralSlopes as exc:
            entry["ordinary"] = False
            entry["hodge_numbers"] = None
            entry["hodge_symmetry"] = {"status": "skipped", "reason": str(exc)}
            degrees.append(entry)
            continue
        entry["ordinary"] = True
        entry["hodge_numbers"] = hv.to_json()
        entry["hodge_numbers_licensed_by"] = (
            "ordinarity: Newton polygon equals Hodge polygon, so Hodge numbers"
            " are slope multiplicities"
        )
        module = PhiNModule(slopes=sl, filtration_jumps=hv.jumps())
        adm = check_admissibility_necessary(module)
        report.results.append(adm)
        entry["admissibility"] = {
            "status": adm.status,
            "t_N": adm.witness["t_N"],
            "t_H": adm.witness["t_H"],
            "newton_polygon": adm.witness["newton"],
            "hodge_polygon": adm.witness["hodge"],
            "licensed_by": "weak admissibility endpoint equality",
        }
        lin = check_linear_relation(hv)
        report.results.append(lin)
        entry["linear_relation"] = {
            "status": lin.status,
            "licensed_by": "equal endpoints of the Newton and Hodge polygons",
        }
        sym_ok = hv.is_palindromic()
        report.results.append(
            CheckResult(
                "hodge_symmetry",
                {"q": q},
                "pass" if sym_ok else "fail",
                witness={"hodge_numbers": list(hv.values)},
            )
        )
        entry["hodge_symmetry"] = {
            "status": "pass" if sym_ok else "fail",
            "licensed_by": "slope symmetry plus ordinarity",
        }
        degrees.append(entry)
    report.data["degrees"] = degrees
    return report
