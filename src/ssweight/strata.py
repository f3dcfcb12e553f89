"""Combinatorial model of a strictly semistable configuration.

A configuration is stored as the nerve of its irreducible components together
with the graded cohomology of every stratum: for a set ``I`` of component
indices the stratum is the ``|I|``-fold intersection, of dimension
``n + 1 - |I|``.  The level-``k`` space is the disjoint union of all strata
with ``|I| = k``, and a level is its table of summands: ``level(k)`` maps
each degree ``m`` to the ``(face, dim)`` pairs of the faces with nonzero
``H^m``, in sorted order, and a level off ``1..max_level`` is ``{}``.
``level_dim`` sums a degree's summands.  Every map below is assembled by
``linalg.assemble_blocks`` from blocks keyed by face, and the Kunneth
product keys its summands ``H^{m1} (x) H^{m2}`` by ``(m1, m2)``.

Three families of maps live on this data:

* ``rho`` -- the alternating sum of restriction maps from level ``k`` to
  level ``k+1``; the block for a face ``J = {j_0 < ... < j_k}`` and its
  subface ``J - {j_a}`` carries the simplicial sign ``(-1)^a``.
* ``tau`` -- the Gysin maps from level ``k`` to level ``k-1``, never user
  input: ``tau`` is derived as the exact adjoint of the signed ``rho`` with
  respect to the Poincare pairings, ``<tau x, y> = <x, rho y>``.  With this
  convention ``rho^2 = 0``, ``tau^2 = 0`` hold everywhere and
  ``rho tau + tau rho = 0`` holds on every level >= 2; on level 1 the mixed
  relation has no meaning (there is no level 0 for ``tau`` to pass through)
  and the spectral sequence never uses it.
* ``lefschetz`` -- cup product with an ample class, degree +2 on each
  stratum, required to commute with restrictions and to be self-adjoint.

``validate`` checks these relations as one ordered table of maps that must
vanish at each level and degree: ``rho-squared``, ``tau-squared``,
``anticommutation``, ``lefschetz-rho`` and ``lefschetz-tau``.

Pairing matrices are stored per degree ``m`` as the matrix of
``H^m x H^{2d-m} -> Q`` where ``d`` is the stratum dimension; the complement
is filled in automatically using graded symmetry ``<y,x> = (-1)^{|x||y|}<x,y>``.

A document repeats a few strata many times (an ``N``-gon has two), so the
loader interns them: face entries of one size with one canonical JSON text
(sorted keys, ``indices`` left out) share one ``StratumCohomology``, and
restrictions with one canonical ``maps`` text share one dict of matrices.
Canonical text, not Python equality, keys them, since ``1``, ``1.0`` and
``true`` are equal in Python but are not one document value.  ``validate``
checks each distinct stratum of each dimension, and each distinct
``(source stratum, target stratum, maps)``, once, and reports the verdicts
again at every face or restriction that shares it, in the order of faces.
``dumps`` writes the text of each stratum object and maps dict once.
The complex memoises its levels, ``rho``, ``tau`` and the level pairings and
Lefschetz maps with ``memoised``, so the relation checks, the first page and
the suites share one assembly of each.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

from .errors import InvalidParameters, MissingRestriction, SchemaError
from .linalg import RatMatrix, _quoted, assemble_blocks, kernel_witness, kron

Face = tuple[int, ...]
_set = object.__setattr__
# the maps of a restriction the document does not give; never mutated
_NO_MAPS: dict[int, RatMatrix] = {}
# the degree keys of docs/strata_schema.json
_DEGREE = re.compile(r"0|[1-9][0-9]*")
# the C string escaper of ``json.dumps``'s default ``ensure_ascii``
_ESCAPE = json.encoder.encode_basestring_ascii
# a value ``_write_json`` writes as a raw NUL, which no escaped string holds:
# ``dumps`` cuts a written text there to splice other text in
_CUT = object()


# the C encoder of ``_canonical``, built once with the settings of
# ``json.dumps(value, sort_keys=True)``; without a table of the containers
# it is inside (which a failed call would leave filled), a cycle ends in
# ``RecursionError`` like a value nested too deeply
_SETTINGS = json.JSONEncoder(sort_keys=True)
_CANONICAL = json.encoder.c_make_encoder(
    None,
    _SETTINGS.default,
    _ESCAPE,
    _SETTINGS.indent,
    _SETTINGS.key_separator,
    _SETTINGS.item_separator,
    _SETTINGS.sort_keys,
    _SETTINGS.skipkeys,
    _SETTINGS.allow_nan,
)


def memoised(method):
    """``method(self, *args)``, formed on the first call and kept in
    ``self._memo`` under ``(method name, *args)``: one memo per object, made
    on its first use and freed with the object."""
    name = (method.__name__,)

    @functools.wraps(method)
    def read(self, *args):
        key = name + args
        try:
            return self._memo[key]
        except AttributeError:  # the object's first read
            vars(self).setdefault("_memo", {})
        except KeyError:
            pass
        value = self._memo[key] = method(self, *args)
        return value

    return read


def _int(x, what: str, minimum=None) -> int:
    """A JSON integer, at least ``minimum`` if one is given; a float or a
    bool is a schema error, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what} must be an integer, not {_quoted(x)}")
    if minimum is not None and x < minimum:
        raise SchemaError(f"{what} must be at least {minimum}, not {_quoted(x)}")
    return x


def _face(indices) -> Face:
    t = tuple(sorted(_int(i, "a face index") for i in indices))
    if not t or len(set(t)) != len(t) or t[0] < 1:
        raise SchemaError(
            f"face indices must be a nonempty set of positive ints: {_quoted(indices)}"
        )
    return t


def _face_str(indices: Face) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


@dataclass(frozen=True)
class StratumCohomology:
    """Graded cohomology of one stratum (or of a product factor); never
    changed after construction, since the loader gives faces with one
    canonical entry one shared instance.

    dims: degree -> dimension (only nonzero degrees stored).
    pairing: degree m -> matrix of H^m x H^{2*dim-m} -> Q.
    lefschetz: degree m -> matrix of H^m -> H^{m+2}; absent means zero.
    slope_pure: whether H^{2c} is pure of Frobenius slope c with vanishing
        odd cohomology (cycle-generated stratum).
    """

    dim: int
    dims: dict[int, int]
    pairing: dict[int, RatMatrix]
    lefschetz: dict[int, RatMatrix]
    slope_pure: bool = False
    labels: dict[int, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        pairing = dict(self.pairing)
        # fill complementary pairings by graded symmetry
        for m in sorted(self.pairing):
            mc = 2 * self.dim - m
            if mc not in pairing:
                sign = -1 if m % 2 else 1
                pairing[mc] = pairing[m].transpose().scale(sign)
        _set(self, "dims", {m: d for m, d in self.dims.items() if d})
        _set(self, "pairing", pairing)

    def dim_in(self, m: int) -> int:
        return self.dims.get(m, 0)

    def degrees(self):
        return sorted(self.dims)

    def lefschetz_matrix(self, m: int) -> RatMatrix:
        if m in self.lefschetz:
            return self.lefschetz[m]
        return RatMatrix.zeros(self.dim_in(m + 2), self.dim_in(m))

    def lefschetz_shaped(self, m: int) -> bool:
        L = self.lefschetz.get(m)
        return L is None or (L.rows, L.cols) == (self.dim_in(m + 2), self.dim_in(m))


@dataclass
class Violation:
    code: str
    location: str
    message: str
    witness: dict | None = None

    def to_dict(self):
        return {
            "code": self.code,
            "location": self.location,
            "message": self.message,
            "witness": self.witness,
        }


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        if self.ok:
            return "valid: all structural checks passed"
        lines = [f"invalid: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  [{v.code}] {v.location}: {v.message}")
        return "\n".join(lines)


class StrataComplex:
    """Nerve plus per-stratum cohomological data; immutable after loading.

    ``faces`` is keyed by sorted face tuples, ``restrictions`` by ``(face,
    facet)`` pairs and then by int degree; both are kept as given."""

    def __init__(self, name, n, components, faces, restrictions):
        self.name = name
        self.n = n
        self.components = list(components)
        self.faces: dict[Face, StratumCohomology] = faces
        self.restrictions: dict[tuple[Face, Face], dict[int, RatMatrix]] = restrictions

    # -- basic structure ---------------------------------------------------

    @property
    def max_level(self) -> int:
        return max((len(f) for f in self.faces), default=0)

    @property
    def cycle_generated(self) -> bool:
        return all(coh.slope_pure for coh in self.faces.values())

    def face_dim(self, f: Face) -> int:
        return self.n + 1 - len(f)

    def faces_at(self, k: int) -> list[Face]:
        return sorted(f for f in self.faces if len(f) == k)

    @memoised
    def level(self, k: int) -> dict[int, list[tuple[Face, int]]]:
        """The summands of the direct sum of the strata with ``|I| = k``:
        degree ``m`` -> ``[(face, dim H^m)]`` over the faces with nonzero
        ``H^m``, degrees ascending and faces sorted.  A level off
        ``1..max_level`` has no faces, so it is ``{}``."""
        out: dict[int, list[tuple[Face, int]]] = {}
        for f in self.faces_at(k):
            for m in self.faces[f].degrees():
                out.setdefault(m, []).append((f, self.faces[f].dim_in(m)))
        return {m: out[m] for m in sorted(out)}

    def _summands(self, k: int, m: int) -> list[tuple[Face, int]]:
        """The ``(face, dim)`` summands of H^m(level k)."""
        return self.level(k).get(m, [])

    def level_dim(self, k: int, m: int) -> int:
        """``dim H^m(level k)``: the sum over its summands, 0 off the levels."""
        return sum(d for _, d in self._summands(k, m))

    # -- assembled matrices --------------------------------------------------

    @memoised
    def level_pairing(self, k: int, m: int) -> RatMatrix:
        """Poincare pairing H^m(level k) x H^{m'}(level k), block-diagonal."""
        rows = self._summands(k, m)
        blocks = {(f, f): self.faces[f].pairing[m] for f, _ in rows if m in self.faces[f].pairing}
        return assemble_blocks(rows, self._summands(k, 2 * (self.n + 1 - k) - m), blocks)

    @memoised
    def level_lefschetz(self, k: int, m: int) -> RatMatrix:
        cols = self._summands(k, m)
        blocks = {(f, f): self.faces[f].lefschetz_matrix(m) for f, _ in cols}
        return assemble_blocks(self._summands(k, m + 2), cols, blocks)

    def lefschetz_power(self, k: int, m: int, power: int) -> RatMatrix:
        out = RatMatrix.identity(self.level_dim(k, m))
        deg = m
        for _ in range(power):
            out = self.level_lefschetz(k, deg) @ out
            deg += 2
        return out

    def restriction_matrix(self, src: Face, dst: Face, m: int) -> RatMatrix:
        d_src = self.faces[src].dim_in(m)
        d_dst = self.faces[dst].dim_in(m)
        if d_src == 0 or d_dst == 0:
            return RatMatrix.zeros(d_dst, d_src)
        maps = self.restrictions.get((src, dst))
        if maps is None or m not in maps:
            raise MissingRestriction(
                f"restriction {_face_str(src)} -> {_face_str(dst)} in degree {m} is absent"
            )
        return maps[m]

    @memoised
    def rho(self, k: int, m: int) -> RatMatrix:
        """Signed restriction map H^m(level k) -> H^m(level k+1)."""
        rows, cols = self._summands(k + 1, m), self._summands(k, m)
        src = {f for f, _ in cols}
        blocks = {}
        for J, _ in rows:
            for a in range(len(J)):
                I = J[:a] + J[a + 1 :]
                if I in src:
                    blocks[(J, I)] = self.restriction_matrix(I, J, m).scale(-1 if a % 2 else 1)
        return assemble_blocks(rows, cols, blocks)

    @memoised
    def tau(self, k: int, m: int) -> RatMatrix:
        """Gysin map H^m(level k) -> H^{m+2}(level k-1), adjoint of ``rho``.

        Determined by ``<tau x, y>_{k-1} = <x, rho y>_k`` where y runs over
        the degree complementary to ``m`` on level ``k``: with ``p1`` the
        pairing of level ``k`` in degree ``m`` and ``p0`` that of level
        ``k-1`` in degree ``m+2``, it is the one solution of
        ``p0^T tau = (p1 rho)^T``, one solve.  Requires perfect pairings on
        level ``k-1``, which validation checks before it reads any ``tau``;
        a system with no solution raises ``ValueError``.
        """
        cols = self.level_dim(k, m)
        rows = self.level_dim(k - 1, m + 2)
        if rows == 0 or cols == 0:
            return RatMatrix.zeros(rows, cols)
        mc = 2 * (self.n + 1 - k) - m
        a = self.rho(k - 1, mc)
        p1 = self.level_pairing(k, m)
        p0 = self.level_pairing(k - 1, m + 2)
        tau = p0.transpose().solve((p1 @ a).transpose())
        if tau is None:
            raise ValueError("matrix is singular")
        return tau

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        v: list[Violation] = []
        self._check_nerve(v)
        self._check_strata(v)
        self._check_restrictions(v)
        # relation checks need well-shaped, perfect pairings and complete
        # restriction data; structural violations make them meaningless
        if not v:
            self._check_relations(v)
        return ValidationReport(v)

    def _check_nerve(self, v):
        if self.n < 0:
            v.append(Violation("dimension", "complex", "dimension must be >= 0"))
        s = len(self.components)
        for f in sorted(self.faces):
            if f[-1] > s:
                v.append(
                    Violation("face-index", _face_str(f), f"index exceeds component count {s}")
                )
            if len(f) > self.n + 1:
                v.append(
                    Violation(
                        "face-dim",
                        _face_str(f),
                        f"a {len(f)}-fold intersection is empty in dimension {self.n}",
                    )
                )
            for a in range(len(f)):
                sub = f[:a] + f[a + 1 :]
                if sub and sub not in self.faces:
                    v.append(
                        Violation(
                            "nerve-not-closed",
                            _face_str(f),
                            f"subface {_face_str(sub)} is missing",
                        )
                    )
        for c, name in enumerate(self.components, start=1):
            if (c,) not in self.faces:
                v.append(
                    Violation(
                        "component-without-stratum",
                        f"component {c}",
                        f"component {_quoted(name)} has no face {_face_str((c,))}",
                    )
                )

    def _check_strata(self, v):
        # faces that share one stratum of one dimension share its verdicts
        seen: dict[tuple[int, int], list] = {}
        for f in sorted(self.faces):
            coh, d = self.faces[f], self.face_dim(f)
            key = (id(coh), d)
            if key not in seen:
                seen[key] = _stratum_violations(coh, d)
            _emit(v, f"face {_face_str(f)}", seen[key])

    def _check_restrictions(self, v):
        # a restriction runs from a face to a face with one more index;
        # any other pair would be ignored by rho
        for (sub, f) in sorted(self.restrictions):
            missing = [g for g in (sub, f) if g not in self.faces]
            if missing:
                message = f"face {_face_str(missing[0])} is not in the nerve"
            elif len(f) != len(sub) + 1 or not set(sub) < set(f):
                message = f"{_face_str(sub)} is not a facet of {_face_str(f)}"
            else:
                continue
            loc = f"restriction {_face_str(sub)} -> {_face_str(f)}"
            v.append(Violation("restriction-unknown-face", loc, message))
        # restrictions that share their strata and their maps share verdicts
        seen: dict[tuple[int, int, int], list] = {}
        for f in sorted(self.faces):
            if len(f) < 2:
                continue
            for a in range(len(f)):
                sub = f[:a] + f[a + 1 :]
                if sub not in self.faces:
                    continue
                src, dst = self.faces[sub], self.faces[f]
                maps = self.restrictions.get((sub, f), _NO_MAPS)
                key = (id(src), id(dst), id(maps))
                if key not in seen:
                    seen[key] = _restriction_violations(src, dst, maps)
                _emit(v, f"restriction {_face_str(sub)} -> {_face_str(f)}", seen[key])

    def _check_relations(self, v):
        rho, tau, L = self.rho, self.tau, self.level_lefschetz
        try:
            for k in range(1, self.max_level + 1):
                for m in self.level(k):
                    # (code, message, a map that must vanish), in report order
                    rows = [
                        ("rho-squared", "rho o rho != 0", rho(k + 1, m) @ rho(k, m)),
                        ("tau-squared", "tau o tau != 0", tau(k - 1, m + 2) @ tau(k, m)),
                    ]
                    if k >= 2:  # on level 1 the mixed relation has no meaning
                        mixed = rho(k - 1, m + 2) @ tau(k, m) + tau(k + 1, m) @ rho(k, m)
                        rows.append(("anticommutation", "rho tau + tau rho != 0", mixed))
                    lr = L(k + 1, m) @ rho(k, m) - rho(k, m + 2) @ L(k, m)
                    rows.append(("lefschetz-rho", "[L, rho] != 0", lr))
                    lt = L(k - 1, m + 2) @ tau(k, m) - tau(k, m + 2) @ L(k, m)
                    rows.append(("lefschetz-tau", "[L, tau] != 0", lt))
                    loc = f"level {k} degree {m}"
                    v.extend(Violation(code, loc, msg) for code, msg, x in rows if not x.is_zero())
        except MissingRestriction as exc:
            v.append(Violation("missing-restriction", "relations", str(exc)))

    # -- products ------------------------------------------------------------

    def product_with_factor(self, factor: StratumCohomology) -> "StrataComplex":
        """Tensor every stratum with a fixed smooth factor (Kunneth).

        Pairings acquire the Koszul sign ``(-1)^{|u||y|}``; the ample class of
        the product is ``L (x) 1 + 1 (x) L_f``, restrictions act as ``r (x) 1``.
        """
        for m in factor.degrees():
            mc = 2 * factor.dim - m
            p = factor.pairing.get(m)
            if (
                factor.dim_in(mc) != factor.dim_in(m)
                or p is None
                or p.rank() != factor.dim_in(m)
            ):
                raise InvalidParameters("product factor must have perfect pairings")
        factor_pure = all(m % 2 == 0 for m in factor.degrees())

        def summands(m: int, coh: StratumCohomology):
            """Ordered ``((m1, m2), dim)`` summands H^m1 (x) H^m2 of total degree m."""
            return [
                ((m1, m - m1), coh.dim_in(m1) * factor.dim_in(m - m1))
                for m1 in coh.degrees()
                if factor.dim_in(m - m1)
            ]

        def tensor_stratum(coh: StratumCohomology) -> StratumCohomology:
            d = coh.dim + factor.dim
            degrees = sorted({m1 + m2 for m1 in coh.degrees() for m2 in factor.degrees()})
            dims = {m: sum(dm for _, dm in summands(m, coh)) for m in degrees}
            pairing = {}
            lefschetz = {}
            for m in degrees:
                here = summands(m, coh)
                dual = summands(2 * d - m, coh)
                pb = {}
                for (m1, m2), _ in here:
                    m1c, m2c = 2 * coh.dim - m1, 2 * factor.dim - m2
                    if m1 in coh.pairing:
                        sign = -1 if (m2 % 2) and (m1c % 2) else 1
                        pb[((m1, m2), (m1c, m2c))] = kron(
                            coh.pairing[m1], factor.pairing[m2]
                        ).scale(sign)
                if dual:
                    pairing[m] = assemble_blocks(here, dual, pb)
                # lefschetz: L (x) 1 + 1 (x) L_f into degree m + 2
                up = summands(m + 2, coh)
                targets = {key for key, _ in up}
                lb = {}
                for (m1, m2), _ in here:
                    if (m1 + 2, m2) in targets:
                        lb[((m1 + 2, m2), (m1, m2))] = kron(
                            coh.lefschetz_matrix(m1), RatMatrix.identity(factor.dim_in(m2))
                        )
                    if (m1, m2 + 2) in targets:
                        lb[((m1, m2 + 2), (m1, m2))] = kron(
                            RatMatrix.identity(coh.dim_in(m1)), factor.lefschetz_matrix(m2)
                        )
                if lb:
                    lefschetz[m] = assemble_blocks(up, here, lb)
            return StratumCohomology(
                dim=d,
                dims=dims,
                pairing=pairing,
                lefschetz=lefschetz,
                slope_pure=coh.slope_pure and factor_pure,
            )

        # each distinct stratum, and each distinct restriction between two
        # strata, is tensored once, so the product shares what this shares
        distinct = {id(coh): coh for coh in self.faces.values()}
        tensored = {key: tensor_stratum(coh) for key, coh in distinct.items()}
        new_faces = {f: tensored[id(coh)] for f, coh in self.faces.items()}
        new_restrictions = {}
        done: dict[tuple[int, int, int], dict[int, RatMatrix]] = {}
        for (a, b), maps in self.restrictions.items():
            src, dst = self.faces[a], self.faces[b]
            shared = (id(src), id(dst), id(maps))
            if shared not in done:
                out = done[shared] = {}
                for m in sorted(
                    {m1 + m2 for m1 in src.degrees() if dst.dim_in(m1) for m2 in factor.degrees()}
                ):
                    here = summands(m, src)
                    blocks = {
                        (key, key): kron(
                            self.restriction_matrix(a, b, key[0]),
                            RatMatrix.identity(factor.dim_in(key[1])),
                        )
                        for key, _ in here
                    }
                    out[m] = assemble_blocks(summands(m, dst), here, blocks)
            new_restrictions[(a, b)] = done[shared]
        return StrataComplex(
            name=f"{self.name} x factor",
            n=self.n + factor.dim,
            components=self.components,
            faces=new_faces,
            restrictions=new_restrictions,
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The document as ``json.loads`` returns it: the parse of
        ``dumps()``, so every call makes fresh dicts and lists and no two
        entries share one; a caller may edit one entry in place without
        touching another."""
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the document, byte
        for byte: its header, one entry per face in sorted order (``indices``
        and the members of its stratum) and one per restriction (``from``,
        ``to`` and ``maps``).  ``_write_json`` writes the text of each
        distinct stratum object and maps dict once per call, with ``_CUT``
        at ``indices`` or at ``from`` and ``to``, and the header with
        ``_CUT`` at ``faces`` and ``restrictions``; each text is split at
        those NULs, and each entry's lists are spliced in there."""
        # id of a stratum or maps dict -> its entry's text, cut at the indices
        written: dict[int, list[str]] = {}

        def entry(shared, fields, keys: tuple, values: tuple) -> str:
            parts = written.get(id(shared))
            if parts is None:
                text: list[str] = []
                _write_json({**fields(shared), **dict.fromkeys(keys, _CUT)}, text, "\n    ")
                parts = written[id(shared)] = "".join(text).split("\0")
            out = [parts[0]]
            for value, part in zip(values, parts[1:]):
                out.append(_list(list(map(str, value)), "\n      "))
                out.append(part)
            return "".join(out)

        faces = [
            entry(self.faces[f], _stratum_fields, ("indices",), (f,)) for f in sorted(self.faces)
        ]
        restrictions = [
            entry(self.restrictions[key], _maps_fields, ("from", "to"), key)
            for key in sorted(self.restrictions)
        ]
        header = {
            "schema_version": 1,
            "name": self.name,
            "dimension": self.n,
            "components": list(self.components),
            "faces": _CUT,
            "restrictions": _CUT,
        }
        head, between, tail = json_text(header).split("\0")
        return head + _list(faces, "\n  ") + between + _list(restrictions, "\n  ") + tail

    @staticmethod
    def from_json_dict(doc: dict) -> "StrataComplex":
        """The complex of a document as ``json.loads`` returns it; a value
        JSON cannot hold (a ``Fraction``, say) is a schema error."""
        version = doc.get("schema_version", 1)
        if _int(version, "schema_version") != 1:
            raise SchemaError(f"schema_version must be 1, not {version}")
        if "name" not in doc:
            raise SchemaError("name is required")
        name = doc["name"]
        if not isinstance(name, str):
            raise SchemaError(f"name must be a string, not {_quoted(name)}")
        components = doc.get("components")
        if not (_is_string_list(components) and components):
            raise SchemaError(
                f"components must be a nonempty list of strings, not {_quoted(components)}"
            )
        try:
            n = _int(doc["dimension"], "dimension", 0)
            # entries of one face size with one canonical JSON are one
            # stratum, and equal restriction maps one dict of matrices:
            # each is parsed once and shared
            strata: dict[tuple[int, str], StratumCohomology] = {}
            faces = {}
            for fd in doc["faces"]:
                f = _face(fd["indices"])
                if f in faces:
                    raise SchemaError(f"face {_face_str(f)} is listed twice")
                entry = (len(f), _canonical({k: x for k, x in fd.items() if k != "indices"}))
                if entry not in strata:
                    strata[entry] = _stratum_load(fd, n + 1 - len(f))
                faces[f] = strata[entry]
            loaded: dict[str, dict[int, RatMatrix]] = {}
            restrictions = {}
            for rd in doc.get("restrictions", []):
                key = (_face(rd["from"]), _face(rd["to"]))
                if key in restrictions:
                    raise SchemaError(
                        f"restriction {_face_str(key[0])} -> {_face_str(key[1])} is listed twice"
                    )
                maps = rd.get("maps", {})
                text = _canonical(maps)
                if text not in loaded:
                    loaded[text] = {m: _matrix_load(mat) for m, mat in _degree_items(maps, "maps")}
                restrictions[key] = loaded[text]
        except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
            # RecursionError: a value nested too deeply to encode canonically
            raise SchemaError(f"malformed strata document: {exc}") from exc
        return StrataComplex(name, n, components, faces, restrictions)

    @staticmethod
    def loads(text: str) -> "StrataComplex":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"input is not JSON: {exc}") from exc
        except ValueError as exc:  # an integer literal too long to convert
            raise SchemaError(f"input has a number too long to read: {exc}") from exc
        except RecursionError as exc:
            raise SchemaError(f"input is nested too deeply: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("top-level JSON value must be an object")
        return StrataComplex.from_json_dict(doc)


def _emit(v, loc: str, found):
    """Append the ``(code, message, witness)`` verdicts ``found`` at ``loc``."""
    v.extend(Violation(code, loc, message, witness) for code, message, witness in found)


def _stratum_violations(coh: StratumCohomology, d: int) -> list:
    """The ``(code, message, witness)`` verdicts on one stratum that the
    nerve gives dimension ``d``, in order."""
    out = []
    if coh.dim != d:
        return [("face-dim", f"stratum carries dim {coh.dim}, nerve forces {d}", None)]
    for m in coh.degrees():
        if m < 0 or m > 2 * d:
            out.append(("face-degrees", f"degree {m} outside [0, {2*d}]", None))
    if coh.slope_pure and any(m % 2 for m in coh.degrees()):
        out.append(("slope-pure-odd", "slope_pure stratum has odd cohomology", None))
    for m in coh.degrees():
        mc = 2 * d - m
        if coh.dim_in(mc) != coh.dim_in(m):
            out.append(
                (
                    "pairing-not-perfect",
                    f"dim H^{m} = {coh.dim_in(m)} != dim H^{mc} = {coh.dim_in(mc)}",
                    None,
                )
            )
            continue
        p = coh.pairing.get(m)
        if p is None:
            out.append(("pairing-shape", f"pairing missing in degree {m}", None))
            continue
        if p.rows != coh.dim_in(m) or p.cols != coh.dim_in(mc):
            out.append(("pairing-shape", f"pairing shape wrong in degree {m}", None))
            continue
        if p.rank() != p.rows:
            out.append(
                (
                    "pairing-not-perfect",
                    f"pairing not perfect at degree {m}",
                    {"kernel_vector": kernel_witness(p.transpose())},
                )
            )
        # m and mc have the same parity, so (m, mc) and (mc, m) state
        # the same condition: compare each pair once
        sign = -1 if m % 2 else 1
        q = coh.pairing.get(mc)
        if m <= mc and q is not None and q != p.transpose().scale(sign):
            out.append(
                ("pairing-symmetry", f"pairings at degrees {m},{mc} violate graded symmetry", None)
            )
    for m in sorted(coh.lefschetz):
        if not coh.lefschetz_shaped(m):
            out.append(("lefschetz-shape", f"lefschetz shape wrong at degree {m}", None))
    # self-adjointness <Lx, y> = <x, Ly>
    for m in coh.degrees():
        mc, y_deg = 2 * d - m, 2 * d - m - 2
        if not (coh.dim_in(m + 2) and coh.dim_in(y_deg)):
            continue
        # a missing pairing reads as zero, built only here
        p_up, p = coh.pairing.get(m + 2), coh.pairing.get(m)
        if p_up is None:
            p_up = RatMatrix.zeros(coh.dim_in(m + 2), coh.dim_in(y_deg))
        if p is None:
            p = RatMatrix.zeros(coh.dim_in(m), coh.dim_in(mc))
        # a misshapen operand is already reported above as a shape or
        # perfectness violation, and its products may be undefined
        if not (
            coh.lefschetz_shaped(m)
            and coh.lefschetz_shaped(y_deg)
            and (p_up.rows, p_up.cols) == (coh.dim_in(m + 2), coh.dim_in(y_deg))
            and (p.rows, p.cols) == (coh.dim_in(m), coh.dim_in(mc))
        ):
            continue
        if coh.lefschetz_matrix(m).transpose() @ p_up != p @ coh.lefschetz_matrix(y_deg):
            out.append(
                ("lefschetz-adjoint", f"<Lx,y> != <x,Ly> between degrees {m} and {y_deg}", None)
            )
    return out


def _restriction_violations(
    src: StratumCohomology, dst: StratumCohomology, maps: dict[int, RatMatrix]
) -> list:
    """The ``(code, message, witness)`` verdicts on the restriction ``maps``
    from stratum ``src`` to its facet's stratum ``dst``, in order."""
    out = []
    for m in src.degrees():
        if dst.dim_in(m) == 0:
            continue
        r = maps.get(m)
        if r is None:
            out.append(("missing-restriction", f"no matrix in degree {m}", None))
            continue
        if r.rows != dst.dim_in(m) or r.cols != src.dim_in(m):
            out.append(("restriction-shape", f"bad shape in degree {m}", None))
            continue
        # commute with lefschetz where the target degree survives;
        # a misshapen Lefschetz map is reported as lefschetz-shape
        if not (dst.dim_in(m + 2) and dst.lefschetz_shaped(m) and src.lefschetz_shaped(m)):
            continue
        left = dst.lefschetz_matrix(m) @ r
        right_r = maps.get(m + 2)
        if src.dim_in(m + 2) == 0:
            right = RatMatrix.zeros(dst.dim_in(m + 2), src.dim_in(m))
        elif right_r is None:
            out.append(("missing-restriction", f"no matrix in degree {m+2}", None))
            continue
        elif right_r.cols != src.dim_in(m + 2):
            continue  # reported as restriction-shape in degree m + 2
        else:
            right = right_r @ src.lefschetz_matrix(m)
        if left != right:
            out.append(
                (
                    "restriction-lefschetz",
                    f"restriction does not commute with lefschetz at degree {m}",
                    None,
                )
            )
    return out


def _canonical(value) -> str:
    """The canonical JSON text of a document value: equal texts are equal
    values, and ``1``, ``1.0``, ``true`` and ``"1"`` all differ."""
    return "".join(_CANONICAL(value, 0))


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, from
    one recursive writer: with an indent ``json`` falls back to its pure
    Python encoder, and this writer escapes strings with the C one.  It
    writes what the program emits: ``None``, bools, ints, strings, lists,
    tuples and dicts with string keys, and ``_CUT`` as a raw NUL, where
    ``dumps`` cuts the text.  Any other value raises
    ``TypeError``, as ``json.dumps`` does for the values it rejects; so do
    floats and other keys, which the program never writes."""
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _stratum_fields(coh: StratumCohomology) -> dict:
    """The members of a face entry that its stratum gives: all but ``indices``."""
    fields = {
        "cohomology": {str(m): coh.dim_in(m) for m in coh.degrees()},
        "pairing": {
            str(m): coh.pairing[m].to_strings() for m in sorted(coh.pairing) if coh.dim_in(m)
        },
        "lefschetz": {str(m): L.to_strings() for m, L in sorted(coh.lefschetz.items())},
        "slope_pure": coh.slope_pure,
    }
    if coh.labels:
        fields["labels"] = {str(m): list(names) for m, names in sorted(coh.labels.items())}
    return fields


def _maps_fields(maps: dict[int, RatMatrix]) -> dict:
    """The members of a restriction entry that its maps give: all but
    ``from`` and ``to``."""
    return {"maps": {str(m): mat.to_strings() for m, mat in sorted(maps.items())}}


def _list(texts: list[str], nl: str) -> str:
    """``json_text`` of a list at depth ``nl`` whose items are written ``texts``."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _write_json(v, out: list, nl: str) -> None:
    # the type tests run in the order of json.encoder._make_iterencode
    if isinstance(v, str):
        out.append(_ESCAPE(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, (list, tuple, dict)):
        if not v:
            out.append("{}" if isinstance(v, dict) else "[]")
            return
        inner = nl + "  "
        sep = inner
        if isinstance(v, dict):
            out.append("{")
            for key, x in sorted(v.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(sep)
                out.append(_ESCAPE(key))
                out.append(": ")
                _write_json(x, out, inner)
                sep = "," + inner
            out.append(nl + "}")
        else:
            out.append("[")
            for x in v:
                out.append(sep)
                _write_json(x, out, inner)
                sep = "," + inner
            out.append(nl + "]")
    elif v is _CUT:
        out.append("\0")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _stratum_load(fd: dict, dim: int) -> StratumCohomology:
    """The stratum of one face entry, of dimension ``dim``."""
    dims = {
        m: _int(d, f"the dimension of H^{m}", 0)
        for m, d in _degree_items(fd["cohomology"], "cohomology")
    }
    pairing = {m: _matrix_load(mat) for m, mat in _degree_items(fd.get("pairing", {}), "pairing")}
    lefschetz = {
        m: _matrix_load(mat) for m, mat in _degree_items(fd.get("lefschetz", {}), "lefschetz")
    }
    labels = dict(_degree_items(fd.get("labels", {}), "labels"))
    if not all(map(_is_string_list, labels.values())):
        raise SchemaError(f"labels must be lists of strings, not {_quoted(labels)}")
    slope_pure = fd.get("slope_pure", False)
    if not isinstance(slope_pure, bool):
        raise SchemaError(f"slope_pure must be a boolean, not {_quoted(slope_pure)}")
    return StratumCohomology(
        dim=dim,
        dims=dims,
        pairing=pairing,
        lefschetz=lefschetz,
        slope_pure=slope_pure,
        labels={m: list(names) for m, names in labels.items()},
    )


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _degree_items(value, what: str):
    """The ``(degree, value)`` pairs of a JSON object keyed by degree.  Any
    other value, or a key that is not a degree written ``0`` or ``[1-9][0-9]*``
    (no sign, space, underscore, leading zero or non-ASCII digit), is a schema
    error, so no two keys name one degree."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object, not {type(value).__name__}")
    for key, x in value.items():
        if not (isinstance(key, str) and _DEGREE.fullmatch(key)):
            raise SchemaError(f"{what} key {_quoted(key)} is not a degree 0, 1, 2, ...")
        yield int(key), x


def _matrix_load(rows) -> RatMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows")
    return RatMatrix.from_rows(rows)
