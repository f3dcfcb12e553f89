"""Command-line interface: validate, e2, check, slopes, polygons, report,
scenario.

Exit codes: 0 when every check passes, 1 when some check or validation
fails, 2 on usage or input errors.  Output is deterministic byte for byte
for identical inputs and flags; JSON is emitted with sorted keys and a
``schema_version`` field.  ``check`` builds the second page once and runs
the selected suites on it in a fixed order.

``main(argv)`` returns the exit code rather than exiting, so it can be
called repeatedly in one process; the parser is built once per process, on
the first call, and parses every later ``argv``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from . import hodge_lefschetz, polygons, scenarios
from .checks import CheckResult, check_h1_suite, check_log_hl_all, check_wm
from .errors import SsweightError
from .linalg import _quoted, rat
from .spectral import build_e1, compute_e2
from .strata import StrataComplex, json_text

SCHEMA_POINTER = "see docs/strata_schema.json for the input format"
_INTEGER = re.compile(r"-?[0-9]+")


def _emit(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json_text(payload))


def _load_complex(args) -> StrataComplex:
    have_scenario = getattr(args, "scenario", None) is not None
    have_input = getattr(args, "input", None) is not None
    if have_scenario == have_input:
        raise SsweightError("exactly one of --scenario and --input is required")
    if have_scenario:
        return scenarios.build(scenarios.parse_spec(args.scenario))
    return StrataComplex.loads(Path(args.input).read_text(encoding="utf-8"))


def _second_page(args):
    """Load and validate; returns (sc, its second page), or (sc, None) once
    the report of a complex that fails validation is written."""
    sc = _load_complex(args)
    report = sc.validate()
    if not report.ok:
        _emit(args, report.summary())
        return sc, None
    return sc, compute_e2(build_e1(sc))


def _add_io_flags(p: argparse.ArgumentParser, with_format=True):
    p.add_argument("--scenario", help="builtin input, e.g. ngon:3 or tetrahedron")
    p.add_argument("--input", help="path to a strata-complex JSON document")
    if with_format:
        p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", help="write output to this path instead of stdout")


def _checks_exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.ok for r in results) else 1


def _checks_text(results: list[CheckResult]) -> str:
    lines = [str(r) for r in results]
    bad = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results)} checks, {bad} failed")
    return "\n".join(lines)


def _checks_json(name: str, results: list[CheckResult]) -> dict:
    return {
        "schema_version": 1,
        "input": name,
        "passed": all(r.ok for r in results),
        "checks": [r.to_dict() for r in results],
    }


# -- subcommand handlers -------------------------------------------------------


def _cmd_validate(args) -> int:
    sc = _load_complex(args)
    report = sc.validate()
    if args.format == "json":
        _emit_json(args, {"schema_version": 1, "input": sc.name, **report.to_dict()})
    else:
        _emit(args, report.summary())
    return 0 if report.ok else 1


def _cmd_e2(args) -> int:
    sc, page = _second_page(args)
    if page is None:
        return 1
    doc = page.to_json_dict()
    if args.format == "json":
        _emit_json(args, doc)
        return 0
    lines = [f"second page of {sc.name} (dimension {page.n})"]
    lines.append(f"{'a':>4} {'b':>4} {'dim':>5} {'weight':>7} {'slope':>6}")
    for cell in doc["cells"]:
        slope = cell["slope"] if cell["slope"] is not None else "-"
        lines.append(
            f"{cell['a']:>4} {cell['b']:>4} {cell['dim']:>5} {cell['weight']:>7} {slope:>6}"
        )
    lines.append("abutment dimensions:")
    for q in sorted(doc["abutment"], key=int):
        lines.append(f"  H^{q}: {doc['abutment'][q]}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    if not (args.hl or args.wm or args.h1 or args.ito or args.all):
        raise SsweightError("select at least one of --hl, --wm, --h1, --ito, --all")
    sc, e2 = _second_page(args)
    if e2 is None:
        return 1
    run_h1 = (args.all or args.h1) and sc.n >= 1
    run_ito = (args.all or args.ito) and sc.cycle_generated
    results = []
    if args.all or args.hl:
        results += check_log_hl_all(e2)
    if args.all or args.wm:
        results += check_wm(e2)
    if run_h1:
        results += check_h1_suite(e2)
    elif args.all or args.h1:
        results.append(CheckResult("h1_suite", {}, "skipped", note="needs dimension >= 1"))
    if run_ito:
        results += hodge_lefschetz.hl_suite(e2)
    elif args.all or args.ito:
        results.append(
            CheckResult(
                "hl_module_suite", {}, "skipped", note="configuration is not cycle-generated"
            )
        )
    if args.format == "json":
        _emit_json(args, _checks_json(sc.name, results))
    else:
        _emit(args, _checks_text(results))
    return _checks_exit_code(results)


def _paged_degrees(args):
    """``_second_page`` and the degrees asked for: ``--q``, or by default
    every degree of the abutment."""
    if args.q is not None and args.q < 0:
        raise SsweightError(f"degree --q must be nonnegative, not {args.q}")
    sc, e2 = _second_page(args)
    if e2 is None:
        return sc, None, []
    return sc, e2, [args.q] if args.q is not None else sorted(e2.abutment())


def _cmd_slopes(args) -> int:
    sc, e2, qs = _paged_degrees(args)
    if e2 is None:
        return 1
    out = []
    results = []
    for q in qs:
        sl = polygons.slopes_from_e2(e2, q)
        sym = polygons.check_slope_symmetry(sl)
        results.append(sym)
        out.append({"q": q, "slopes": sl.to_json(), "symmetry": sym.status})
    if args.format == "json":
        _emit_json(args, {"schema_version": 1, "input": sc.name, "degrees": out})
    else:
        lines = [
            f"H^{d['q']} slopes: {{{', '.join(d['slopes'])}}} symmetry: {d['symmetry']}"
            for d in out
        ]
        _emit(args, "\n".join(lines))
    return _checks_exit_code(results)


def _parse_list(text: str, parse, expected: str):
    """The comma-separated values of ``text`` read by ``parse``; a value it
    refuses is an error naming what was ``expected``."""
    try:
        return [parse(x) for x in text.split(",") if x != ""]
    except (ValueError, ZeroDivisionError):
        raise SsweightError(f"{expected}: {_quoted(text)}") from None


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _cmd_polygons(args) -> int:
    if args.slopes is not None or args.jumps is not None:
        if args.slopes is None or args.jumps is None:
            raise SsweightError("calculator mode needs both --slopes and --jumps")
        slopes = polygons.SlopeMultiset.of(
            args.q or 0,
            _parse_list(args.slopes, rat, "expected comma-separated rationals such as 0,1/2,1"),
        )
        jumps = _parse_list(args.jumps, _integer, "filtration jumps must be integers")
        module = polygons.PhiNModule(slopes=slopes, filtration_jumps=tuple(jumps))
        adm = polygons.check_admissibility_necessary(module)
        payload = {
            "schema_version": 1,
            "t_N": adm.witness["t_N"],
            "t_H": adm.witness["t_H"],
            "newton_polygon": adm.witness["newton"],
            "hodge_polygon": adm.witness["hodge"],
            "admissibility_necessary": adm.to_dict(),
        }
        if args.format == "json":
            _emit_json(args, payload)
        else:
            _emit(
                args,
                "\n".join(
                    [
                        f"t_N = {payload['t_N']}, t_H = {payload['t_H']}",
                        f"admissibility (necessary): {adm.status}",
                        "newton polygon:",
                        polygons.Polygon.from_slopes(slopes.entries).ascii_sketch(),
                        "hodge polygon:",
                        polygons.Polygon.from_slopes(jumps).ascii_sketch(),
                    ]
                ),
            )
        return 0 if adm.ok else 1

    sc, e2, qs = _paged_degrees(args)
    if e2 is None:
        return 1
    degrees = []
    results = []
    for q in qs:
        sl = polygons.slopes_from_e2(e2, q)
        newton = polygons.Polygon.from_slopes(sl.entries)
        entry = {"q": q, "slopes": sl.to_json(), "newton_polygon": newton.to_json()}
        try:
            hv = polygons.hodge_from_ordinary(sl)
            module = polygons.PhiNModule(slopes=sl, filtration_jumps=hv.jumps())
            adm = polygons.check_admissibility_necessary(module)
            results.append(adm)
            entry["hodge_polygon"] = adm.witness["hodge"]
            entry["admissibility_necessary"] = adm.status
        except polygons.NonIntegralSlopes:
            entry["hodge_polygon"] = None
            entry["admissibility_necessary"] = "skipped"
        degrees.append((entry, newton))
    if args.format == "json":
        _emit_json(
            args,
            {
                "schema_version": 1,
                "input": sc.name,
                "degrees": [e for e, _ in degrees],
            },
        )
    else:
        lines = []
        for entry, newton in degrees:
            lines.append(
                f"H^{entry['q']} slopes {{{', '.join(entry['slopes'])}}}"
                f" admissibility: {entry['admissibility_necessary']}"
            )
            lines.append(newton.ascii_sketch())
        _emit(args, "\n".join(lines))
    return _checks_exit_code(results)


def _cmd_report(args) -> int:
    sc = _load_complex(args)
    report = polygons.hodge_symmetry_report(sc)
    if args.format == "json":
        _emit_json(args, report.to_dict())
    else:
        lines = [report.title, f"overall: {'pass' if report.passed else 'fail'}"]
        for entry in report.data.get("degrees", []):
            hs = entry.get("hodge_symmetry", {})
            slopes = entry.get("slopes")
            slopes_text = "{" + ", ".join(slopes) + "}" if slopes is not None else "n/a"
            lines.append(
                f"  q={entry['q']}: slopes {slopes_text}; hodge symmetry: {hs.get('status')}"
            )
        _emit(args, "\n".join(lines))
    return 0 if report.passed else 1


def _cmd_scenario(args) -> int:
    sc = scenarios.build(scenarios.parse_spec(args.kind))
    _emit(args, sc.dumps())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared after.

    ``parse_args`` leaves the parser as it was, so one parser serves every
    ``main`` call in a process; help and usage text are formatted when they
    are printed.  A caller that adds to the returned parser changes it for
    ``main`` as well.
    """
    parser = argparse.ArgumentParser(
        prog="ssweight",
        description=(
            "exact weight-spectral-sequence engine for strictly semistable"
            " degenerations"
        ),
        epilog=SCHEMA_POINTER,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a configuration")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("e2", help="second page with weights, slopes, abutment")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_e2)

    p = sub.add_parser("check", help="run check suites")
    _add_io_flags(p)
    p.add_argument("--hl", action="store_true", help="hard Lefschetz on the page")
    p.add_argument("--wm", action="store_true", help="weight-monodromy isomorphisms")
    p.add_argument("--h1", action="store_true", help="degree-one lemma chain")
    p.add_argument(
        "--ito",
        action="store_true",
        help="bigraded Hodge-Lefschetz module axioms for V and for ker d/im d",
    )
    p.add_argument("--all", action="store_true", help="every suite")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("slopes", help="Frobenius slope multisets per degree")
    _add_io_flags(p)
    p.add_argument("--q", type=int, help="restrict to one degree")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("polygons", help="Newton/Hodge polygons and admissibility")
    _add_io_flags(p)
    p.add_argument("--q", type=int, help="degree (scenario mode) or label (calculator)")
    p.add_argument("--slopes", help="calculator mode: comma-separated slopes, e.g. 0,1/2,1")
    p.add_argument("--jumps", help="calculator mode: comma-separated filtration jumps")
    p.set_defaults(func=_cmd_polygons)

    p = sub.add_parser("report", help="end-to-end Hodge symmetry report")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("scenario", help="emit a builtin scenario as JSON")
    p.add_argument("kind", help="e.g. ngon:4, tetrahedron, cellular:1,2,1")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SsweightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(SCHEMA_POINTER, file=sys.stderr)
        return 2
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
