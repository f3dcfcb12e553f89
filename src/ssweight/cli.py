"""Command-line interface: validate, e2, check, slopes, polygons, report,
scenario.

Exit codes: 0 when every check passes, 1 when some check or validation
fails, 2 on usage or input errors.  Output is deterministic byte for byte
for identical inputs and flags; JSON is emitted with sorted keys and a
``schema_version`` field.  ``check`` builds the second page once and runs
the selected suites on it in a fixed order.

Every handler returns its exit code, its JSON payload and a function that
builds its text, and ``main`` is the one writer: it writes the payload or
the text, as ``--format`` asks, to stdout or to ``-o``.  ``scenario`` has
no ``--format``: its text is the document, as ``StrataComplex.dumps``
writes it.  A command that reads the second page of a complex that fails
validation gives the ``validate`` command's result, and ``report`` fails it
with the ``validate`` text under its own.  An error is an ``error:`` line
on stderr, followed by the pointer to the document schema only when the
input document is malformed (a ``SchemaError``).  Integers on the command
line, ``--q``, ``--jumps`` and scenario parameters, are written
``-?[0-9]+``.

``main(argv)`` returns the exit code rather than exiting, so it can be
called repeatedly in one process; the parser is built once per process, on
the first call, and parses every later ``argv``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import hodge_lefschetz, polygons, scenarios
from .checks import CheckResult, check_h1_suite, check_log_hl_all, check_wm
from .errors import SchemaError, SsweightError
from .linalg import _quoted, integer, rat
from .spectral import build_e1, compute_e2
from .strata import StrataComplex, json_text

SCHEMA_POINTER = "see docs/strata_schema.json for the input format"


def _load_complex(args) -> StrataComplex:
    have_scenario = getattr(args, "scenario", None) is not None
    have_input = getattr(args, "input", None) is not None
    if have_scenario == have_input:
        raise SsweightError("exactly one of --scenario and --input is required")
    if have_scenario:
        return scenarios.build(scenarios.parse_spec(args.scenario))
    return StrataComplex.loads(Path(args.input).read_text(encoding="utf-8"))


def _validation(sc: StrataComplex, report):
    """The ``validate`` command's result on ``sc`` and its ``report``."""
    payload = {"schema_version": 1, "input": sc.name, **report.to_dict()}
    return (0 if report.ok else 1), payload, report.summary


def _second_page(args, then):
    """``then(sc, page)`` on the input complex and its second page, or the
    ``validate`` command's result on a complex that fails validation."""
    sc = _load_complex(args)
    report = sc.validate()
    if not report.ok:
        return _validation(sc, report)
    return then(sc, compute_e2(build_e1(sc)))


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="builtin input, e.g. ngon:3 or tetrahedron")
    p.add_argument("--input", help="path to a strata-complex JSON document")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", help="write output to this path instead of stdout")


def _exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.ok for r in results) else 1


def _read(text: str, parse, expected: str):
    """``parse(text)``; a value it refuses is an error naming what was
    ``expected``."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise SsweightError(f"{expected}: {_quoted(text)}") from None


def _parse_list(text: str, parse, expected: str):
    """The comma-separated values of ``text`` read by ``parse``."""
    return _read(text, lambda t: [parse(x) for x in t.split(",") if x != ""], expected)


def _flag_q(args):
    return None if args.q is None else _read(args.q, integer, "--q must be an integer")


def _degrees(args):
    """The degrees asked for, as a function of the second page: ``--q``, or
    by default every degree of the abutment."""
    q = _flag_q(args)
    if q is not None and q < 0:
        raise SsweightError(f"degree --q must be nonnegative, not {q}")
    return lambda page: [q] if q is not None else sorted(page.abutment())


# -- subcommand handlers: each returns (exit code, payload, text function) ----


def _cmd_validate(args):
    sc = _load_complex(args)
    return _validation(sc, sc.validate())


def _cmd_e2(args):
    def on_page(sc, page):
        doc = page.to_json_dict()

        def text():
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
            return "\n".join(lines)

        return 0, doc, text

    return _second_page(args, on_page)


def _cmd_check(args):
    if not (args.hl or args.wm or args.h1 or args.ito or args.all):
        raise SsweightError("select at least one of --hl, --wm, --h1, --ito, --all")

    def on_page(sc, e2):
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
        payload = {
            "schema_version": 1,
            "input": sc.name,
            "passed": all(r.ok for r in results),
            "checks": [r.to_dict() for r in results],
        }

        def text():
            bad = sum(1 for r in results if not r.ok)
            return "\n".join([*map(str, results), f"{len(results)} checks, {bad} failed"])

        return _exit_code(results), payload, text

    return _second_page(args, on_page)


def _cmd_slopes(args):
    degrees = _degrees(args)

    def on_page(sc, e2):
        out = []
        results = []
        for q in degrees(e2):
            sl = polygons.slopes_from_e2(e2, q)
            sym = polygons.check_slope_symmetry(sl)
            results.append(sym)
            out.append({"q": q, "slopes": sl.to_json(), "symmetry": sym.status})
        payload = {"schema_version": 1, "input": sc.name, "degrees": out}
        return _exit_code(results), payload, lambda: "\n".join(
            f"H^{d['q']} slopes: {{{', '.join(d['slopes'])}}} symmetry: {d['symmetry']}"
            for d in out
        )

    return _second_page(args, on_page)


def _polygons_calculator(args):
    if args.slopes is None or args.jumps is None:
        raise SsweightError("calculator mode needs both --slopes and --jumps")
    slopes = polygons.SlopeMultiset.of(
        _flag_q(args) or 0,
        _parse_list(args.slopes, rat, "expected comma-separated rationals such as 0,1/2,1"),
    )
    jumps = _parse_list(args.jumps, integer, "filtration jumps must be integers")
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
    return (0 if adm.ok else 1), payload, lambda: "\n".join(
        [
            f"t_N = {payload['t_N']}, t_H = {payload['t_H']}",
            f"admissibility (necessary): {adm.status}",
            "newton polygon:",
            polygons.Polygon.from_slopes(slopes.entries).ascii_sketch(),
            "hodge polygon:",
            polygons.Polygon.from_slopes(jumps).ascii_sketch(),
        ]
    )


def _cmd_polygons(args):
    if args.slopes is not None or args.jumps is not None:
        return _polygons_calculator(args)
    degrees = _degrees(args)

    def on_page(sc, e2):
        entries = []
        newtons = []
        results = []
        for q in degrees(e2):
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
            entries.append(entry)
            newtons.append(newton)

        def text():
            lines = []
            for entry, newton in zip(entries, newtons):
                lines.append(
                    f"H^{entry['q']} slopes {{{', '.join(entry['slopes'])}}}"
                    f" admissibility: {entry['admissibility_necessary']}"
                )
                lines.append(newton.ascii_sketch())
            return "\n".join(lines)

        payload = {"schema_version": 1, "input": sc.name, "degrees": entries}
        return _exit_code(results), payload, text

    return _second_page(args, on_page)


def _cmd_report(args):
    report = polygons.hodge_symmetry_report(_load_complex(args))

    def text():
        lines = [report.title, f"overall: {'pass' if report.passed else 'fail'}"]
        if not report.validation.ok:
            lines.append(report.validation.summary())
        for entry in report.data.get("degrees", []):
            hs = entry.get("hodge_symmetry", {})
            slopes = entry.get("slopes")
            slopes_text = "{" + ", ".join(slopes) + "}" if slopes is not None else "n/a"
            lines.append(
                f"  q={entry['q']}: slopes {slopes_text}; hodge symmetry: {hs.get('status')}"
            )
        return "\n".join(lines)

    return (0 if report.passed else 1), report.to_dict(), text


def _cmd_scenario(args):
    # the document is its own text, written at the cost of its distinct strata
    return 0, None, scenarios.build(scenarios.parse_spec(args.kind)).dumps


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
    p.add_argument("--q", help="restrict to one degree")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("polygons", help="Newton/Hodge polygons and admissibility")
    _add_io_flags(p)
    p.add_argument("--q", help="degree (scenario mode) or label (calculator)")
    p.add_argument("--slopes", help="calculator mode: comma-separated slopes, e.g. 0,1/2,1")
    p.add_argument("--jumps", help="calculator mode: comma-separated filtration jumps")
    p.set_defaults(func=_cmd_polygons)

    p = sub.add_parser("report", help="end-to-end Hodge symmetry report")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("scenario", help="emit a builtin scenario as JSON")
    p.add_argument("kind", help="e.g. ngon:4, tetrahedron, cellular:1,2,1")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_scenario, format="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.func(args)
        out = json_text(payload) if args.format == "json" else text()
        if not out.endswith("\n"):
            out += "\n"
        if args.output:
            Path(args.output).write_text(out, encoding="utf-8")
        else:
            sys.stdout.write(out)
        return code
    except SsweightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SchemaError):
            print(SCHEMA_POINTER, file=sys.stderr)
        return 2
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # an input too large for the memory at hand is an input error; the
    # message is written once the handler has freed what the command held
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
