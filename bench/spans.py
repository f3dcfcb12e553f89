"""Thread-aware spans around the program's public functions.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()`` replaces
each traced function with a wrapper for the duration of a ``with`` block,
under every name it is looked up by: ``cli``, ``checks``, ``polygons`` and
``hodge_lefschetz`` import ``build_e1``, ``compute_e2``, ``induced_map`` and
``signature`` by name, so each module attribute that is the original
function is replaced, and class attributes are replaced on the class.

A span records its name, start, end, the thread it ran on, its parent (the
enclosing span on the same thread, or the command that started the work
when a pool thread runs it) and the command it belongs to.  Self time is
the thread's own CPU time in the span minus that of its child spans on the
same thread.  CPU time per thread, not wall time, because the ``check``
pool runs suites concurrently on threads that share one interpreter lock: a
suite waiting for the lock consumes no CPU, so concurrent suites are not
double-counted.

Linear-algebra calls are far too many to keep one record each; they are
aggregated into per-name call counts, self times and shape counters.  The
stage spans above them are kept in memory as records until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) of a traced function
FUNCTIONS = {
    "spectral.build_e1": ("ssweight.spectral", "build_e1"),
    "spectral.compute_e2": ("ssweight.spectral", "compute_e2"),
    "checks.log_hl": ("ssweight.checks", "check_log_hl_all"),
    "checks.wm": ("ssweight.checks", "check_wm"),
    "checks.h1": ("ssweight.checks", "check_h1_suite"),
    "hodge_lefschetz.hl_suite": ("ssweight.hodge_lefschetz", "hl_suite"),
    "hodge_lefschetz.hl_from_strata": ("ssweight.hodge_lefschetz", "hl_from_strata"),
    "hodge_lefschetz.hl_cohomology": ("ssweight.hodge_lefschetz", "hl_cohomology"),
    "hodge_lefschetz.check_hl_axioms": ("ssweight.hodge_lefschetz", "check_hl_axioms"),
    "polygons.report": ("ssweight.polygons", "hodge_symmetry_report"),
    "linalg.signature": ("ssweight.linalg", "signature"),
    "linalg.induced_map": ("ssweight.linalg", "induced_map"),
}
# span name -> (module, class, method names); several methods may share a name
METHODS = {
    "strata.loads": ("ssweight.strata", "StrataComplex", ("loads",)),
    "strata.validate": ("ssweight.strata", "StrataComplex", ("validate",)),
    "strata.tau": ("ssweight.strata", "StrataComplex", ("tau",)),
    "strata.rho": ("ssweight.strata", "StrataComplex", ("rho",)),
    "strata.level_pairing": ("ssweight.strata", "StrataComplex", ("level_pairing",)),
    "strata.level_lefschetz": ("ssweight.strata", "StrataComplex", ("level_lefschetz",)),
    "spectral.d1": ("ssweight.spectral", "E1Page", ("d1", "nmap", "lmap")),
    "spectral.induced_map": ("ssweight.spectral", "E2Page", ("induced_n", "induced_l")),
    "linalg.matmul": ("ssweight.linalg", "RatMatrix", ("__matmul__",)),
    "linalg.rank": ("ssweight.linalg", "RatMatrix", ("rank",)),
    "linalg.rref": ("ssweight.linalg", "RatMatrix", ("rref",)),
    "linalg.kernel_basis": ("ssweight.linalg", "RatMatrix", ("kernel_basis",)),
    "linalg.column_space_basis": ("ssweight.linalg", "RatMatrix", ("column_space_basis",)),
    "linalg.solve": ("ssweight.linalg", "RatMatrix", ("solve",)),
    "linalg.inverse": ("ssweight.linalg", "RatMatrix", ("inverse",)),
    "linalg.quotient": ("ssweight.linalg", "QuotientSpace", ("__init__",)),
    "linalg.subspace": ("ssweight.linalg", "Subspace", ("__post_init__",)),
}
# the thunks the ``check`` command hands to its pool
SUITES = ("checks.log_hl", "checks.wm", "checks.h1", "hodge_lefschetz.hl_suite")


def _entry_bits(m) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in m.entries for x in row),
        default=0,
    )


class _ThreadState:
    def __init__(self):
        self.stack = []  # [child_cpu, span_id] per open span
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_cpu]
        self.counters = defaultdict(int)
        self.spans = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.command = None  # id of the command span in flight

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- spans -------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, keep: bool = True):
        st = self._state()
        parent = st.stack[-1][1] if st.stack else self.command
        span_id = next(self._ids)
        frame = [0.0, span_id]
        st.stack.append(frame)
        start, start_cpu = time.perf_counter(), time.thread_time()
        try:
            yield span_id
        finally:
            cpu = time.thread_time() - start_cpu
            end = time.perf_counter()
            st.stack.pop()
            if st.stack:
                st.stack[-1][0] += cpu
            entry = st.stats[name]
            entry[0] += 1
            entry[1] += cpu - frame[0]
            if keep:
                st.spans.append((name, span_id, parent, self.command, threading.get_ident(), start, end))

    def _wrap(self, name, fn, count=None):
        keep = not name.startswith("linalg.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer._state().counters, *args)
            with tracer.span(name, keep):
                return fn(*args, **kwargs)

        return traced

    # -- counters at the linear-algebra boundary ------------------------------------

    @staticmethod
    def _shape(c, m):
        c["max_rows"] = max(c["max_rows"], m.rows)
        c["max_cols"] = max(c["max_cols"], m.cols)
        c["max_entry_bits"] = max(c["max_entry_bits"], _entry_bits(m))

    @staticmethod
    def _count_matmul(c, a, b):
        Tracer._shape(c, a)
        Tracer._shape(c, b)
        if a.cols != b.rows:
            return
        c["matmul.mults"] += a.rows * a.cols * b.cols
        col_nnz = [sum(1 for row in a.entries if row[k] != 0) for k in range(a.cols)]
        row_nnz = [sum(1 for x in row if x != 0) for row in b.entries]
        c["matmul.useful"] += sum(x * y for x, y in zip(col_nnz, row_nnz))

    @staticmethod
    def _count_rref(c, m):
        Tracer._shape(c, m)
        c["rref.nnz"] += sum(1 for row in m.entries for x in row if x != 0)
        c["rref.cells"] += m.rows * m.cols

    @staticmethod
    def _count_shape(c, m, *_):
        Tracer._shape(c, m)

    # -- installation --------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced function and method; restore them on exit."""
        import importlib

        counters = {
            "linalg.matmul": self._count_matmul,
            "linalg.rref": self._count_rref,
            "linalg.rank": self._count_shape,
            "linalg.solve": self._count_shape,
            "linalg.inverse": self._count_shape,
        }
        undo = []
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ssweight"]
        for name, (mod_name, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        for name, (mod_name, cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn, counters.get(name))
                setattr(cls, meth, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                undo.append((cls, meth, raw))
        try:
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- results -------------------------------------------------------------------

    def stats(self) -> dict:
        out = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for name, (calls, cpu) in st.stats.items():
                out[name][0] += calls
                out[name][1] += cpu
        return out

    def counters(self) -> dict:
        out = defaultdict(int)
        for st in self._states:
            for key, value in st.counters.items():
                out[key] = max(out[key], value) if key.startswith("max_") else out[key] + value
        return out

    def spans(self) -> list:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s[5])

    def suite_seconds(self) -> dict:
        """Command id -> wall time of the pool suites it ran, summed over threads."""
        out = defaultdict(float)
        for name, _, _, command, _, start, end in self.spans():
            if name in SUITES:
                out[command] += end - start
        return out
