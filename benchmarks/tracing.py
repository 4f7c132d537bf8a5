"""Spans and work counters around the public functions of each entwine layer.

Tracing rebinds the functions below, wherever an entwine module imported
them, for the duration of one traced pass, and restores them afterwards;
nothing inside the package changes. Spans are kept in memory and written
out when the pass ends.

A span is (name, command, parent, start, end). Self time is a span's
duration minus its children's. The exactlin groups are leaves for the
layers above them: an elimination entry point called from inside another
one is part of the outer call, not a new span. Counting the nonzeros that
`useful_frac` needs happens outside the matmul span, in a
`trace.bookkeeping` span of its own, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import entwine.cli  # noqa: F401  (every entwine module must be loaded before rebinding)
from entwine.exactlin import Matrix, Subspace

# module -> public functions timed as `<module>.<function>`
LAYER_FUNCTIONS = {
    "structures": ("verify_structure", "compute_antipode", "rational_submodule"),
    "entwining": ("verify_entwining", "build_smash", "build_coring", "nu_iso",
                  "verify_entwined_module"),
    "duality": ("dual_entwining", "dual_module_r", "adjunction_check"),
    "doikoppinen": ("verify_dk", "koppinen_smash", "dual_dk", "check_integral",
                    "check_cointegral", "dualize_coextension"),
    "document": ("parse_document", "emit_document"),
    "cli": ("run_command",),
    "catalog": ("catalog_get",),
}
ELIM_FUNCTIONS = ("rref", "rank", "kernel", "image", "preimage", "solve_linear", "invert")
ELIM_SUBSPACE_METHODS = ("from_spanning", "from_matrix_rows", "contains", "coordinates",
                         "intersect", "add")
MODULES = ("exactlin", *LAYER_FUNCTIONS)
ELIM = "exactlin.elim"
BOOKKEEPING = "trace.bookkeeping"


def _entwine_modules():
    return [m for name, m in sys.modules.items()
            if name == "entwine" or name.startswith("entwine.")]


class Tracer:
    """Records spans and counters while installed; one command at a time."""

    def __init__(self):
        self.spans: list[list] = []   # [name, command, parent, start, end]
        self.open: list[int] = []
        self.command = "setup"
        self.counts: Counter = Counter()
        self.largest_matmul = 0
        self.largest_intermediate = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _begin(self, name: str, start: float) -> int:
        parent = self.open[-1] if self.open else -1
        self.spans.append([name, self.command, parent, start, None])
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def _end(self, index: int):
        self.spans[index][4] = perf_counter()
        self.open.pop()

    def _timed(self, name: str, module: str, fn, args, kwargs):
        index = self._begin(name, perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[f"{module}.raised"] += 1
            raise
        finally:
            self._end(index)

    def _in_elim(self) -> bool:
        return bool(self.open) and self.spans[self.open[-1]][0] == ELIM

    # -- wrappers ----------------------------------------------------------

    def _layer_wrapper(self, fn, name: str, module: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, module, fn, args, kwargs)
        return wrapper

    def _elim_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_elim():
                return fn(*args, **kwargs)
            self.counts["exactlin.elim.calls"] += 1
            for m in args:
                if isinstance(m, Matrix):
                    self.largest_intermediate = max(self.largest_intermediate, m.rows * m.cols)
            return self._timed(ELIM, "exactlin", fn, args, kwargs)
        return wrapper

    def _matmul_wrapper(self, fn):
        @functools.wraps(fn)
        def matmul(a, b):
            if not (isinstance(a, Matrix) and isinstance(b, Matrix)
                    and a.cols == b.rows and a.field == b.field):
                return fn(a, b)   # let the original raise its own error
            book = self._begin(BOOKKEEPING, perf_counter())
            is_zero = a.field.is_zero
            inner = a.cols
            col_nnz = [0] * inner
            for i, x in enumerate(a.data):
                if not is_zero(x):
                    col_nnz[i % inner] += 1
            useful = 0
            for k in range(inner):
                if col_nnz[k]:
                    row = b.data[k * b.cols:(k + 1) * b.cols]
                    useful += col_nnz[k] * sum(1 for x in row if not is_zero(x))
            out_entries = a.rows * b.cols
            self.counts["exactlin.matmul.calls"] += 1
            self.counts["exactlin.matmul.dense_madds"] += a.rows * inner * b.cols
            self.counts["exactlin.matmul.useful_madds"] += useful
            self.largest_matmul = max(self.largest_matmul, out_entries)
            self.largest_intermediate = max(self.largest_intermediate, out_entries)
            self._end(book)
            return self._timed("exactlin.matmul", "exactlin", fn, (a, b), {})
        return matmul

    def _kron_wrapper(self, fn):
        @functools.wraps(fn)
        def kron(a, b):
            if isinstance(b, Matrix):
                out_entries = a.rows * b.rows * a.cols * b.cols
                self.counts["exactlin.kron.calls"] += 1
                self.counts["exactlin.kron.out_entries"] += out_entries
                self.largest_intermediate = max(self.largest_intermediate, out_entries)
            return self._timed("exactlin.kron", "exactlin", fn, (a, b), {})
        return kron

    def _rebind(self, originals: dict):
        """Replace every reference an entwine module holds to an original function."""
        for mod in _entwine_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper[1])

    def install(self):
        originals: dict = {}
        for module, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"entwine.{module}"]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._layer_wrapper(fn, f"{module}.{name}", module))
        exactlin = sys.modules["entwine.exactlin"]
        for name in ELIM_FUNCTIONS:
            fn = getattr(exactlin, name)
            originals[id(fn)] = (fn, self._elim_wrapper(fn))
        self._rebind(originals)
        for name in ELIM_SUBSPACE_METHODS:
            raw = Subspace.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._elim_wrapper(raw.__func__))
            else:
                wrapped = self._elim_wrapper(raw)
            self._restore.append((Subspace, name, raw))
            setattr(Subspace, name, wrapped)
        for name, make in (("__matmul__", self._matmul_wrapper), ("kron", self._kron_wrapper)):
            raw = Matrix.__dict__[name]
            self._restore.append((Matrix, name, raw))
            setattr(Matrix, name, make(raw))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, dict]:
        """Self time per span name, and per command the total self time of its spans."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: Counter = Counter()
        by_command: dict = {}
        for i, (name, command, _, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            by_name[name] += own
            by_command[command] = by_command.get(command, 0.0) + own
        return by_name, by_command

    def metrics(self) -> dict:
        """Per-layer metrics, named `<module>.<function>.<quantity>`."""
        by_name, _ = self.self_times()
        c = self.counts
        madds = c["exactlin.matmul.dense_madds"]
        out = {
            "exactlin.matmul.calls": (c["exactlin.matmul.calls"], "count"),
            "exactlin.matmul.self_s": (by_name["exactlin.matmul"], "s"),
            "exactlin.matmul.dense_madds": (madds, "count"),
            "exactlin.matmul.useful_frac": (c["exactlin.matmul.useful_madds"] / madds if madds else 0.0,
                                            "frac"),
            "exactlin.matmul.largest_out_entries": (self.largest_matmul, "count"),
            "exactlin.kron.calls": (c["exactlin.kron.calls"], "count"),
            "exactlin.kron.self_s": (by_name["exactlin.kron"], "s"),
            "exactlin.kron.out_entries": (c["exactlin.kron.out_entries"], "count"),
            "exactlin.elim.calls": (c["exactlin.elim.calls"], "count"),
            "exactlin.elim.self_s": (by_name[ELIM], "s"),
            "exactlin.largest_intermediate_entries": (self.largest_intermediate, "count"),
        }
        for module, names in LAYER_FUNCTIONS.items():
            for name in names:
                out[f"{module}.{name}.self_s"] = (by_name[f"{module}.{name}"], "s")
        for module in MODULES:
            out[f"{module}.raised"] = (c[f"{module}.raised"], "count")
        out["trace.bookkeeping_s"] = (by_name[BOOKKEEPING], "s")
        return out

    def table(self) -> dict:
        """The spans, times in seconds from the first span's start, names by index."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        return {"names": names,
                "spans": [[index[n], cmd, parent, round(start - t0, 9), round(end - t0, 9)]
                          for n, cmd, parent, start, end in self.spans]}
