"""Outside-in span tracer for one benchmark pass.

The program is not changed.  After ``import infker`` the tracer replaces
the names through which one layer calls another: every public function
that a module of ``infker`` imports from another module, plus the
cross-layer methods of ``Matrix`` and ``Subspace``.  Each replacement
records a span (name, start, end, parent) and the counters of its layer.
Spans are kept in memory; :meth:`Tracer.dump` writes them out.

A layer's self time is the time its spans cover minus the time covered
by their child spans, so nested spans are never counted twice.

Counters, per pass:

    <layer>.calls                  wrapped calls into the layer
    exterior.minors                C(rows,r)*C(cols,r) per compound or
                                   pullback, C(n,r) per pure wedge
    prime_linalg.matmul_madds      rows*inner*cols per matrix product
    prime_linalg.matvec_madds      rows*cols per matrix-vector product
    prime_linalg.elim_cells        rows*cols handed to rref, rank, solve,
                                   kernel_basis, image_basis,
                                   Subspace.from_rows, sum_and_intersection
    prime_linalg.elim_cells_p2     the same, p = 2 calls only
    symplectic.operator_calls      x_minus_matrix and x_plus_matrix calls
    symplectic.operator_cache_hits those that repeat (space, operator, r)
    isotropic.subspaces_streamed   items pulled from iter_isotropic
    inflation.certificate_vectors  records of the certificate reports
    inflation.vacuous_records      the vacuous ones among them
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from math import comb
from time import perf_counter

#: Modules under ``src/infker``, one layer each, bottom up.
LAYERS = ("prime_linalg", "exterior", "symplectic", "isotropic",
          "extraspecial", "inflation", "verify", "cli")

#: Scalar helpers called up to millions of times per op.  A span each
#: would double the pass's wall time, so they are counted only.
SCALAR_HELPERS = frozenset({"inv_mod", "check_prime", "det_mod", "mono_rank",
                            "monomials", "wedge_monomials", "dim_wedge"})

#: Functions wrapped in their own module too.  ``sl2_check`` reaches the
#: operators through symplectic's globals, and ``isotropic_span_basis``
#: imports ``iter_isotropic`` inside the function, after the tracer ran.
HOME_WRAPPED = (("symplectic", "x_minus_matrix"), ("symplectic", "x_plus_matrix"),
                ("isotropic", "iter_isotropic"))

#: Methods whose calls cross layers, patched on the class.
METHODS = (("Matrix", "__matmul__"), ("Matrix", "matvec"),
           ("Subspace", "from_rows"), ("Subspace", "member"))

_ELIMINATING = ("rref", "rank", "solve", "kernel_basis", "image_basis")


class Tracer:
    """Spans and counters of one pass; :meth:`install` starts recording."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._stack = []
        self._operators = set()
        self._spaces = []  # keeps spaces alive so their ids stay unique

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus their children's."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += (end - start) - kids
        return dict(out)

    def _elim(self, cells: int, p: int):
        self.counts["prime_linalg.elim_cells"] += cells
        if p == 2:
            self.counts["prime_linalg.elim_cells_p2"] += cells

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers -----------------------------------------------------------

    def _counted(self, layer, fn):
        counts, key = self.counts, f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, layer, name, fn, measure=None):
        counts, key, label = self.counts, f"{layer}.calls", f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            idx = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                measure(result, *args, **kwargs)
            return result
        return wrapper

    def _streamed(self, layer, name, fn):
        """Generators: one span per item pulled, since the call itself
        only creates the generator."""
        counts, key, label = self.counts, f"{layer}.calls", f"{layer}.{name}"
        items = f"{layer}.subspaces_streamed" if name == "iter_isotropic" else None
        tracer = self

        class Stream:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.open(label)
                try:
                    item = next(self._it)
                finally:
                    tracer.close(idx)
                if items:
                    counts[items] += 1
                return item

            def close(self):
                self._it.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return Stream(fn(*args, **kwargs))
        return wrapper

    def _measure(self, name):
        """Work counter for calls of ``name``, computed from argument
        shapes (or, for certificates, from the report), or None."""
        counts = self.counts
        if name in ("compound_matrix", "pullback_matrix"):
            def measure(result, f, r):
                counts["exterior.minors"] += comb(f.rows, r) * comb(f.cols, r)
        elif name == "pure_wedge_coords":
            def measure(result, rows, nvars, p):
                counts["exterior.minors"] += comb(nvars, len(rows))
        elif name in _ELIMINATING:
            def measure(result, mat, *args, **kwargs):
                self._elim(mat.rows * mat.cols, mat.p)
        elif name == "sum_and_intersection":
            def measure(result, u, w):
                self._elim((u.dim + w.dim) * u.ambient_dim, u.p)
        elif name in ("x_minus_matrix", "x_plus_matrix"):
            def measure(result, space, r, *args, **kwargs):
                counts["symplectic.operator_calls"] += 1
                key = (id(space), name, r, args, tuple(kwargs.items()))
                if key in self._operators:
                    counts["symplectic.operator_cache_hits"] += 1
                else:
                    self._operators.add(key)
                    self._spaces.append(space)
        elif name == "__matmul__":
            def measure(result, a, b):
                counts["prime_linalg.matmul_madds"] += a.rows * a.cols * b.cols
        elif name == "matvec":
            def measure(result, a, vec):
                counts["prime_linalg.matvec_madds"] += a.rows * a.cols
        elif name == "certificate":
            def measure(result, space, target):
                counts["inflation.certificate_vectors"] += len(result.records)
                counts["inflation.vacuous_records"] += sum(
                    1 for rec in result.records if rec.vacuous)
        else:
            return None
        return measure

    def _wrap(self, layer, name, fn):
        if name in SCALAR_HELPERS:
            return self._counted(layer, fn)
        if inspect.isgeneratorfunction(fn):
            return self._streamed(layer, name, fn)
        return self._spanned(layer, name, fn, self._measure(name))

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace the cross-layer names of every ``infker`` module."""
        mods = {layer: importlib.import_module(f"infker.{layer}")
                for layer in LAYERS}
        homes = {f"infker.{layer}": layer for layer in LAYERS}
        wrapped = {}  # one wrapper per function, shared by its importers

        def wrapper_for(layer, name, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(layer, name, fn)
            return wrapped[id(fn)]

        for here, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = homes.get(getattr(obj, "__module__", None))
                if home is not None and home != here:
                    setattr(mod, name, wrapper_for(home, name, obj))
        for layer, name in HOME_WRAPPED:
            fn = getattr(mods[layer], name)
            setattr(mods[layer], name, wrapper_for(layer, name, fn))

        linalg = mods["prime_linalg"]
        for cls_name, name in METHODS:
            cls = getattr(linalg, cls_name)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._from_rows(raw.__func__)))
            else:
                setattr(cls, name, self._spanned(
                    "prime_linalg", f"{cls_name}.{name}", raw, self._measure(name)))

    def _from_rows(self, fn):
        """``Subspace.from_rows`` takes any iterable of rows; they are put
        in a list first so that their number can be counted."""
        spanned = self._spanned("prime_linalg", "Subspace.from_rows", fn)

        @functools.wraps(fn)
        def wrapper(cls, p, ambient_dim, rows):
            rows = list(rows)
            self._elim(len(rows) * ambient_dim, p)
            return spanned(cls, p, ambient_dim, rows)
        return wrapper
