"""The benchmark's workloads: the CLI argv of each op and its answer check.

Every op is a list of CLI arguments for ``infker.cli.main``.  Its check
takes the op's exit code and stdout text and returns an error message,
or None when the answer is right.  Checks run after the pass has been
timed, so they cost nothing in ``wall_s``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    ops: tuple
    frontier: int  # index into ops of the op reported as frontier_s

    def order(self, seed: int) -> list:
        """Op indices in pass order: as listed for seed 0, shuffled by
        the seed otherwise."""
        idx = list(range(len(self.ops)))
        if seed:
            random.Random(seed).shuffle(idx)
        return idx

    def argv(self, index: int, seed: int) -> list:
        return list(self.ops[index].argv) + ["--seed", str(seed)]


def _load(code: int, text: str):
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    return json.loads(text)


def _checked(fn) -> Check:
    """Turn a payload predicate that raises ValueError into a Check."""
    def check(code: int, text: str) -> Optional[str]:
        try:
            fn(_load(code, text))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return check


def _expect(what: str, got, want):
    if got != want:
        raise ValueError(f"{what} is {got!r}, expected {want!r}")


# Gap per degree 0..2m.  Only p <= m may show a gap; (2,3) and (2,4) do.
_GAPS = {
    (2, 2): [0] * 5,
    (3, 2): [0] * 5,
    (5, 2): [0] * 5,
    (7, 2): [0] * 5,
    (2, 3): [0, 0, 0, 0, 1, 0, 0],
    (3, 3): [0] * 7,
    (2, 4): [0, 0, 0, 0, 1, 8, 1, 0, 0],
}


def _vanishing_dim(m: int, r: int) -> int:
    if r < 2:
        return 0
    return comb(2 * m, r - 2) if r <= m else comb(2 * m, r)


def _theorem1(p: int, m: int) -> Op:
    def check(blob):
        degrees = blob["degrees"]
        _expect("degrees", [d["degree"] for d in degrees],
                list(range(2 * m + 1)))
        _expect("gap vector", [d["gap"] for d in degrees], _GAPS[p, m])
        _expect("vanishing dims", [d["vanishing_dim"] for d in degrees],
                [_vanishing_dim(m, r) for r in range(2 * m + 1)])
    return Op(("theorem1", "-p", str(p), "-m", str(m)), _checked(check))


def _certificate(p: int, m: int, cls: str, checked: int, vacuous: int) -> Op:
    def check(blob):
        _expect("overall/checked/vacuous",
                (blob["overall"], blob["checked"], blob["vacuous"]),
                (True, checked, vacuous))
    return Op(("certificate", "-p", str(p), "-m", str(m), "--class", cls),
              _checked(check))


def _sl2(p: int, m: int) -> Op:
    def check(blob):
        _expect("ok/sigma", (blob["ok"], blob["sigma"]), (True, -1))
    return Op(("sl2-check", "-p", str(p), "-m", str(m)), _checked(check))


def _battery() -> Op:
    def check(blob):
        _expect("ok/criteria", (blob["ok"], len(blob["criteria"])), (True, 12))
    return Op(("verify-all", "--grid", "small"), _checked(check))


WORKLOADS = {
    # The researcher's question: gap profiles up to the largest size the
    # Lagrangian catalog allows.  Minors, the stacked kernel per degree
    # and Lagrangian streaming.
    "gap-ladder": Workload(
        ops=tuple(_theorem1(p, m) for p, m in
                  ((2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4))),
        frontier=6,
    ),
    # One class checked at every nonzero vector: thousands of small
    # perps, solves and pure wedges, no catalog and no graded operator.
    # Mixes packed (p = 2) and generic (p = 3) elimination.
    "certify": Workload(
        ops=(
            _certificate(2, 3, "x2^x3^y2^y3", 63, 15),
            _certificate(3, 3, "x2^x3^y2^y3", 728, 80),
            _certificate(2, 4, "x2^x3^x4^y2^y3^y4", 255, 63),
        ),
        frontier=2,
    ),
    # The graded operator triple: dense matrix products, no minors and
    # no catalogs.
    "triple": Workload(
        ops=tuple(_sl2(p, m) for p, m in ((2, 4), (7, 4), (3, 5))),
        frontier=2,
    ),
    # The developer's acceptance battery: span growth by append and
    # re-reduce, the extraspecial group and transvection closures.
    "battery": Workload(ops=(_battery(),), frontier=0),
}
