"""Ribbon diagram DSL: parsing, validation, and exact evaluation.

A diagram is a bottom-to-top stack of slices over the five generators

    node   3 -> 0   weight node_abc          x    2 -> 2   weight crossing_ab^cd
    cap    2 -> 0   weight cap_ab            t+   1 -> 1   weight twist_a^b
    cup    0 -> 2   weight cup^ab            t-   1 -> 1   weight of the inverse twist

plus the pass-through token id.  The line-oriented grammar:

    diagram   := header? directive? slice*
    header    := "R" <nonneg int>          # power of the vertex weight
    directive := "bottom" <nonneg int>     # pins the input width
    slice     := token+                    # tokens fill strands left to right
    token     := "id" | "cap" | "cup" | "node" | "x" | "t+" | "t-" | macros

Slices are separated by newlines or "/"; "#" starts a comment.  Macro tokens
expand before validation: "mul" (2 -> 1, a node fed by a cup) and "eta"
(alias of cap).  Every slice must account for the full strand width, so the
input width of a diagram is inferred from its first slice unless pinned.

The parser normalizes each slice to at most one generator per elementary
step; evaluation sweeps these steps bottom to top, carrying a sparse table
over basis tuples of the live boundary.  Input strands are enumerated lazily,
the first time a generator touches them, which keeps intermediate tables
small.  A closed diagram evaluates to a single exact scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product as iproduct

from .cyclo import CycloNum, ZERO, ONE
from .linalg import CELL_CEILING
from .superalgebra import HalfTwistAlgebra

__all__ = [
    "DiagramError",
    "RibbonDiagram",
    "LinearBlock",
    "parse",
    "validate",
    "evaluate",
    "compose",
    "expand_left_twists",
]

# (inputs, outputs) per elementary generator
ARITY = {
    "node": (3, 0),
    "cap": (2, 0),
    "cup": (0, 2),
    "x": (2, 2),
    "t+": (1, 1),
    "t-": (1, 1),
    "id": (1, 1),
}


class DiagramError(ValueError):
    """Parse or validation failure, with position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RibbonDiagram:
    """Normalized diagram: input width, elementary (kind, position) steps,
    and the number of internal triangulation vertices."""

    bottom: int
    ops: tuple[tuple[str, int], ...]
    r_power: int = 0

    def widths(self) -> list[int]:
        """Boundary widths before each step and at the top; raises on
        inconsistent chains."""
        w = self.bottom
        out = [w]
        for k, (kind, pos) in enumerate(self.ops):
            n_in, n_out = ARITY[kind]
            if pos < 0:
                raise DiagramError(f"step {k}: negative strand position {pos}")
            if pos + n_in > w:
                raise DiagramError(
                    f"step {k}: {kind} at strand {pos} needs {n_in} strand(s) "
                    f"but only {w} are present"
                )
            w += n_out - n_in
            out.append(w)
        return out

    @property
    def top(self) -> int:
        return self.widths()[-1]

    def validate(self) -> tuple[int, int]:
        return self.bottom, self.widths()[-1]


def validate(diagram: RibbonDiagram) -> tuple[int, int]:
    """Boundary widths (n, m) of a diagram, or a DiagramError."""
    return diagram.validate()


def compose(d1: RibbonDiagram, d2: RibbonDiagram) -> RibbonDiagram:
    """Stack d2 on top of d1; widths must chain and vertex counts add."""
    top1 = d1.top
    if top1 != d2.bottom:
        raise DiagramError(
            f"cannot compose: first diagram ends with {top1} strand(s), "
            f"second expects {d2.bottom}"
        )
    return RibbonDiagram(d1.bottom, d1.ops + d2.ops, d1.r_power + d2.r_power)


def expand_left_twists(d: RibbonDiagram) -> RibbonDiagram:
    """Replace every left twist by three right twists (a regular homotopy)."""
    ops = []
    for kind, pos in d.ops:
        if kind == "t-":
            ops.extend([("t+", pos)] * 3)
        else:
            ops.append((kind, pos))
    return RibbonDiagram(d.bottom, tuple(ops), d.r_power)


_TOKEN_RE = re.compile(r"\S+")


def parse(text: str) -> RibbonDiagram:
    """Parse DSL text into a normalized diagram.

    Slices are read strictly: the tokens of each slice must consume exactly
    the current strand width, with the first slice fixing the input width
    unless a "bottom" directive pinned it.
    """
    chunks: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col_base = 0
        for piece in line.split("/"):
            tokens = [(m.group(), col_base + m.start() + 1) for m in _TOKEN_RE.finditer(piece)]
            if tokens:
                chunks.append((lineno, tokens))
            col_base += len(piece) + 1

    r_power = 0
    bottom: int | None = None
    ops: list[tuple[str, int]] = []
    width: int | None = None
    seen_slice = False
    seen_header = False

    for lineno, tokens in chunks:
        head, head_col = tokens[0]
        if head == "R":
            if seen_header or seen_slice:
                raise DiagramError("R header must come first", lineno, head_col)
            if len(tokens) != 2 or not tokens[1][0].isdigit():
                raise DiagramError("R header expects one nonnegative integer", lineno, head_col)
            r_power = int(tokens[1][0])
            seen_header = True
            continue
        if head == "bottom":
            if seen_slice:
                raise DiagramError("bottom directive must precede slices", lineno, head_col)
            if len(tokens) != 2 or not tokens[1][0].isdigit():
                raise DiagramError("bottom expects one nonnegative integer", lineno, head_col)
            bottom = int(tokens[1][0])
            width = bottom
            continue

        # One slice: expand tokens left to right.
        expanded: list[tuple[str, int, int]] = []  # (kind, position, col)
        in_needed = 0
        out_pos = 0
        for tok, col in tokens:
            if tok == "eta":
                tok = "cap"
            if tok == "mul":
                # product = cup opening a third leg, then the node
                expanded.append(("cup", out_pos + 2, col))
                expanded.append(("node", out_pos, col))
                in_needed += 2
                out_pos += 1
                continue
            if tok not in ARITY:
                raise DiagramError(f"unknown token {tok!r}", lineno, col)
            n_in, n_out = ARITY[tok]
            if tok != "id":
                expanded.append((tok, out_pos, col))
            in_needed += n_in
            out_pos += n_out

        if width is None:
            width = in_needed
            bottom = in_needed
        if in_needed != width:
            raise DiagramError(
                f"slice consumes {in_needed} strand(s) but {width} are present",
                lineno,
                tokens[0][1],
            )
        for kind, pos, col in expanded:
            ops.append((kind, pos))
        n_out_total = out_pos
        width = n_out_total
        seen_slice = True

    diagram = RibbonDiagram(bottom or 0, tuple(ops), r_power)
    diagram.validate()
    return diagram


class LinearBlock:
    """Exact linear map (x)^n A -> (x)^m A as a sparse coefficient table.

    Keys are (input tuple, output tuple) pairs of basis indices; absent
    entries are zero.  A closed diagram gives n = m = 0 and the table holds a
    single scalar at ((), ()).
    """

    def __init__(self, n: int, m: int, table: dict):
        self.n = n
        self.m = m
        self.table = {k: v for k, v in table.items() if not v.is_zero()}

    @classmethod
    def identity(cls, width: int, dim: int) -> "LinearBlock":
        table = {
            (t, t): ONE for t in iproduct(range(dim), repeat=width)
        }
        return cls(width, width, table)

    def scalar(self) -> CycloNum:
        if self.n or self.m:
            raise ValueError("scalar() needs a closed (0 -> 0) block")
        return self.table.get(((), ()), ZERO)

    def then(self, other: "LinearBlock") -> "LinearBlock":
        """Composite self followed by other."""
        if self.m != other.n:
            raise ValueError(
                f"cannot compose {self.n}->{self.m} with {other.n}->{other.m}"
            )
        by_input: dict[tuple, list] = {}
        for (i2, o2), v2 in other.table.items():
            by_input.setdefault(i2, []).append((o2, v2))
        out: dict = {}
        for (i1, o1), v1 in self.table.items():
            for o2, v2 in by_input.get(o1, ()):
                key = (i1, o2)
                acc = out.get(key)
                term = v1 * v2
                out[key] = term if acc is None else acc + term
        return LinearBlock(self.n, other.m, out)

    def apply(self, in_tuple: tuple[int, ...]) -> dict:
        out: dict = {}
        for (i, o), v in self.table.items():
            if i == in_tuple:
                out[o] = out.get(o, ZERO) + v
        return out

    def entries(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        if not isinstance(other, LinearBlock):
            return NotImplemented
        return (self.n, self.m, self.table) == (other.n, other.m, other.table)

    def __repr__(self):
        return f"LinearBlock({self.n}->{self.m}, {len(self.table)} entries)"


def evaluate(
    diagram: RibbonDiagram,
    algebra: HalfTwistAlgebra,
    max_width: int | None = None,
    cell_ceiling: int = CELL_CEILING,
) -> LinearBlock:
    """Contract a diagram over an algebra, slice by slice from the bottom.

    The result is multiplied by vertex_weight ** r_power.  Input strands are
    materialized lazily; the overflow guard rejects any evaluation whose
    sparse boundary table would exceed the configurable cell ceiling, and
    max_width rejects diagrams whose boundary ever grows past it.
    """
    n, m = diagram.validate()
    dim = algebra.dim
    if max_width is not None:
        for w in diagram.widths():
            if w > max_width:
                raise DiagramError(
                    f"boundary width {w} exceeds the limit {max_width}"
                )

    twist_rows: dict[int, list] = {}
    for (a, b), v in algebra.twist.items():
        twist_rows.setdefault(a, []).append((b, v))
    twist_inv_rows: dict[int, list] | None = None
    cross_rows: dict[tuple[int, int], list] = {}
    for (a, b, c, d), v in algebra.crossing.items():
        cross_rows.setdefault((a, b), []).append(((c, d), v))
    cup_items = sorted(algebra.cup.items())
    cap = algebra.cap
    node = algebra.node

    # Slots of the live boundary: an int marks a not-yet-materialized input
    # strand (by input position), None a materialized one whose basis value
    # sits in the live part of the state key.
    slots: list[int | None] = list(range(n))
    state: dict = {((None,) * n, ()): ONE}

    def guard(table):
        if len(table) > cell_ceiling:
            raise DiagramError(
                f"boundary table exceeds {cell_ceiling} cells; raise the "
                "ceiling or simplify the diagram"
            )
        return table

    def bind(pos: int):
        nonlocal state
        k = slots[pos]
        assert k is not None
        j = sum(1 for s in slots[:pos] if s is None)
        new: dict = {}
        for (ins, live), v in state.items():
            pre, post = live[:j], live[j:]
            for b in range(dim):
                ins2 = ins[:k] + (b,) + ins[k + 1 :]
                new[(ins2, pre + (b,) + post)] = v
        slots[pos] = None
        state = guard(new)

    def accumulate(store, key, term):
        acc = store.get(key)
        if acc is None:
            store[key] = term
        else:
            total = acc + term
            if total.is_zero():
                del store[key]
            else:
                store[key] = total

    for kind, pos in diagram.ops:
        n_in, n_out = ARITY[kind]
        for j in range(pos, pos + n_in):
            if slots[j] is not None:
                bind(j)
        lstart = sum(1 for s in slots[:pos] if s is None)
        new: dict = {}
        if kind == "cap":
            for (ins, live), v in state.items():
                w = cap.get((live[lstart], live[lstart + 1]))
                if w is None:
                    continue
                accumulate(new, (ins, live[:lstart] + live[lstart + 2 :]), v * w)
        elif kind == "node":
            for (ins, live), v in state.items():
                w = node.get(live[lstart : lstart + 3])
                if w is None:
                    continue
                accumulate(new, (ins, live[:lstart] + live[lstart + 3 :]), v * w)
        elif kind == "cup":
            for (ins, live), v in state.items():
                pre, post = live[:lstart], live[lstart:]
                for (a, b), w in cup_items:
                    accumulate(new, (ins, pre + (a, b) + post), v * w)
        elif kind == "x":
            for (ins, live), v in state.items():
                rows = cross_rows.get(live[lstart : lstart + 2])
                if not rows:
                    continue
                pre, post = live[:lstart], live[lstart + 2 :]
                for (c, d), w in rows:
                    accumulate(new, (ins, pre + (c, d) + post), v * w)
        elif kind in ("t+", "t-"):
            if kind == "t-" and twist_inv_rows is None:
                twist_inv_rows = {}
                for (a, b), v in algebra.twist_inverse().items():
                    twist_inv_rows.setdefault(a, []).append((b, v))
            rows_by_a = twist_rows if kind == "t+" else twist_inv_rows
            for (ins, live), v in state.items():
                rows = rows_by_a.get(live[lstart])
                if not rows:
                    continue
                pre, post = live[:lstart], live[lstart + 1 :]
                for b, w in rows:
                    accumulate(new, (ins, pre + (b,) + post), v * w)
        else:  # pragma: no cover
            raise DiagramError(f"unhandled generator {kind!r}")
        del slots[pos : pos + n_in]
        slots[pos:pos] = [None] * n_out
        state = guard(new)

    # Materialize inputs that no generator ever touched (pass-through).
    for pos in range(len(slots)):
        if slots[pos] is not None:
            bind(pos)

    weight = algebra.vertex_weight ** diagram.r_power
    table = {
        (ins, live): v * weight for (ins, live), v in state.items()
    }
    return LinearBlock(n, m, table)
