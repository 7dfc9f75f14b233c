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
over basis tuples of the live boundary.  Each step is the same for every
generator: the generator's weight tensor, keyed by its input indices,
replaces the consumed strands of each boundary entry by its outputs.  Input
strands are enumerated lazily, the first time a generator touches them,
which keeps intermediate tables small; a step that would form more than
CELL_CEILING entries is refused before it is built.  A closed diagram
evaluates to a single exact scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product as iproduct

from .cyclo import CycloNum, ZERO, ONE
from .linalg import CELL_CEILING, prune, scale
from .superalgebra import HalfTwistAlgebra

__all__ = [
    "DiagramError",
    "RibbonDiagram",
    "LinearBlock",
    "parse",
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

# Weight tensor per generator; its first ARITY[kind][0] indices are inputs.
WEIGHTS = {
    "node": lambda a: a.node,
    "cap": lambda a: a.cap,
    "cup": lambda a: a.cup,
    "x": lambda a: a.crossing,
    "t+": lambda a: a.twist,
    "t-": lambda a: a.twist_inverse(),
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
        expanded: list[tuple[str, int]] = []  # (kind, position)
        in_needed = 0
        out_pos = 0
        for tok, col in tokens:
            if tok == "eta":
                tok = "cap"
            if tok == "mul":
                # product = cup opening a third leg, then the node
                expanded.append(("cup", out_pos + 2))
                expanded.append(("node", out_pos))
                in_needed += 2
                out_pos += 1
                continue
            if tok not in ARITY:
                raise DiagramError(f"unknown token {tok!r}", lineno, col)
            n_in, n_out = ARITY[tok]
            if tok != "id":
                expanded.append((tok, out_pos))
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
        ops.extend(expanded)
        width = out_pos
        seen_slice = True

    diagram = RibbonDiagram(bottom or 0, tuple(ops), r_power)
    diagram.validate()
    return diagram


class LinearBlock:
    """Exact linear map (x)^n A -> (x)^m A as a sparse coefficient table.

    Keys are (input tuple, output tuple) pairs of basis indices; absent
    entries are zero.  A closed diagram gives n = m = 0 and the table holds a
    single scalar at ((), ()).  The table is kept as given, so it must hold
    no zero entry.
    """

    def __init__(self, n: int, m: int, table: dict):
        self.n = n
        self.m = m
        self.table = table

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
        return LinearBlock(self.n, other.m, prune(out))

    def entries(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        if not isinstance(other, LinearBlock):
            return NotImplemented
        return (self.n, self.m, self.table) == (other.n, other.m, other.table)

    def __repr__(self):
        return f"LinearBlock({self.n}->{self.m}, {len(self.table)} entries)"


def evaluate(diagram: RibbonDiagram, algebra: HalfTwistAlgebra) -> LinearBlock:
    """Contract a diagram over an algebra, slice by slice from the bottom.

    Every generator takes the same step: its weight tensor, keyed by its
    input indices, maps the basis values of the strands it consumes to the
    outputs it puts in their place, each with its weight.  A generator's
    table is built the first time a step uses it, so a diagram without t-
    never inverts the twist.  The result is multiplied by
    vertex_weight ** r_power.  Input strands are materialized lazily, and
    a step that would form more than CELL_CEILING boundary entries is
    refused before any of them is built.
    """
    n, m = diagram.validate()
    dim = algebra.dim
    tables: dict[str, tuple[dict[tuple, list], int]] = {}

    # Slots of the live boundary: an int marks a not-yet-materialized input
    # strand (by input position), None a materialized one whose basis value
    # sits in the live part of the state key.
    slots: list[int | None] = list(range(n))
    state: dict = {((None,) * n, ()): ONE}

    def check(cells: int):
        if cells > CELL_CEILING:
            raise DiagramError(
                f"boundary table would hold {cells} entries, over the ceiling "
                f"of {CELL_CEILING}"
            )

    def bind(pos: int):
        nonlocal state
        check(len(state) * dim)
        k = slots[pos]
        j = sum(1 for s in slots[:pos] if s is None)
        new: dict = {}
        for (ins, live), v in state.items():
            pre, post = live[:j], live[j:]
            for b in range(dim):
                new[(ins[:k] + (b,) + ins[k + 1 :], pre + (b,) + post)] = v
        slots[pos] = None
        state = new

    for kind, pos in diagram.ops:
        n_in, n_out = ARITY[kind]
        for j in range(pos, pos + n_in):
            if slots[j] is not None:
                bind(j)
        if kind not in tables:
            rows_by_input = {}
            for key, w in WEIGHTS[kind](algebra).items():
                rows_by_input.setdefault(key[:n_in], []).append((key[n_in:], w))
            tables[kind] = rows_by_input, max(map(len, rows_by_input.values()), default=0)
        rows_by_input, widest = tables[kind]
        lo = sum(1 for s in slots[:pos] if s is None)
        hi = lo + n_in
        # len(state) * widest bounds the terms this step forms; count them
        # exactly only when the bound passes the ceiling.
        if len(state) * widest > CELL_CEILING:
            check(sum(len(rows_by_input.get(live[lo:hi], ())) for _, live in state))
        new: dict = {}
        for (ins, live), v in state.items():
            rows = rows_by_input.get(live[lo:hi])
            if not rows:
                continue
            pre, post = live[:lo], live[hi:]
            for outs, w in rows:
                key = (ins, pre + outs + post)
                term = v * w
                acc = new.get(key)
                if acc is None:
                    new[key] = term
                else:
                    total = acc + term
                    if total.is_zero():
                        del new[key]
                    else:
                        new[key] = total
        slots[pos : pos + n_in] = [None] * n_out
        state = new

    # Materialize inputs that no generator ever touched (pass-through).
    for pos in range(len(slots)):
        if slots[pos] is not None:
            bind(pos)

    weight = algebra.vertex_weight ** diagram.r_power
    return LinearBlock(n, m, scale(state, weight) if diagram.r_power else state)
