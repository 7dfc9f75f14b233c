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
over flat keys: the basis values of the inputs bound so far, then those of
the live strands.  Each step is the same for every generator, one linalg
probe: the generator's weight tensor, indexed by its inputs that are
already live, replaces the consumed strands of each boundary entry by its
outputs.  An input strand is bound inside the step that first consumes it:
the weight's values on the inputs not yet bound are appended to the bound
part of the key, so the step forms only entries that have a row.  A step
forms each distinct product of an entry value and a weight once (see
linalg.product_table).  A pass-through strand, which no generator touches,
takes the same step at the end as the generator id, whose weight is delta.
A step that would form more than CELL_CEILING entries is refused before it
is built.  The result is a LinearBlock keyed the same way, n inputs then m
outputs, so blocks compose by one einsum; a closed diagram evaluates to a
single exact scalar.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct

from .cyclo import CycloNum, ZERO, ONE
from .linalg import CELL_CEILING, delta, einsum, index, key_getter, probe, scale
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
    "id": lambda a: delta(a.dim),
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
    and the number of internal triangulation vertices.

    A frozen record, checked once when built: a negative width or power, an
    unknown generator or an inconsistent chain raises DiagramError.  widths
    holds the boundary widths before each step and at the top.
    """

    bottom: int
    ops: tuple[tuple[str, int], ...]
    r_power: int = 0
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bottom < 0:
            raise DiagramError(f"negative input width {self.bottom}")
        if self.r_power < 0:
            raise DiagramError(f"negative vertex weight power {self.r_power}")
        w = self.bottom
        out = [w]
        for k, (kind, pos) in enumerate(self.ops):
            if kind not in ARITY:
                raise DiagramError(f"step {k}: unknown generator {kind!r}")
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
        object.__setattr__(self, "widths", tuple(out))

    @property
    def top(self) -> int:
        return self.widths[-1]


def compose(d1: RibbonDiagram, d2: RibbonDiagram) -> RibbonDiagram:
    """Stack d2 on top of d1; widths must chain and vertex counts add."""
    if d1.top != d2.bottom:
        raise DiagramError(
            f"cannot compose: first diagram ends with {d1.top} strand(s), "
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
            if seen_header or seen_slice or bottom is not None:
                raise DiagramError("R header must come first", lineno, head_col)
            if len(tokens) != 2 or not tokens[1][0].isdecimal():
                raise DiagramError("R header expects one nonnegative integer", lineno, head_col)
            r_power = int(tokens[1][0])
            seen_header = True
            continue
        if head == "bottom":
            if seen_slice:
                raise DiagramError("bottom directive must precede slices", lineno, head_col)
            if bottom is not None:
                raise DiagramError("bottom directive given twice", lineno, head_col)
            if len(tokens) != 2 or not tokens[1][0].isdecimal():
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

    return RibbonDiagram(bottom or 0, tuple(ops), r_power)


class LinearBlock:
    """Exact linear map (x)^n A -> (x)^m A as a sparse coefficient table.

    The table is a SparseTensor of rank n + m: each key holds n input basis
    indices, then m output ones; absent entries are zero.  A closed diagram
    gives n = m = 0 and the table holds a single scalar at ().  The table is
    kept as given, so it must hold no zero entry.
    """

    def __init__(self, n: int, m: int, table: dict):
        self.n = n
        self.m = m
        self.table = table

    @classmethod
    def identity(cls, width: int, dim: int) -> "LinearBlock":
        table = {t + t: ONE for t in iproduct(range(dim), repeat=width)}
        return cls(width, width, table)

    def scalar(self) -> CycloNum:
        if self.n or self.m:
            raise ValueError("scalar() needs a closed (0 -> 0) block")
        return self.table.get((), ZERO)

    def then(self, other: "LinearBlock") -> "LinearBlock":
        """Composite self followed by other: one einsum over self's outputs,
        so it raises ContractionTooLarge past CELL_CEILING."""
        if self.m != other.n:
            raise ValueError(
                f"cannot compose {self.n}->{self.m} with {other.n}->{other.m}"
            )
        spec = _then_spec(self.n, self.m, other.m)
        return LinearBlock(self.n, other.m, einsum(spec, self.table, other.table))

    def entries(self):
        """(input tuple, output tuple), value pairs in sorted order."""
        n = self.n
        return [((k[:n], k[n:]), v) for k, v in sorted(self.table.items())]

    def __eq__(self, other):
        if not isinstance(other, LinearBlock):
            return NotImplemented
        return (self.n, self.m, self.table) == (other.n, other.m, other.table)

    def __repr__(self):
        return f"LinearBlock({self.n}->{self.m}, {len(self.table)} entries)"


@cache
def _then_spec(n: int, m: int, k: int) -> str:
    """The einsum spec of an n -> m block followed by an m -> k one."""
    letters = "".join(chr(ord("a") + i) for i in range(n + m + k))
    a, b, c = letters[:n], letters[n : n + m], letters[n + m :]
    return f"{a}{b},{b}{c}->{a}{c}"


def evaluate(diagram: RibbonDiagram, algebra: HalfTwistAlgebra) -> LinearBlock:
    """Contract a diagram over an algebra, slice by slice from the bottom.

    The boundary table is keyed flat: the basis values of the inputs bound so
    far, in the order they were bound, then those of the live strands.  Each
    step is one linalg.probe of the generator's weight tensor, indexed by its
    inputs that are already live (_rows): it appends the values of the
    inputs it binds and puts the generator's outputs in place of the strands
    it consumes.  Strands that no generator touches take the same step at
    the end, as the generator id with weight delta.  Each step is checked
    against CELL_CEILING on the exact number of entries it forms, before any
    is built.  The row indices are cached on the algebra, so a diagram
    without t- never inverts the twist.  Inputs bound out of order are put
    in input order in one pass at the end, and the result is multiplied by
    vertex_weight ** r_power, which is refused past Python's int digit limit
    (_weight_power).
    """
    n, m = diagram.bottom, diagram.top

    # Slots of the live boundary: an int marks an input strand not yet bound
    # (by input position), None a live strand whose basis value sits in the
    # live part of the state key.  The bound part holds the bound inputs'
    # values in the order they were bound, which `order` records.
    slots: list[int | None] = list(range(n))
    order: list[int] = []
    state: dict = {(): ONE}

    def steps():
        yield from diagram.ops
        # Strands that no generator touched pass through an id step.
        for pos, s in enumerate(slots):
            if s is not None:
                yield "id", pos

    for kind, pos in steps():
        n_in, n_out = ARITY[kind]
        window = slots[pos : pos + n_in]
        unbound = tuple([s is not None for s in window])
        rows, n_classes, widest, n_rows = _rows(algebra, kind, unbound)
        bound = len(order)
        lo = bound + slots[:pos].count(None)
        hi = lo + window.count(None)
        live_key, out_key = _step_keys(bound, lo, hi, bound + slots.count(None), unbound, n_out)
        # len(state) * widest bounds the terms this step forms; count them
        # exactly only when the bound passes the ceiling.
        if len(state) * widest > CELL_CEILING:
            cells = sum(len(rows.get(k, ())) for k in map(live_key, state))
            if cells > CELL_CEILING:
                raise DiagramError(
                    f"boundary table would hold {cells} entries, over the ceiling "
                    f"of {CELL_CEILING}"
                )
        state = probe(state, live_key, rows, n_classes, n_rows, out_key)
        order += [s for s in window if s is not None]
        slots[pos : pos + n_in] = [None] * n_out

    if order != sorted(order):
        # Two or more inputs, bound out of order: put them in input order.
        by_input = key_getter([*map(order.index, range(n)), *range(n, n + m)])
        state = {by_input(k): v for k, v in state.items()}

    if diagram.r_power:
        state = scale(state, _weight_power(algebra.vertex_weight, diagram.r_power))
    return LinearBlock(n, m, state)


def _weight_power(weight: CycloNum, power: int) -> CycloNum:
    """weight ** power by squaring, refused with ValueError as soon as an
    integer of an intermediate power has more digits than Python writes as
    text (sys.get_int_max_str_digits(); no check when that is 0).  Such a
    power could not be printed, and squaring on past it exhausts memory.
    """
    limit = sys.get_int_max_str_digits()
    # An integer of more than limit digits has more than 3.32 * limit bits.
    bits = 3.32 * limit

    def checked(x: CycloNum) -> CycloNum:
        if limit and any(i.bit_length() > bits and abs(i) >= 10**limit for i in x._v):
            raise ValueError(
                f"Exceeds the limit ({limit} digits) for integer string conversion "
                f"in R^{power}; use sys.set_int_max_str_digits() to increase the limit"
            )
        return x

    result, base, rest = ONE, weight, power
    while True:
        if rest & 1:
            result = checked(result * base)
        rest >>= 1
        if not rest:
            return result
        base = checked(base * base)


@cache
def _step_keys(bound: int, lo: int, hi: int, width: int, unbound: tuple, n_out: int):
    """(live key, output key) getters of one step's layout.

    A state key of length width holds bound input values, then live
    strands; the step consumes the live strands at lo:hi and the inputs
    flagged in unbound.  The live key reads the consumed live values; the
    output key reads, off a state key followed by a weight key, the bound
    values, the values of the inputs the step binds, the live strands left
    of the step, the weight's outputs and the live strands right of it.
    """
    n_in = len(unbound)
    return key_getter(range(lo, hi)), key_getter([
        *range(bound),
        *(width + i for i, u in enumerate(unbound) if u),
        *range(bound, lo),
        *range(width + n_in, width + n_in + n_out),
        *range(hi, width),
    ])


def _rows(algebra: HalfTwistAlgebra, kind: str, unbound: tuple[bool, ...]):
    """A generator's weight tensor, indexed by its live inputs.

    unbound flags which of the generator's inputs are not yet bound; the
    index (linalg.index) lists each weight entry under the values of the
    other inputs.  Returns (index, n_classes, widest, n_rows): the number
    of distinct weights, the length of the longest list and the number of
    entries.  The index is a view of the algebra's tensors, which never
    change, so it is built once per (kind, unbound) and kept by the
    algebra (HalfTwistAlgebra.cached).
    """

    def build():
        weights = WEIGHTS[kind](algebra)
        live_at = [i for i, u in enumerate(unbound) if not u]
        rows, n_classes = index(weights, key_getter(live_at))
        widest = max(map(len, rows.values()), default=0)
        return rows, n_classes, widest, len(weights)

    return algebra.cached(("ribbon_rows", kind, unbound), build)
