import functools

from halftwist import ZERO, CycloNum, RibbonDiagram, parse_algebra, projector, state_space
from halftwist.linalg import einsum, scale
from halftwist.ribbon import ARITY
from halftwist.superalgebra import AlgebraElement


# The acceptance axiom suite: constructor specs of dims 1-16.
AXIOM_SUITE_SPECS = tuple(
    f"cl({p},{q})" for total in range(5) for p in range(total + 1) for q in [total - p]
) + (
    "clc(0)",
    "clc(1)",
    "clc(2)",
    "mat(1|1)",
    "mat(2|1)",
    "cl(1,0) (x) cl(0,1)",
    "cl(1,0) (x) mat(1|1)",
    "clc(1) (x) cl(1,0)",
    "cl(2,0) (x) cl(2,0)",
    "cl(1,0) (+) cl(1,0)",
    "cl(1,0) (+) cl(0,1)",
    "cl(2,0) (+) mat(2|0)",
)


@functools.lru_cache(maxsize=None)
def algebra(spec: str, alpha: str = "1"):
    """Cached constructor-algebra factory; algebras are never mutated."""
    return parse_algebra(spec, default_alpha=CycloNum.parse(alpha))


def random_diagram(rng, bottom: int, max_ops: int = 6, max_width: int = 4):
    """A random valid diagram with small boundary widths."""
    ops = []
    width = bottom
    for _ in range(rng.randrange(1, max_ops + 1)):
        choices = []
        if width >= 3:
            choices.append("node")
        if width >= 2:
            choices.extend(["cap", "x"])
        if width >= 1:
            choices.extend(["t+", "t-"])
        if width < max_width:
            choices.append("cup")
        if not choices:
            break
        kind = rng.choice(choices)
        n_in, n_out = ARITY[kind]
        pos = rng.randrange(width - n_in + 1) if width > n_in else 0
        ops.append((kind, pos))
        width += n_out - n_in
    return RibbonDiagram(bottom, tuple(ops), rng.randrange(3))


def assert_projects_onto_state_space(a, sector):
    """The sector projector is idempotent, fixes every state and has trace dim V_e."""
    block = projector(a, sector)
    space = state_space(a, sector)
    assert block.then(block) == block
    for v in space.basis:
        image = [ZERO] * a.dim
        for (x, y), w in block.table.items():
            image[y] = image[y] + v.coeffs[x] * w
        assert a.element(image) == v
    trace = sum((block.table.get((x, x), ZERO) for x in range(a.dim)), start=ZERO)
    assert trace == CycloNum(space.dim)


def twisted_projector(a, e1, e2):
    """P_e1 followed by the full twist when e2 is R: its trace is the torus
    value Z(e1, e2)."""
    op = projector(a, e1).table
    return einsum("xz,zy->xy", op, a.full_twist()) if e2 == "R" else op


def projector_handle(a, e1, e2):
    """The handle state read off the cylinder projector, the oracle for
    `handle_state`: R^-1 sum_ab B^ab m(O(e_b), e_a) with O the twisted
    projector, whose capped closure is the trace of O by cyclicity."""
    vec = einsum("ab,by,yax->x", a.cup, twisted_projector(a, e1, e2), a.product_tensor())
    return AlgebraElement(a, scale(vec, a.vertex_weight.inverse()))
