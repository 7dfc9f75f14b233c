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


# The oracle for the axiom entries that read the algebra's cached product
# tensor P_abf = C_abe B^ef or full twist phi_a^b = lam_ac^bd B^ce B_de: the
# same identities with every tensor written out as an einsum of the weights,
# as id -> sides(a, einsum) in the form of axioms.AXIOMS.
WRITTEN_OUT_AXIOMS = {
    # C_abd B^dc = B^cd C_dab
    "a2": lambda a, einsum: (
        einsum("abd,dc->abc", a.node, a.cup),
        einsum("cd,dab->abc", a.cup, a.node),
    ),
    # C_abe B^ef C_fcd = C_bce B^ef C_afd
    "a3": lambda a, einsum: (
        einsum("abe,ef,fcd->abcd", a.node, a.cup, a.node),
        einsum("bce,ef,afd->abcd", a.node, a.cup, a.node),
    ),
    # C_abc = R C_ade B^df C_fbg B^gh C_ihc B^ei, R on the last cup
    "a4": lambda a, einsum: (
        einsum("abc->abc", a.node),
        einsum(
            "ade,df,fbg,gh,ihc,ei->abc",
            a.node, a.cup, a.node, a.cup, a.node, scale(a.cup, a.vertex_weight),
        ),
    ),
    # B^cd B_ce lam_da^eb = lam_ac^bd B^ce B_de
    "a7": lambda a, einsum: (
        einsum("cd,ce,daeb->ab", a.cup, a.cap, a.crossing),
        einsum("acbd,ce,de->ab", a.crossing, a.cup, a.cap),
    ),
    # tau_a^c tau_c^b = lam_ac^bd B^ce B_de
    "a13": lambda a, einsum: (
        einsum("ac,cb->ab", a.twist, a.twist),
        einsum("acbd,ce,de->ab", a.crossing, a.cup, a.cap),
    ),
}


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
