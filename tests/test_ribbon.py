import random
import sys
from dataclasses import FrozenInstanceError
from itertools import product as iproduct

import pytest

from halftwist import (
    CycloNum,
    LinearBlock,
    ONE,
    RibbonDiagram,
    ZERO,
    ZETA,
    compose,
    custom_from_tensors,
    evaluate,
    expand_left_twists,
    parse,
    parse_algebra,
    zeta_pow,
)
from halftwist import linalg, ribbon
from halftwist.linalg import ContractionTooLarge
from halftwist.ribbon import DiagramError
from conftest import algebra, random_diagram

RP2_TEXT = "R 1 / cup / id t+ / cap"


def test_parse_projective_plane():
    d = parse(RP2_TEXT)
    assert d.r_power == 1
    assert d.bottom == 0
    assert (d.bottom, d.top) == (0, 0)
    assert d.ops == (("cup", 0), ("t+", 1), ("cap", 0))


def test_parse_empty_and_identity():
    empty = parse("")
    assert (empty.bottom, empty.top) == (0, 0)
    assert evaluate(empty, algebra("cl(1,0)")).scalar() == ONE
    ident = parse("bottom 2\nid id")
    assert (ident.bottom, ident.top) == (2, 2)
    assert evaluate(ident, algebra("cl(1,0)")) == LinearBlock.identity(2, 2)


def test_parse_errors_carry_position():
    with pytest.raises(DiagramError) as err:
        parse("cup\nid flub")
    assert err.value.line == 2 and err.value.col == 4
    with pytest.raises(DiagramError) as err:
        parse("bottom 0\ncap")
    assert err.value.line == 2
    with pytest.raises(DiagramError):
        parse("bottom 2 / node")
    # R header after a slice is rejected
    with pytest.raises(DiagramError):
        parse("cup\nR 1")


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("bottom 1 / R 2 / id", "R header must come first", 12),
        ("bottom 2 / bottom 1 / id", "bottom directive given twice", 12),
    ],
)
def test_header_grammar_is_enforced(text, message, col):
    # header? directive? slice*: no R after bottom, and one bottom at most.
    with pytest.raises(DiagramError, match=message) as err:
        parse(text)
    assert err.value.line == 1 and err.value.col == col


@pytest.mark.parametrize("text", ["R \u00b2\ncup / cap", "bottom \u00b2"])
def test_header_integers_must_be_decimal(text):
    # A superscript two passes str.isdigit but int() refuses it.
    with pytest.raises(DiagramError, match="nonnegative integer") as err:
        parse(text)
    assert err.value.line == 1 and err.value.col == 1


def test_validate_rejects_bad_programmatic_ops():
    # A hand-built diagram is checked when it is built.
    with pytest.raises(DiagramError, match="step 0: cap at strand 0 needs 2 strand"):
        RibbonDiagram(1, (("cap", 0),))
    with pytest.raises(DiagramError, match="step 0: cup at strand 1 needs 0 strand"):
        RibbonDiagram(0, (("cup", 1),))
    with pytest.raises(DiagramError, match="step 0: negative strand position -1"):
        RibbonDiagram(1, (("t+", -1),))


# The fields of a hand-built diagram and the DiagramError it raises when built.
@pytest.mark.parametrize(
    "diagram, message",
    [
        ((1, (("foo", 0),)), "unknown generator 'foo'"),
        ((-1, ()), "negative input width"),
        ((0, (("cup", 0), ("cap", 0)), -1), "negative vertex weight power"),
    ],
)
def test_hand_built_diagrams_are_validated(diagram, message):
    with pytest.raises(DiagramError, match=message):
        RibbonDiagram(*diagram)


# Fields of the wrong type and the TypeError, naming the field, that they
# raise when built.  Unchecked, the float of the first would fail only
# inside evaluate, and the list of the second only at hash().
@pytest.mark.parametrize(
    "diagram, message",
    [
        ((1.0, (("t+", 0),)), r"bottom 1\.0 is not an int"),
        ((1, [("t+", 0)]), r"ops \[\('t\+', 0\)\] is not a tuple"),
        ((1, (("t+", 0),), "1"), "r_power '1' is not an int"),
        ((1, (("t+", 0.0),)), r"ops step 0 \('t\+', 0\.0\) is not a \(str, int\) pair"),
        ((1, (("t+", 0), (0, 0))), r"ops step 1 \(0, 0\) is not a \(str, int\) pair"),
        ((1, ((["t+"], 0),)), r"ops step 0 \(\['t\+'\], 0\) is not a \(str, int\) pair"),
        ((1, (["t+", 0],)), r"ops step 0 \['t\+', 0\] is not a \(str, int\) pair"),
        ((1, (("t+", 0, 0),)), r"ops step 0 \('t\+', 0, 0\) is not a \(str, int\) pair"),
    ],
)
def test_hand_built_diagrams_refuse_wrong_types(diagram, message):
    with pytest.raises(TypeError, match=message):
        RibbonDiagram(*diagram)


def test_compose_validates_the_upper_diagram():
    with pytest.raises(DiagramError, match="unknown generator"):
        compose(parse("bottom 1 / t+"), RibbonDiagram(1, (("foo", 0),)))


@pytest.mark.parametrize("name", ["bottom", "ops", "r_power", "widths"])
def test_diagram_fields_cannot_be_rebound(name):
    d = parse(RP2_TEXT)
    with pytest.raises(FrozenInstanceError):
        setattr(d, name, getattr(d, name))


@pytest.mark.parametrize("name", ["n", "m", "table"])
def test_block_fields_cannot_be_rebound(name):
    block = LinearBlock.identity(1, 2)
    with pytest.raises(FrozenInstanceError):
        setattr(block, name, getattr(block, name))
    assert block == LinearBlock(1, 1, {(0, 0): ONE, (1, 1): ONE})
    with pytest.raises(TypeError, match="unhashable"):
        hash(block)


def test_projective_plane_values():
    a = algebra("cl(1,0)")
    assert evaluate(parse(RP2_TEXT), a).scalar() == ZETA
    three = parse("R 1 / cup / id t+ / id t+ / id t+ / cap")
    assert evaluate(three, a).scalar() == zeta_pow(7)


def test_sphere_value():
    a = algebra("cl(1,0)")
    assert evaluate(parse("R 2 / cup / cap"), a).scalar() == ONE


def test_loops_measure_dimensions():
    plain = parse("cup / cap")
    full_twist_one_strand = parse("cup / id t+ / id t+ / cap")
    for spec, dim, sdim in [
        ("cl(1,0)", 2, 0),
        ("mat(1|1)", 4, 0),
        ("mat(2|1)", 9, 1),
    ]:
        a = algebra(spec)
        assert evaluate(plain, a).scalar() == CycloNum(dim)
        assert evaluate(full_twist_one_strand, a).scalar() == CycloNum(sdim)


def test_mul_macro_is_the_product():
    a = algebra("mat(1|1)")
    block = evaluate(parse("bottom 2\nmul"), a)
    product = a.product_tensor()
    assert block.table == product
    # eta alias
    assert evaluate(parse("bottom 2\neta"), a).table == a.cap


def test_left_twist_is_inverse_and_triple():
    a = algebra("cl(1,0)")
    d = parse("R 1 / cup / id t- / cap")
    assert evaluate(d, a).scalar() == zeta_pow(7)
    assert evaluate(expand_left_twists(d), a).scalar() == zeta_pow(7)


def test_left_twist_triple_property_randomized():
    rng = random.Random(23)
    a = algebra("mat(1|1)")
    found = 0
    while found < 10:
        d = random_diagram(rng, bottom=rng.randrange(3))
        if not any(kind == "t-" for kind, _ in d.ops):
            continue
        found += 1
        assert evaluate(d, a) == evaluate(expand_left_twists(d), a)


def test_compose_halves():
    a = algebra("cl(1,0)")
    low = parse("R 1 / cup")
    high = parse("bottom 2 / id t+ / cap")
    d = compose(low, high)
    assert d.r_power == 1
    assert evaluate(d, a).scalar() == ZETA


def test_then_drops_cancelled_entries():
    first = LinearBlock(1, 1, {(0, 0): ONE, (0, 1): ONE})
    second = LinearBlock(1, 1, {(0, 0): ONE, (1, 0): -ONE})
    assert first.then(second).table == {}


def test_then_refuses_a_join_past_the_ceiling(monkeypatch):
    a = algebra("cl(1,1)")
    block = LinearBlock.identity(2, a.dim)
    assert len(block.then(block).table) == 16
    monkeypatch.setattr(linalg, "CELL_CEILING", 15)
    with pytest.raises(ContractionTooLarge):
        block.then(block)


def test_block_table_is_a_flat_tensor():
    # A block's table is keyed by n inputs then m outputs, like any tensor.
    a = algebra("mat(1|1)")
    assert evaluate(parse("bottom 1 / t+"), a).table == a.twist
    assert evaluate(parse("bottom 2 / x"), a).table == a.crossing
    assert evaluate(parse("cup"), a).table == a.cup
    assert evaluate(parse("cup / cap"), a).table == {(): CycloNum(4)}


def test_entries_of_inputs_bound_out_of_order():
    # The twist binds input 2 before the crossing binds inputs 0 and 1.
    block = evaluate(parse("bottom 3 / id id t+ / x id"), algebra("cl(1,0)"))
    i = zeta_pow(2)
    assert block.entries() == [
        (((0, 0, 0), (0, 0, 0)), ONE),
        (((0, 0, 1), (0, 0, 1)), i),
        (((0, 1, 0), (1, 0, 0)), ONE),
        (((0, 1, 1), (1, 0, 1)), i),
        (((1, 0, 0), (0, 1, 0)), ONE),
        (((1, 0, 1), (0, 1, 1)), i),
        (((1, 1, 0), (1, 1, 0)), -ONE),
        (((1, 1, 1), (1, 1, 1)), -i),
    ]


def test_zero_vertex_weight_gives_an_empty_table():
    a = algebra("cl(1,0)")
    c = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, 0, a.parity, star=a.star
    )
    assert evaluate(parse("R 1 / cup / cap"), c).table == {}


def test_diagram_without_r_is_not_scaled(monkeypatch):
    def no_scale(*args):
        raise AssertionError("scaled by vertex_weight ** 0")

    monkeypatch.setattr(ribbon, "scale", no_scale)
    assert evaluate(parse("cup / cap"), algebra("cl(1,0)")).scalar() == CycloNum(2)


def test_r_power_past_the_digit_limit_is_refused_before_it_grows(monkeypatch):
    # R^(10^10) over cl(1,0) has integers of ~1.5 * 10^9 digits.  The refusal
    # comes after ~14 squarings; without it the counter stops the run after
    # 40 products, while the integers are still under 1 MiB.
    products = []
    mul = CycloNum.__mul__

    def counted(x, y):
        products.append(None)
        if len(products) > 40:
            raise AssertionError("R power grew past the digit limit unchecked")
        return mul(x, y)

    a = algebra("cl(1,0)")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        monkeypatch.setattr(CycloNum, "__mul__", counted)
        with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\)"):
            evaluate(parse("R 10000000000 / cup / cap"), a)
        monkeypatch.undo()
        # R^28000 = 2^-14000 has 4215 digits, so it is admitted.
        assert evaluate(parse("R 28000 / cup / cap"), a).scalar() == CycloNum(2) * (
            a.vertex_weight**28000
        )
        # With R = 1 no integer grows, whatever the power.
        unit_weight = evaluate(parse("R 1000000000000 / cup / cap"), algebra("cl(0,0)"))
        assert unit_weight.scalar() == ONE
        # A limit of 0 means no limit.
        sys.set_int_max_str_digits(0)
        big = evaluate(parse("R 30000 / cup / cap"), a).scalar()
        assert big == CycloNum(2) * a.vertex_weight**30000
    finally:
        sys.set_int_max_str_digits(limit)


def test_compose_width_mismatch():
    with pytest.raises(DiagramError, match="compose"):
        compose(parse("cup"), parse("bottom 3 / cap id"))


def test_projector_absorption_shape():
    # composing a diagram with itself along matching widths adds r powers
    d = parse("R 1\nbottom 1\nt+")
    dd = compose(d, d)
    assert dd.r_power == 2
    assert (dd.bottom, dd.top) == (1, 1)


def test_evaluate_matches_block_composition():
    rng = random.Random(5)
    for spec in ("cl(1,0)", "mat(1|1)"):
        a = algebra(spec)
        for _ in range(10):
            bottom = rng.randrange(3)
            d1 = random_diagram(rng, bottom)
            d2 = random_diagram(rng, d1.top)
            assert evaluate(compose(d1, d2), a) == evaluate(d1, a).then(evaluate(d2, a))


def test_block_composition_errors():
    a = algebra("cl(1,0)")
    b1 = evaluate(parse("bottom 1\nid"), a)
    b2 = evaluate(parse("bottom 2\nid id"), a)
    with pytest.raises(ValueError, match="compose"):
        b1.then(b2)
    with pytest.raises(ValueError, match="closed"):
        b1.scalar()


def test_untouched_strands_pass_through():
    a = algebra("cl(1,0)")
    d = parse("bottom 3\nid id t+")
    block = evaluate(d, a)
    for x in range(2):
        for y in range(2):
            assert block.table[x, y, 0, x, y, 0] == ONE
            assert block.table[x, y, 1, x, y, 1] == zeta_pow(2)


def test_guards(monkeypatch):
    # The ceiling is read at call time and checked on the count a step would
    # form, before the table is built.
    a = algebra("cl(2,2)")
    monkeypatch.setattr(ribbon, "CELL_CEILING", 1000)
    with pytest.raises(DiagramError, match=r"\b4096\b"):
        evaluate(parse("bottom 4\nid id id id"), a)
    with pytest.raises(DiagramError, match=r"\b4096\b"):
        evaluate(parse("bottom 2\nid id cup"), a)
    monkeypatch.setattr(ribbon, "CELL_CEILING", 256)
    assert evaluate(parse("bottom 2\nid id"), a) == LinearBlock.identity(2, 16)
    # A twist with rows of two lengths: the step forms 2 + 1 terms.
    base = algebra("cl(1,0)")
    skew = custom_from_tensors(
        base.node, base.cap, base.cup, base.crossing,
        {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE}, base.vertex_weight, base.parity,
    )
    monkeypatch.setattr(ribbon, "CELL_CEILING", 3)
    assert len(evaluate(parse("bottom 1\nt+"), skew).table) == 3
    monkeypatch.setattr(ribbon, "CELL_CEILING", 2)
    with pytest.raises(DiagramError, match=r"\b3\b"):
        evaluate(parse("bottom 1\nt+"), skew)


def step_block(a, kind, pos, width):
    """One generator at strand pos with identities beside it, as a block
    over every input tuple of the given width."""
    tensor = {
        "node": a.node, "cap": a.cap, "cup": a.cup, "x": a.crossing,
        "t+": a.twist, "t-": a.twist_inverse(),
    }[kind]
    n_in, n_out = ribbon.ARITY[kind]
    rows = {}
    for key, v in tensor.items():
        rows.setdefault(key[:n_in], []).append((key[n_in:], v))
    table = {}
    for ins in iproduct(range(a.dim), repeat=width):
        for outs, v in rows.get(ins[pos : pos + n_in], ()):
            table[ins + ins[:pos] + outs + ins[pos + n_in :]] = v
    return LinearBlock(width, width - n_in + n_out, table)


@pytest.mark.parametrize("width", (3, 4))
@pytest.mark.parametrize("kind", ("node", "cap", "cup", "x", "t+", "t-"))
@pytest.mark.parametrize("spec", ("cl(1,1)", "mat(1|1)", "clc(1)"))
def test_single_generator_is_its_tensor(spec, kind, width):
    """A generator alone in a slice is its tensor with identities beside it."""
    a = algebra(spec)
    n_in = ribbon.ARITY[kind][0]
    for pos in range(width - n_in + 1):
        d = RibbonDiagram(width, ((kind, pos),))
        assert evaluate(d, a) == step_block(a, kind, pos, width), (spec, kind, width, pos)


@pytest.mark.parametrize(
    "text",
    (
        "bottom 2 / id cup id / node id",
        "bottom 2 / id cup id / x x",
        "bottom 3 / id id cup id / id node id",
        "bottom 3 / id t+ id / node",
        "bottom 1 / t-",
    ),
)
@pytest.mark.parametrize("spec", ("cl(1,1)", "mat(1|1)", "clc(1)", "cl(2,1)"))
def test_binding_inside_a_step_matches_dense_steps(spec, text):
    """Generators that consume unbound inputs beside live strands give the
    composite of dense single-step blocks, which binds every input up front."""
    a = algebra(spec)
    d = parse(text)
    want = LinearBlock.identity(d.bottom, a.dim)
    for (kind, pos), width in zip(d.ops, d.widths):
        want = want.then(step_block(a, kind, pos, width))
    assert evaluate(d, a) == want


def test_ceiling_is_checked_on_the_terms_a_step_forms(monkeypatch):
    # A node on three unbound inputs forms one term per entry of the node
    # tensor (dim^2 = 256 on cl(2,2)), not one per input triple (dim^3).
    a = algebra("cl(2,2)")
    assert len(a.node) == 256
    monkeypatch.setattr(ribbon, "CELL_CEILING", 1000)
    assert len(evaluate(parse("bottom 3 / node"), a).table) == 256
    monkeypatch.setattr(ribbon, "CELL_CEILING", 255)
    with pytest.raises(DiagramError, match=r"\b256\b"):
        evaluate(parse("bottom 3 / node"), a)


def test_row_index_is_built_once_per_algebra(monkeypatch):
    calls = []
    node = ribbon.WEIGHTS["node"]

    def counted(a):
        calls.append(a)
        return node(a)

    monkeypatch.setitem(ribbon.WEIGHTS, "node", counted)
    a = parse_algebra("cl(1,1)")
    evaluate(parse("bottom 3 / node"), a)
    evaluate(parse("bottom 4 / id node / t+"), a)
    assert calls == [a]
    b = parse_algebra("cl(1,1)")
    evaluate(parse("bottom 3 / node"), b)
    assert calls == [a, b]


def test_distinct_weights_form_one_product_per_term(monkeypatch):
    # Every weight of cl(1,1)'s tensors scaled by its own prime, so no two
    # weights are equal: the later steps' state values all differ, too many
    # pairs for a product table, so those steps form one product per term.
    base = algebra("cl(1,1)")
    scales = iter(CycloNum(n) for n in range(2, 10**6) if all(n % p for p in range(2, n)))
    tensors = [
        {k: v * next(scales) for k, v in t.items()}
        for t in (base.node, base.cap, base.cup, base.crossing, base.twist)
    ]
    assert len({v for t in tensors for v in t.values()}) == sum(map(len, tensors))
    a = custom_from_tensors(*tensors, base.vertex_weight, base.parity)
    tables = []
    product_table = linalg.product_table

    def recording(*args):
        tables.append(product_table(*args))
        return tables[-1]

    for text in ("bottom 3 / id t+ id / node", "bottom 2 / id cup id / x x / cap cap"):
        d = parse(text)
        want = LinearBlock.identity(d.bottom, a.dim)
        for (kind, pos), width in zip(d.ops, d.widths):
            want = want.then(step_block(a, kind, pos, width))
        # Only the evaluation's own steps are recorded, not the joins of then.
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "product_table", recording)
            block = evaluate(d, a)
        assert block == want, text
    assert None in tables


def test_singular_twist_errors():
    from halftwist.linalg import SingularMatrixError

    base = algebra("cl(1,0)")
    twist = dict(base.twist)
    twist[(1, 1)] = ZERO
    broken = custom_from_tensors(
        base.node, base.cap, base.cup, base.crossing, twist,
        base.vertex_weight, base.parity,
    )
    with pytest.raises(SingularMatrixError):
        evaluate(parse("bottom 1\nt-"), broken)


def test_slice_fill_semantics():
    # "t+ t+" twists both strands in one slice
    a = algebra("cl(1,0)")
    both = evaluate(parse("cup / t+ t+ / t+ t+ / cap"), a).scalar()
    assert both == CycloNum(2)  # full twist on both strands undoes itself
    one = evaluate(parse("cup / id t+ / id t+ / cap"), a).scalar()
    assert one == ZERO  # superdimension of cl(1,0)
