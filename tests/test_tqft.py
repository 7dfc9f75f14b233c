import gc
import sys

import pytest

from halftwist import (
    CycloNum,
    I,
    LIBRARY_SURFACES,
    ONE,
    PinSurfacePresentation,
    SQRT2,
    ZERO,
    ZETA,
    abk,
    build_clifford_real,
    check_axiom,
    classify_invertible,
    connect_sum_pf,
    custom_from_tensors,
    handle_state,
    moebius_state,
    parse_algebra,
    parse_surface,
    partition_function,
    projector,
    state_space,
    stacking_check,
    supertensor,
    zeta_pow,
)
from halftwist import ribbon, tqft
from conftest import (
    AXIOM_SUITE_SPECS,
    algebra,
    assert_projects_onto_state_space,
    projector_handle,
    twisted_projector,
)
from test_golden import SURFACES as GOLDEN_SURFACES


def test_state_spaces_clifford():
    a = algebra("cl(1,0)")
    ns = state_space(a, "NS")
    r = state_space(a, "R")
    assert ns.as_supervector() == (1, 0)
    assert ns.basis[0] == a.basis_element(0)
    assert r.as_supervector() == (0, 1)
    assert r.basis[0] == a.basis_element(1)


def test_state_spaces_complex_clifford():
    a = algebra("clc(1)")
    assert state_space(a, "NS").as_supervector() == (2, 0)
    assert state_space(a, "R").as_supervector() == (0, 2)


def test_state_space_matrix_unit():
    a = algebra("mat(1|1)")
    ns = state_space(a, "NS")
    assert ns.dim == 1 and ns.parities == (0,)
    v = ns.basis[0]
    u = a.unit()
    # proportional to the unit
    assert v.coeffs[0] * u.coeffs[3] == v.coeffs[3] * u.coeffs[0]
    assert not v.coeffs[0].is_zero()


def _twisted_product(a, b_idx, v, use_parity_image):
    """m(crossing(b (x) v)) or m(crossing(phi(b) (x) v)), from the tensors."""
    phi = a.full_twist()
    product = a.product_tensor()
    out = [ZERO] * a.dim
    lefts = [(b_idx, ONE)]
    if use_parity_image:
        lefts = [(y, w) for (x, y), w in phi.items() if x == b_idx]
    for b2, w0 in lefts:
        for (p, q, c, d), w1 in a.crossing.items():
            if p != b2 or v.coeffs[q].is_zero():
                continue
            for x in range(a.dim):
                w2 = product.get((c, d, x))
                if w2 is not None:
                    out[x] = out[x] + w0 * v.coeffs[q] * w1 * w2
    return a.element(out)


@pytest.mark.parametrize("spec", ["cl(1,0)", "cl(2,0)", "clc(1)", "mat(1|1)"])
@pytest.mark.parametrize("sector", ["NS", "R"])
def test_state_space_solves_defining_equation(spec, sector):
    a = algebra(spec)
    space = state_space(a, sector)
    assert space.dim > 0
    for v in space.basis:
        for b in range(a.dim):
            lhs = a.basis_element(b) * v
            rhs = _twisted_product(a, b, v, use_parity_image=(sector == "R"))
            assert lhs == rhs, (spec, sector, b)


@pytest.mark.parametrize(
    "spec", ["cl(2,1)", "clc(2)", "cl(1,0) (x) mat(1|1)", "cl(1,0) (+) cl(0,1)"]
)
def test_generator_rows_solve_the_whole_system(spec):
    # A constructor algebra solves only the rows of its generators; the same
    # tensors without a generating set solve every row.
    a = algebra(spec)
    assert a.generators is not None
    every_row = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight, a.parity
    )
    assert every_row.generators is None
    for sector in ("NS", "R"):
        restricted, full = state_space(a, sector), state_space(every_row, sector)
        assert [v.coeffs for v in restricted.basis] == [v.coeffs for v in full.basis]
        assert restricted.parities == full.parities


def test_state_space_bad_sector():
    with pytest.raises(ValueError):
        state_space(algebra("cl(1,0)"), "XX")


def test_projector_clifford():
    a = algebra("cl(1,0)")
    p_ns = projector(a, "NS")
    p_r = projector(a, "R")
    assert p_ns.table == {(0, 0): ONE}
    assert p_r.table == {(1, 1): ONE}
    assert p_ns.then(p_ns) == p_ns
    assert p_r.then(p_r) == p_r


def test_projector_matrix_rank_one():
    a = algebra("mat(1|1)")
    p = projector(a, "NS")
    assert p.then(p) == p
    # image is the line through the unit
    u = a.unit()
    image = [ZERO] * a.dim
    for (x, y), v in p.table.items():
        image[y] = image[y] + u.coeffs[x] * v
    assert a.element(image) == u


PROJECTOR_SPECS = ("cl(1,0)", "cl(2,1)", "mat(1|1)", "clc(1)")


def test_projector_at_negative_alpha():
    for spec in PROJECTOR_SPECS:
        for sector in ("NS", "R"):
            assert_projects_onto_state_space(algebra(spec, "-1"), sector)


def test_projector_needs_no_star():
    for spec in PROJECTOR_SPECS:
        a = algebra(spec)
        no_star = custom_from_tensors(
            a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight, a.parity
        )
        assert no_star.star is None
        for sector in ("NS", "R"):
            assert_projects_onto_state_space(no_star, sector)


def test_projector_is_self_adjoint():
    # A self-adjoint idempotent is the orthogonal projection onto its image,
    # so the cylinder map equals the projection built from a Gram matrix.
    checked = 0
    for spec in AXIOM_SUITE_SPECS:
        for alpha in ("1", "z-z^3"):
            a = algebra(spec, alpha)
            if a.dim > 8:
                continue
            for sector in ("NS", "R"):
                assert_projects_onto_state_space(a, sector)
                images = [a.element([ZERO] * a.dim) for _ in range(a.dim)]
                for (x, y), w in projector(a, sector).table.items():
                    images[x] = images[x] + w * a.basis_element(y)
                for x in range(a.dim):
                    e_x = a.basis_element(x)
                    for y in range(a.dim):
                        e_y = a.basis_element(y)
                        lhs = a.inner_product(images[x], e_y)
                        assert lhs == a.inner_product(e_x, images[y]), (spec, alpha, sector, x, y)
                checked += 1
    assert checked == 2 * 2 * 20  # 20 specs of dim <= 8


def test_projective_plane_values_small():
    for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
        a = algebra(f"cl({p},{q})")
        z = partition_function(a, parse_surface("rp2:1"))
        assert z == zeta_pow(p - q), (p, q)


def test_torus_values_clifford():
    a = algebra("cl(1,0)")
    want = {
        ("NS", "NS"): ONE,
        ("NS", "R"): ONE,
        ("R", "NS"): ONE,
        ("R", "R"): -ONE,
    }
    for (e1, e2), value in want.items():
        assert partition_function(a, parse_surface(f"torus:{e1},{e2}")) == value


def test_torus_values_need_no_star():
    a = algebra("cl(1,0)")
    no_star = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight, a.parity
    )
    assert no_star.star is None
    for e1, e2 in (("NS", "NS"), ("NS", "R"), ("R", "NS"), ("R", "R")):
        p = parse_surface(f"torus:{e1},{e2}")
        assert partition_function(no_star, p) == partition_function(a, p)
        assert partition_function(no_star, p) == abk(p)


def test_oracle_equality_with_euler_weight():
    for alpha in (ONE, SQRT2, -ONE, CycloNum(1) / CycloNum(3)):
        a = build_clifford_real(1, 0, alpha)
        for s in LIBRARY_SURFACES:
            p = parse_surface(s)
            expected = alpha ** p.euler_characteristic * abk(p)
            assert partition_function(a, p) == expected, s


def test_complex_clifford_partition_functions():
    a = algebra("clc(1)")
    for s in LIBRARY_SURFACES:
        p = parse_surface(s)
        z = partition_function(a, p)
        if p.crosscaps:
            assert z == ZERO, s
        elif p.genus:
            want = CycloNum(-2) if p.torus_q == ((2, 2),) else CycloNum(2)
            assert z == want, s
        else:
            assert z == CycloNum(2)  # doubled sphere value at alpha = 1


def test_moebius_states():
    a = algebra("cl(1,0)")
    assert moebius_state(a, 1) == ZETA * a.basis_element(0)
    assert moebius_state(a, 3) == zeta_pow(7) * a.basis_element(0)
    with pytest.raises(ValueError):
        moebius_state(a, 2)
    m = algebra("mat(2|0)")
    m1 = moebius_state(m, 1)
    # proportional to the unit, closing up to alpha
    assert m1 == m.unit()
    assert m.vertex_weight * m.counit(m1) == ONE


def test_handle_states():
    a = algebra("cl(1,0)")
    closures = {
        ("NS", "NS"): ONE,
        ("R", "R"): -ONE,
    }
    for (e1, e2), want in closures.items():
        h = handle_state(a, e1, e2)
        assert a.vertex_weight * a.counit(h) == want
    b = algebra("cl(2,0)")
    assert b.vertex_weight * b.counit(handle_state(b, "R", "R")) == ONE


def test_handle_state_needs_no_constructor_provenance():
    a = algebra("cl(1,0)")
    anonymous = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight,
        a.parity, alpha=a.alpha, star=a.star,
    )
    assert anonymous.spec is None
    for e1 in ("NS", "R"):
        for e2 in ("NS", "R"):
            assert handle_state(anonymous, e1, e2).coeffs == handle_state(a, e1, e2).coeffs


HANDLE_PAIRS = [(e1, e2) for e1 in ("NS", "R") for e2 in ("NS", "R")]


@pytest.mark.parametrize(
    "spec, alpha",
    [(spec, alpha) for spec in AXIOM_SUITE_SPECS for alpha in ("1", "-1", "1/3")]
    + [("cl(5,0)", "1"), ("cl(3,3)", "1")],
)
def test_handle_state_equals_the_projector_route(spec, alpha):
    a = algebra(spec, alpha)
    for e1, e2 in HANDLE_PAIRS:
        want = projector_handle(a, e1, e2).vector
        assert handle_state(a, e1, e2).vector == want, (e1, e2)


@pytest.mark.parametrize("spec", AXIOM_SUITE_SPECS)
def test_handle_state_closes_to_the_projector_trace(spec):
    for alpha in ("1", "-1", "z-z^3"):
        a = algebra(spec, alpha)
        for e1, e2 in HANDLE_PAIRS:
            op = twisted_projector(a, e1, e2)
            trace = sum((op.get((x, x), ZERO) for x in range(a.dim)), start=ZERO)
            closure = a.vertex_weight * a.counit(handle_state(a, e1, e2))
            assert closure == trace, (alpha, e1, e2)


def test_closed_surfaces_need_no_projector(monkeypatch):
    specs = ("cl(1,0)", "clc(1)", "mat(2|1)")

    def values(spec):
        a = parse_algebra(spec)
        return [partition_function(a, parse_surface(s)) for s in GOLDEN_SURFACES]

    want = {spec: values(spec) for spec in specs}

    def refuse(*args, **kwargs):
        raise AssertionError("the projector was called")

    monkeypatch.setattr(tqft, "projector", refuse)
    for spec in specs:
        assert values(spec) == want[spec], spec


def test_connect_sums_against_oracle():
    a = algebra("cl(1,0)")
    three = connect_sum_pf(a, PinSurfacePresentation((), (1, 1, 1)))
    assert three == zeta_pow(3)
    assert three == abk(PinSurfacePresentation((), (1, 1, 1)))
    assert connect_sum_pf(a, PinSurfacePresentation((), (1, 3))) == ONE
    assert connect_sum_pf(a, PinSurfacePresentation((), ())) == ONE
    mixed = connect_sum_pf(a, PinSurfacePresentation(((2, 2),), (1,)))
    assert mixed == abk(PinSurfacePresentation(((2, 2),), (1,)))


def test_connect_sum_builds_each_handle_state_once(monkeypatch):
    calls = []
    build = tqft.state_space
    monkeypatch.setattr(
        tqft, "state_space", lambda a, sector: calls.append(sector) or build(a, sector)
    )
    p = parse_surface("g=3,c=0,q=[2,2;2,2;2,2|]")
    z = connect_sum_pf(algebra("cl(1,0)"), p)
    assert calls == ["R"]
    assert z == abk(p) == CycloNum(-1)


def test_connect_sum_builds_each_moebius_state_once(monkeypatch):
    from halftwist import tqft

    calls = []
    build = tqft.moebius_state
    monkeypatch.setattr(tqft, "moebius_state", lambda a, k: calls.append(k) or build(a, k))
    p = parse_surface("klein:1,1")
    z = connect_sum_pf(algebra("cl(1,0)"), p)
    assert calls == [1]
    assert z == abk(p)


def test_connect_sum_forms_one_product_fewer_than_factors(monkeypatch):
    from halftwist.superalgebra import AlgebraElement

    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda x, y: calls.append(y) or mul(x, y))
    a = algebra("cl(1,0)")
    for literal, products in (("klein:1,3", 1), ("g=2,c=1,q=[0,2;2,2|1]", 2), ("csum:1,3,3,1", 3)):
        p = parse_surface(literal)
        calls.clear()
        assert connect_sum_pf(a, p) == abk(p), literal
        assert len(calls) == products, literal
    calls.clear()
    sphere = PinSurfacePresentation((), ())
    assert connect_sum_pf(a, sphere) == partition_function(a, sphere)
    assert calls == []


def doubled_weight():
    """cl(1,0) with R doubled: not special (a4 fails), so it has no
    two-sided unit."""
    base = algebra("cl(1,0)")
    a = custom_from_tensors(
        base.node, base.cap, base.cup, base.crossing, base.twist,
        CycloNum(2) * base.vertex_weight, base.parity,
    )
    assert not check_axiom(a, "a4").passed
    return a


def test_connect_sum_still_needs_a_two_sided_unit():
    # The counit, and with it every connect sum, is refused, and no unit is
    # cached: a later lookup of the key still builds.
    a = doubled_weight()
    for _ in range(2):
        with pytest.raises(ValueError, match="not a two-sided unit"):
            partition_function(a, parse_surface("klein:1,1"))
    assert a.cached("unit", lambda: "built") == "built"


def test_handle_state_still_needs_a_two_sided_unit():
    a = doubled_weight()
    for e1, e2 in HANDLE_PAIRS:
        with pytest.raises(ValueError, match="not a two-sided unit"):
            handle_state(a, e1, e2)


# The ribbon diagrams of the sphere and the projective planes, an oracle
# independent of the twisted cup that partition_function closes.
SMALL_SURFACE_DIAGRAMS = {
    "sphere": "R 2 / cup / cap",
    "rp2:1": "R 1 / cup / id t+ / cap",
    "rp2:3": "R 1 / cup / id t+ / id t+ / id t+ / cap",
}


@pytest.mark.parametrize("spec", AXIOM_SUITE_SPECS)
def test_sphere_and_projective_planes_match_their_ribbon_diagrams(spec):
    for alpha in ("1", "-1", "1/3"):
        a = algebra(spec, alpha)
        for surface, diagram in SMALL_SURFACE_DIAGRAMS.items():
            want = ribbon.evaluate(ribbon.parse(diagram), a).scalar()
            assert partition_function(a, parse_surface(surface)) == want, (alpha, surface)


def test_closed_surfaces_need_no_ribbon_evaluator(monkeypatch):
    specs = ("cl(1,0)", "cl(2,1)", "clc(1)", "mat(1|1)", "cl(1,0) (+) cl(0,1)")

    def results(spec):
        a = parse_algebra(spec)
        values = [partition_function(a, parse_surface(s)) for s in LIBRARY_SURFACES]
        return values, classify_invertible(a)

    want = {spec: results(spec) for spec in specs}

    def refuse(*args, **kwargs):
        raise AssertionError("the ribbon evaluator was called")

    evaluate = ribbon.evaluate
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("halftwist"):
            if getattr(module, "evaluate", None) is evaluate:
                monkeypatch.setattr(module, "evaluate", refuse)
    for spec in specs:
        assert results(spec) == want[spec], spec


@pytest.mark.parametrize(
    "spec", ["cl(1,0)", "cl(2,2)", "cl(1,0) (x) mat(1|1)", "cl(1,0) (+) cl(0,1)"]
)
def test_an_algebra_and_its_results_are_freed_without_the_collector(spec):
    # No algebra refers back to its own elements, so reference counting
    # frees everything a command builds and the collector finds no cycle.
    gc.collect()
    gc.disable()
    try:
        a = parse_algebra(spec)
        for literal in ("klein:1,3", "torus:r,r"):
            partition_function(a, parse_surface(literal))
        classify_invertible(a)
        del a
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_klein_equals_two_crosscaps():
    a = algebra("cl(1,0)")
    for k, l in ((1, 1), (1, 3), (3, 1), (3, 3)):
        direct = partition_function(a, parse_surface(f"klein:{k},{l}"))
        glued = moebius_state(a, k) * moebius_state(a, l)
        assert direct == a.vertex_weight * a.counit(glued)


def test_classify_invertible_examples():
    for n in range(4):
        result = classify_invertible(algebra(f"cl({n},0)"))
        assert result.invertible and result.k == n
        assert result.euler_alpha == ONE
    assert classify_invertible(algebra("mat(1|1)")).k == 0
    assert classify_invertible(algebra("mat(2|1)")).k == 0
    assert not classify_invertible(algebra("clc(1)")).invertible
    assert not classify_invertible(algebra("cl(1,0) (+) cl(1,0)")).invertible


def test_classify_with_euler_scale():
    result = classify_invertible(build_clifford_real(1, 0, SQRT2))
    assert result.invertible and result.k == 1
    assert result.euler_alpha == SQRT2


def test_classify_negative_alpha_ground_field():
    # The sign theory has the partition functions of the fourth power class.
    result = classify_invertible(build_clifford_real(0, 0, -ONE))
    assert result.invertible and result.k == 4


def test_classify_rejects_non_root_ratio():
    broken = custom_from_tensors(
        node={(0, 0, 0): CycloNum(3)},
        cap={(0, 0): CycloNum(3)},
        cup={(0, 0): CycloNum(1, 0, 0, 0) / 3},
        crossing={(0, 0, 0, 0): ONE},
        twist={(0, 0): CycloNum(2)},
        vertex_weight=CycloNum(3),
        parity=(0,),
        alpha=CycloNum(3),
        star={(0, 0): ONE},
    )
    with pytest.raises(ValueError, match="invertible family"):
        classify_invertible(broken)


def test_stacking_small_pair():
    report = stacking_check(algebra("cl(1,0)"), algebra("cl(0,1)"))
    assert report.all_passed, report.render_text()


def test_decomposability_spot():
    a = algebra("cl(1,0)")
    b = algebra("cl(0,1)")
    s = algebra("cl(1,0) (+) cl(0,1)")
    for surf in map(parse_surface, ("rp2:1", "sphere", "klein:1,3")):
        assert partition_function(s, surf) == partition_function(a, surf) + partition_function(b, surf)
    # the projective-plane value sums to sqrt2 times the scale
    assert partition_function(s, parse_surface("rp2:1")) == SQRT2


def test_cross_family_power_law():
    # Z for signature (p, q) is the (p - q)-th power of the root theory.
    a = algebra("cl(1,0)")
    base = {s: partition_function(a, parse_surface(s)) for s in LIBRARY_SURFACES}
    for p, q in ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1)):
        b = algebra(f"cl({p},{q})")
        for s in LIBRARY_SURFACES:
            assert partition_function(b, parse_surface(s)) == base[s] ** (p - q), (
                p,
                q,
                s,
            )


def test_supertensor_at_generator_cap():
    # cl(1,0) (x) cl(7,0) has dim 256 and lands back in the trivial class.
    big = supertensor(algebra("cl(1,0)"), algebra("cl(7,0)"))
    assert big.dim == 256
    assert partition_function(big, parse_surface("rp2:1")) == ONE


def test_eighth_power_periodicity():
    # stacking two signature-4 theories closes the cycle of eight
    half = algebra("cl(4,0)")
    assert partition_function(half, parse_surface("rp2:1")) == -ONE
    doubled = supertensor(half, half)
    assert partition_function(doubled, parse_surface("rp2:1")) == ONE


def test_moebius_closure_matches_projective_plane():
    for spec in ("cl(1,0)", "cl(0,1)", "cl(1,1)", "mat(1|1)", "clc(1)"):
        a = algebra(spec)
        for k in (1, 3):
            closure = a.vertex_weight * a.counit(moebius_state(a, k))
            assert closure == partition_function(a, parse_surface(f"rp2:{k}")), (spec, k)


def test_partition_conjugate_magnitude_invariant():
    # Z conj(Z) is 0 or the squared Euler weight
    for spec in ("cl(1,0)", "clc(1)", "mat(1|1)"):
        a = algebra(spec)
        for s in LIBRARY_SURFACES:
            p = parse_surface(s)
            z = partition_function(a, p)
            chi = p.euler_characteristic
            norm = z * z.conjugate()
            if spec == "clc(1)":
                assert norm == ZERO or norm == CycloNum(4) * a.alpha ** (2 * chi)
            else:
                assert norm == a.alpha ** (2 * chi)


def _shape_id(value):
    """Test id of a presentation: the library name of its shape."""
    if not isinstance(value, PinSurfacePresentation):
        return None
    names = {(0, 0): "sphere", (0, 1): "rp2", (1, 0): "torus", (0, 2): "klein"}
    shape = (value.genus, value.crosscaps)
    return names.get(shape, "csum" if value.genus == 0 else "mixed")


def _p(torus_q=(), crosscap_q=()):
    return PinSurfacePresentation(tuple(torus_q), tuple(crosscap_q))


@pytest.mark.parametrize(
    "literal, want",
    [
        ("sphere", _p()),
        ("rp2:1", _p((), (1,))),
        ("rp2:3", _p((), (3,))),
        ("torus:ns,ns", _p([(0, 0)])),
        ("torus:ns,r", _p([(0, 2)])),
        ("torus:r,ns", _p([(2, 0)])),
        ("torus:r,r", _p([(2, 2)])),
        ("torus:R,R", _p([(2, 2)])),
        ("klein:1,1", _p((), (1, 1))),
        ("klein:1,3", _p((), (1, 3))),
        ("klein:3,1", _p((), (3, 1))),
        (" klein: 3,1 ", _p((), (3, 1))),
        ("klein:3,3", _p((), (3, 3))),
        ("csum:1,1,1", _p((), (1, 1, 1))),
        ("g=1,c=1,q=[2,2|1]", _p([(2, 2)], (1,))),
    ],
    ids=_shape_id,
)
def test_surface_literals(literal, want):
    assert parse_surface(literal) == want


@pytest.mark.parametrize(
    "bad",
    [
        "", "rp2:2", "torus:x,y", "klein:1", "blob", "csum:",
        "rp2:5", "torus:ns", "klein:1,2", "g=1,c=0,q=[1,2|]",
    ],
)
def test_surface_literal_rejects(bad):
    with pytest.raises(ValueError):
        parse_surface(bad)


def test_fast_routes_equal_connect_sums():
    # Sphere and projective planes are ribbon diagrams and tori are read
    # from state spaces; each must agree with the connect-sum route.
    fast = ("sphere", "rp2:1", "rp2:3", "torus:ns,ns", "torus:ns,r", "torus:r,ns", "torus:r,r")
    checked = 0
    for spec in AXIOM_SUITE_SPECS:
        for alpha in ("1", "-1"):
            a = algebra(spec, alpha)
            if a.dim > 8:
                continue
            for literal in fast:
                p = parse_surface(literal)
                assert partition_function(a, p) == connect_sum_pf(a, p), (spec, alpha, literal)
            checked += 1
    assert checked == 2 * 20  # 20 specs of dim <= 8
