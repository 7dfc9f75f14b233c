"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
from contextlib import contextmanager

from halftwist import (
    CycloNum,
    I,
    LIBRARY_SURFACES,
    ONE,
    SQRT2,
    SurfaceSpec,
    ZERO,
    ZETA,
    abk,
    build_clifford_complex,
    build_clifford_real,
    build_matrix,
    check_all_axioms,
    classify_invertible,
    compose,
    connect_sum_pf,
    custom_from_tensors,
    evaluate,
    expand_left_twists,
    full_report,
    parse,
    partition_function,
    projector,
    stacking_check,
    state_space,
    supertensor,
    surface_presentation,
    zeta_pow,
)
from halftwist.pingeo import PinSurfacePresentation
from conftest import (
    AXIOM_SUITE_SPECS,
    algebra,
    assert_projects_onto_state_space,
    random_diagram,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {description} ... FAIL")
        raise
    print(f"ACCEPTANCE {number}: {description} ... PASS")


def _mutant(base, attr, key, value):
    tensors = {
        "node": dict(base.node),
        "cap": dict(base.cap),
        "cup": dict(base.cup),
        "crossing": dict(base.crossing),
        "twist": dict(base.twist),
    }
    tensors[attr][key] = value
    return custom_from_tensors(
        vertex_weight=base.vertex_weight,
        parity=base.parity,
        labels=base.labels,
        alpha=base.alpha,
        star=base.star,
        **tensors,
    )


def test_criterion_1_axiom_suite():
    with criterion(1, "thirteen axioms plus derived identities, with fault injection"):
        for spec in AXIOM_SUITE_SPECS:
            report = full_report(algebra(spec))
            assert report.all_passed, f"{spec}:\n{report.render_text()}"
            # named identities: sigma = id, tau^2 = phi, star tau star = inverse
            assert report.passed("nakayama_trivial"), spec
            assert report.passed("a13"), spec
            assert report.passed("star_twist_inverse"), spec

        base = algebra("cl(1,0)")
        two = CycloNum(2)
        s2 = SQRT2
        mutations = [
            ("node", (0, 0, 0), s2 * two),
            ("node", (0, 1, 1), s2 * two),
            ("node", (1, 0, 1), s2 * two),
            ("node", (1, 1, 0), s2 * two),
            ("node", (0, 0, 1), ONE),
            ("node", (1, 1, 1), s2),
            ("cap", (0, 0), s2 * two),
            ("cap", (1, 1), s2 * two),
            ("cap", (0, 1), ONE),
            ("cup", (0, 0), ONE),
            ("cup", (1, 1), ONE),
            ("cup", (1, 0), ONE),
            ("crossing", (0, 0, 0, 0), -ONE),
            ("crossing", (1, 1, 1, 1), ONE),
            ("crossing", (0, 1, 1, 0), -ONE),
            ("crossing", (1, 0, 0, 1), -ONE),
            ("crossing", (0, 0, 1, 1), ONE),
            ("twist", (1, 1), ONE),
            ("twist", (0, 0), -ONE),
            ("twist", (0, 1), ONE),
        ]
        assert len(mutations) == 20
        for attr, key, value in mutations:
            bad = _mutant(base, attr, key, value)
            report = check_all_axioms(bad)
            assert not report.all_passed, f"mutation {attr}{key} fooled every axiom"


def test_criterion_2_projective_plane_golden_values():
    with criterion(2, "projective-plane values across the Clifford and matrix families"):
        for alpha in (ONE, SQRT2):
            for total in range(5):
                for p in range(total + 1):
                    q = total - p
                    a = build_clifford_real(p, q, alpha)
                    z = partition_function(a, SurfaceSpec.rp2(1))
                    assert z == alpha * zeta_pow(p - q), (p, q, alpha)
            for p, q in ((1, 0), (1, 1), (2, 1)):
                m = build_matrix(p, q, alpha)
                assert partition_function(m, SurfaceSpec.rp2(1)) == alpha, (p, q)


def _small_presentations():
    """The 35 presentations with genus <= 1 and at most two crosscaps."""
    out = []
    for g in range(2):
        for c in range(3):
            for tq in itertools.product(((0, 0), (0, 2), (2, 0), (2, 2)), repeat=g):
                for cq in itertools.product((1, 3), repeat=c):
                    out.append(PinSurfacePresentation(tq, cq))
    return out


def _summands(p):
    """Connect-sum summands of a presentation; torus q = 0 is NS, 2 is R."""
    tori = [
        SurfaceSpec.torus(*("NS" if q == 0 else "R" for q in pair))
        for pair in p.torus_q
    ]
    return tori + [SurfaceSpec.rp2(k) for k in p.crosscap_q]


def test_criterion_3_oracle_equivalence():
    with criterion(3, "state sum equals the Euler-weighted Gauss sum on 11 classes "
                   "and on 35 connect sums at four alphas"):
        for alpha in (ONE, SQRT2):
            a = build_clifford_real(1, 0, alpha)
            assert len(LIBRARY_SURFACES) == 11
            for s in LIBRARY_SURFACES:
                presentation = surface_presentation(s)
                expected = alpha ** presentation.euler_characteristic * abk(presentation)
                assert partition_function(a, s) == expected, s.render()

        presentations = _small_presentations()
        assert len(presentations) == 35
        for alpha in (ONE, -ONE, SQRT2, CycloNum(1) / CycloNum(3)):
            for k in range(4):
                a = build_clifford_real(k, 0, alpha)
                for p in presentations:
                    expected = alpha ** p.euler_characteristic * abk(p) ** k
                    assert connect_sum_pf(a, _summands(p)) == expected, (k, alpha, p)

        parts = [algebra("cl(1,0)@alpha=-1"), algebra("cl(0,1)@alpha=-1")]
        total = algebra("(cl(1,0) (+) cl(0,1))@alpha=-1")
        for p in presentations:
            summands = _summands(p)
            assert connect_sum_pf(total, summands) == sum(
                (connect_sum_pf(part, summands) for part in parts), start=ZERO
            ), p


def test_criterion_4_gauss_sum_tables():
    with criterion(4, "Gauss-sum tables and unit modulus through rank 10"):
        torus = {(0, 0): ONE, (0, 2): ONE, (2, 0): ONE, (2, 2): -ONE}
        for pair, want in torus.items():
            assert abk(PinSurfacePresentation((pair,), ())) == want
        assert abk(PinSurfacePresentation((), (1,))) == ZETA
        assert abk(PinSurfacePresentation((), (3,))) == zeta_pow(7)
        klein = {(1, 1): I, (1, 3): ONE, (3, 1): ONE, (3, 3): -I}
        for pair, want in klein.items():
            assert abk(PinSurfacePresentation((), pair)) == want

        count = 0
        for g in range(6):
            for c in range(11 - 2 * g):
                for tq in itertools.product(
                    ((0, 0), (0, 2), (2, 0), (2, 2)), repeat=g
                ):
                    for cq in itertools.product((1, 3), repeat=c):
                        value = abk(PinSurfacePresentation(tq, cq))
                        assert value * value.conjugate() == ONE
                        count += 1
        assert count == 10923  # every presentation with 2g + c <= 10


def test_criterion_5_complex_clifford_theory():
    with criterion(5, "doubled-Arf values and state spaces of the odd complex theory"):
        for alpha in (ONE, SQRT2):
            a = build_clifford_complex(1, alpha)
            for s in LIBRARY_SURFACES:
                z = partition_function(a, s)
                chi = surface_presentation(s).euler_characteristic
                if s.kind in ("rp2", "klein"):
                    assert z == ZERO, (s.render(), alpha)
                elif s.kind == "torus":
                    sign = -ONE if s.data == ("R", "R") else ONE
                    assert z == CycloNum(2) * alpha**chi * sign, s.render()
                else:
                    assert z == CycloNum(2) * alpha**chi
            assert state_space(a, "NS").as_supervector() == (2, 0)
            assert state_space(a, "R").as_supervector() == (0, 2)


def test_criterion_6_state_spaces_and_projectors():
    with criterion(6, "circle state spaces and exactly idempotent projectors"):
        a = algebra("cl(1,0)")
        ns = state_space(a, "NS")
        r = state_space(a, "R")
        assert ns.as_supervector() == (1, 0)
        assert ns.basis[0] == a.unit()
        assert r.as_supervector() == (0, 1)
        assert r.basis[0] == a.basis_element(1)
        for sector in ("NS", "R"):
            assert_projects_onto_state_space(a, sector)


def test_criterion_7_stacking_and_morita():
    with criterion(7, "stacking multiplicativity and the eight invertible classes"):
        family = ("cl(1,0)", "cl(2,0)", "cl(0,1)", "mat(1|1)")
        for spec_a in family:
            for spec_b in family:
                report = stacking_check(algebra(spec_a), algebra(spec_b))
                assert report.all_passed, (
                    f"{spec_a} (x) {spec_b}:\n{report.render_text()}"
                )
        seen = []
        for n in range(8):
            result = classify_invertible(algebra(f"cl({n},0)"))
            assert result.invertible and result.k == n
            seen.append(result.k)
        assert len(set(seen)) == 8
        for spec in ("cl(1,0)", "cl(3,0)", "mat(1|1)"):
            base_k = classify_invertible(algebra(spec)).k
            stacked = supertensor(algebra(spec), algebra("mat(1|1)"))
            assert classify_invertible(stacked).k == base_k, spec


def test_criterion_8_decomposability():
    with criterion(8, "direct sums add partition functions on every library surface"):
        pairs = (("cl(1,0)", "cl(0,1)"), ("cl(2,0)", "mat(2|0)"))
        for spec_a, spec_b in pairs:
            a, b = algebra(spec_a), algebra(spec_b)
            total = algebra(f"{spec_a} (+) {spec_b}")
            for s in LIBRARY_SURFACES:
                assert partition_function(total, s) == partition_function(
                    a, s
                ) + partition_function(b, s), (spec_a, spec_b, s.render())


def test_criterion_9_gluing():
    with criterion(9, "projector absorption and composition over 50 random diagrams"):
        for spec in ("cl(1,0)", "mat(1|1)"):
            a = algebra(spec)
            for sector in ("NS", "R"):
                block = projector(a, sector)
                assert block.then(block) == block
        rng = random.Random(2024)
        checked = 0
        for spec in ("cl(1,0)", "mat(1|1)"):
            a = algebra(spec)
            for _ in range(25):
                d1 = random_diagram(rng, rng.randrange(3))
                d2 = random_diagram(rng, d1.top)
                lhs = evaluate(compose(d1, d2), a)
                rhs = evaluate(d1, a).then(evaluate(d2, a))
                assert lhs == rhs, (spec, d1, d2)
                checked += 1
        assert checked == 50


MOVE_FRAGMENTS = {
    "a1": ("bottom 1\nid cup\ncap id", "bottom 1\nid"),
    "a2": ("bottom 2\nid id cup\nnode id", "bottom 2\ncup id id\nid node"),
    "a3": (
        "bottom 4\nid id cup id id\nnode node",
        "bottom 4\nid id id cup id\nid node id id\nnode",
    ),
    "a4": (
        "bottom 3\nnode",
        "R 1\nbottom 3\nid cup id id\nid id cup id id id\n"
        "node id id id id\nid id id cup id\nid node id id\nnode",
    ),
    "a5": ("bottom 3\nid x\ncap id", "bottom 3\nx id\nid cap"),
    "a6": ("bottom 4\nx id id\nid node", "bottom 4\nid x id\nid id x\nnode id"),
    "a7": ("bottom 1\ncup id\nid x\ncap id", "bottom 1\nid cup\nx id\nid cap"),
    "a8": ("bottom 2\nx\nx", "bottom 2\nid id"),
    "a9": ("bottom 3\nid x\nx id\nid x", "bottom 3\nx id\nid x\nx id"),
    "a10": ("bottom 2\nid t+\ncap", "bottom 2\nt+ id\ncap"),
    "a11": ("bottom 3\nid id t+\nnode", "bottom 3\nt+ t+ id\nx id\nnode"),
    "a12": ("bottom 2\nt+ id\nx", "bottom 2\nx\nid t+"),
    "a13": ("bottom 1\nt+\nt+", "bottom 1\nid cup\nx id\nid cap"),
}

MOVE_SUITE_SPECS = tuple(
    f"cl({p},{q})" for total in range(5) for p in range(total + 1) for q in [total - p]
) + (
    "clc(0)",
    "clc(1)",
    "clc(2)",
    "mat(1|1)",
    "mat(2|1)",
    "cl(1,0) (+) cl(0,1)",
    "cl(1,0) (x) cl(0,1)",
)


def test_criterion_10_move_semantics():
    with criterion(10, "move fragments evaluate equal; left twists expand to three rights"):
        assert set(MOVE_FRAGMENTS) == {f"a{k}" for k in range(1, 14)}
        for spec in MOVE_SUITE_SPECS:
            a = algebra(spec)
            assert a.dim <= 16
            for move, (lhs, rhs) in MOVE_FRAGMENTS.items():
                assert evaluate(parse(lhs), a) == evaluate(parse(rhs), a), (spec, move)

        rng = random.Random(99)
        twisty = [
            parse("R 1 / cup / id t- / cap"),
            parse("bottom 1\nt-"),
            parse("bottom 2\nx\nt- t-\nx"),
        ]
        while len(twisty) < 12:
            d = random_diagram(rng, rng.randrange(3))
            if any(kind == "t-" for kind, _ in d.ops):
                twisty.append(d)
        for spec in ("cl(1,0)", "cl(0,1)", "clc(1)", "mat(1|1)"):
            a = algebra(spec)
            for d in twisty:
                assert evaluate(d, a) == evaluate(expand_left_twists(d), a), spec


def test_criterion_11_declared_indirect_coverage():
    with criterion(
        11,
        "continuum correspondences covered indirectly by the matching pipelines",
    ):
        # The geometric classification results are not re-derived; they are
        # witnessed numerically by the agreement of the tensor-contraction
        # pipeline with the Gauss-sum pipeline (criteria 3-5).  Re-assert one
        # witness from each side here so this declaration is load-bearing.
        a = algebra("cl(1,0)")
        s = SurfaceSpec.klein(1, 1)
        assert partition_function(a, s) == abk(surface_presentation(s)) == I
        c = algebra("clc(1)")
        assert partition_function(c, SurfaceSpec.rp2(1)) == ZERO
        assert partition_function(c, SurfaceSpec.torus("R", "R")) == CycloNum(-2)
