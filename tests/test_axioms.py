import pytest

from halftwist import (
    CycloNum,
    I,
    ONE,
    SQRT2,
    ZERO,
    build_clifford_real,
    check_all_axioms,
    check_axiom,
    check_derived,
    check_unitarity,
    custom_from_tensors,
    full_report,
)
from halftwist import axioms
from halftwist.axioms import AXIOM_IDS, CheckStatus
from halftwist.linalg import CELL_CEILING, ContractionTooLarge
from conftest import algebra

CONSTRUCTOR_SPECS = (
    "cl(0,0)",
    "cl(1,0)",
    "cl(0,1)",
    "cl(1,1)",
    "cl(2,0)",
    "cl(2,1)",
    "cl(2,2)",
    "clc(0)",
    "clc(1)",
    "clc(2)",
    "mat(1|1)",
    "mat(2|1)",
    "cl(1,0) (+) cl(0,1)",
    "cl(1,0) (x) mat(1|1)",
    "clc(1) (x) cl(1,0)",
)


@pytest.mark.parametrize("spec", CONSTRUCTOR_SPECS)
def test_all_axioms_pass(spec):
    report = full_report(algebra(spec))
    assert report.all_passed, report.render_text()


def test_axiom_ids_and_unknown():
    assert len(AXIOM_IDS) == 13
    with pytest.raises(ValueError):
        check_axiom(algebra("cl(1,0)"), "a14")


def test_axioms_refused_up_front_when_dim_cubed_is_over_the_ceiling(monkeypatch):
    def no_check(a, which):
        raise AssertionError(f"{which} ran on an oversize algebra")

    monkeypatch.setattr(axioms, "check_axiom", no_check)
    big = build_clifford_real(8, 0)
    with pytest.raises(ContractionTooLarge, match=rf"dimension-256.*16777216.*{CELL_CEILING}"):
        check_all_axioms(big)
    with pytest.raises(ContractionTooLarge):
        full_report(big)
    monkeypatch.setattr(axioms, "CELL_CEILING", 7)
    with pytest.raises(ContractionTooLarge, match="dim\\^3 = 8"):
        check_all_axioms(algebra("cl(1,0)"))


def test_axioms_admitted_up_to_dim_cubed_at_the_ceiling(monkeypatch):
    # cl(7,0) has dim 128 and 128^3 is exactly the ceiling.
    assert 128**3 == CELL_CEILING
    monkeypatch.setattr(axioms, "check_axiom", lambda a, which: CheckStatus(which, True))
    assert check_all_axioms(build_clifford_real(7, 0)).all_passed
    monkeypatch.setattr(axioms, "CELL_CEILING", 8)
    assert check_all_axioms(algebra("cl(1,0)")).all_passed


def _mutant(base, attr, key, value):
    tensors = {
        "node": dict(base.node),
        "cap": dict(base.cap),
        "cup": dict(base.cup),
        "crossing": dict(base.crossing),
        "twist": dict(base.twist),
        "star": None if base.star is None else dict(base.star),
    }
    tensors[attr][key] = value
    return custom_from_tensors(
        vertex_weight=base.vertex_weight,
        parity=base.parity,
        labels=base.labels,
        alpha=base.alpha,
        **tensors,
    )


def test_planted_twist_fault_hits_a13():
    base = algebra("cl(1,0)")
    bad = _mutant(base, "twist", (1, 1), ONE)
    status = check_axiom(bad, "a13")
    assert not status.passed
    assert status.witness == (1, 1)
    assert status.lhs == ONE and status.rhs == -ONE


def test_matrix_printed_phase_fails_a13_on_e22():
    # Variant with twist(e_ij) = i^(|i| + |j| + |i||j|) e_ji: the diagonal
    # odd-odd entry e22 squares to -1 instead of the parity value +1.
    base = algebra("mat(1|1)")
    e22 = base.index_of_label("e22")
    bad = _mutant(base, "twist", (e22, e22), -I)
    status = check_axiom(bad, "a13")
    assert not status.passed
    assert status.witness == (e22, e22)
    assert status.lhs == -ONE and status.rhs == ONE
    # the consistent grading passes instead
    assert check_axiom(base, "a13").passed


def test_snake_fails_on_singular_cap():
    base = algebra("cl(1,0)")
    bad = _mutant(base, "cap", (1, 1), ZERO)
    assert not check_axiom(bad, "a1").passed


def test_nonsymmetric_cap_reported_not_fatal():
    # A cap with a strictly triangular part has a nontrivial Nakayama map;
    # the derived check flags it without raising.
    c = custom_from_tensors(
        node={},
        cap={(0, 0): ONE, (0, 1): ONE, (1, 1): ONE},
        cup={(0, 0): ONE, (0, 1): -ONE, (1, 1): ONE},
        crossing={},
        twist={},
        vertex_weight=ONE,
        parity=(0, 0),
    )
    report = check_derived(c)
    assert not report.passed("nakayama_trivial")
    assert check_axiom(c, "a1").passed


def test_unitarity_clifford():
    a = algebra("cl(1,0)")
    report = check_unitarity(a)
    assert report.all_passed, report.render_text()


def test_unitarity_negative_alpha():
    # Adjointness survives alpha = -1 but the form is negative definite.
    a = build_clifford_real(1, 0, -ONE)
    report = check_unitarity(a)
    assert report.passed("star_antiautomorphism")
    assert report.passed("star_form")
    assert report.passed("star_crossing")
    assert report.passed("star_twist_inverse")
    assert report.passed("vertex_weight_real")
    assert not report.passed("positive_definite")


def test_unitarity_gram_matrix():
    a = algebra("cl(1,0)")
    for x in range(a.dim):
        e = a.basis_element(x)
        assert a.inner_product(e, e) == SQRT2
    m = algebra("mat(1|1)")
    for x in range(m.dim):
        e = m.basis_element(x)
        assert m.inner_product(e, e) == ONE


def test_unitarity_needs_star():
    a = algebra("cl(1,0)")
    no_star = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight, a.parity
    )
    with pytest.raises(ValueError, match="star"):
        check_unitarity(no_star)


def test_singular_twist_reported_as_failure():
    # Zeroing twist[0, 0] of cl(1,0) leaves a singular half twist.
    bad = _mutant(algebra("cl(1,0)"), "twist", (0, 0), ZERO)
    report = full_report(bad)
    assert not report.passed("star_twist_inverse")
    assert report.statuses["star_twist_inverse"].witness == ()
    lines = report.render_text().splitlines()
    assert any(ln.startswith("star_twist_inverse") and "FAIL" in ln for ln in lines)
    kv = report.render_kv()
    assert "star_twist_inverse = fail\nstar_twist_inverse.witness = ()\n" in kv


def test_reports_are_deterministic():
    a = algebra("mat(2|1)")
    r1 = full_report(a)
    r2 = full_report(a)
    assert r1.render_text() == r2.render_text()
    assert r1.render_kv() == r2.render_kv()
    assert list(r1.statuses) == list(r2.statuses)


def test_report_renderings_carry_witness():
    base = algebra("cl(1,0)")
    bad = _mutant(base, "twist", (1, 1), ONE)
    report = check_all_axioms(bad)
    assert not report.all_passed
    text = report.render_text()
    assert "witness" in text and "a13" in text
    kv = report.render_kv()
    assert "a13 = fail" in kv


def test_sample_fault_injection():
    base = algebra("cl(1,0)")
    two = CycloNum(2)
    for attr, key, value in [
        ("node", (0, 0, 0), SQRT2 * two),
        ("cap", (0, 0), SQRT2 * two),
        ("cup", (1, 1), ONE),
        ("crossing", (1, 1, 1, 1), ONE),
        ("twist", (0, 1), ONE),
    ]:
        bad = _mutant(base, attr, key, value)
        report = check_all_axioms(bad)
        assert not report.all_passed, (attr, key)


# The whole kv report of four single-entry mutants, pinned: which checks
# fail, in report order, with their witnesses and both sides.
FAILING_REPORTS = [
    (
        "cl(1,1)", "crossing", (1, 1, 1, 1), ONE,
        """\
a1 = pass
a2 = pass
a3 = pass
a4 = pass
a5 = pass
a6 = fail
a6.witness = (1, 1, 2, 3, 1)
a6.lhs = 2 + 0*z + 0*z^2 + 0*z^3
a6.rhs = -2 + 0*z + 0*z^2 + 0*z^3
a7 = pass
a8 = pass
a9 = pass
a10 = pass
a11 = fail
a11.witness = (1, 1, 0)
a11.lhs = 2 + 0*z + 0*z^2 + 0*z^3
a11.rhs = -2 + 0*z + 0*z^2 + 0*z^3
a12 = pass
a13 = fail
a13.witness = (1, 1)
a13.lhs = -1 + 0*z + 0*z^2 + 0*z^3
a13.rhs = 1 + 0*z + 0*z^2 + 0*z^3
nakayama_symmetric = pass
nakayama_involution = pass
nakayama_trivial = pass
full_twist_automorphism = fail
full_twist_automorphism.witness = (1, 2, 3)
full_twist_automorphism.lhs = -1 + 0*z + 0*z^2 + 0*z^3
full_twist_automorphism.rhs = 1 + 0*z + 0*z^2 + 0*z^3
full_twist_isometry = pass
twist_cap_transport = pass
twist_crossing_transport = pass
star_antiautomorphism = pass
star_form = pass
star_crossing = pass
star_twist_inverse = pass
vertex_weight_real = pass
positive_definite = pass
""",
    ),
    (
        "cl(1,0)", "twist", (1, 1), ONE,
        """\
a1 = pass
a2 = pass
a3 = pass
a4 = pass
a5 = pass
a6 = pass
a7 = pass
a8 = pass
a9 = pass
a10 = pass
a11 = fail
a11.witness = (1, 1, 0)
a11.lhs = 0 + 1*z + 0*z^2 + -1*z^3
a11.rhs = 0 + -1*z + 0*z^2 + 1*z^3
a12 = pass
a13 = fail
a13.witness = (1, 1)
a13.lhs = 1 + 0*z + 0*z^2 + 0*z^3
a13.rhs = -1 + 0*z + 0*z^2 + 0*z^3
nakayama_symmetric = pass
nakayama_involution = pass
nakayama_trivial = pass
full_twist_automorphism = pass
full_twist_isometry = pass
twist_cap_transport = pass
twist_crossing_transport = pass
star_antiautomorphism = pass
star_form = pass
star_crossing = pass
star_twist_inverse = pass
vertex_weight_real = pass
positive_definite = pass
""",
    ),
    (
        "mat(1|1)", "node", (0, 0, 0), CycloNum(2),
        """\
a1 = pass
a2 = pass
a3 = fail
a3.witness = (0, 0, 1, 2)
a3.lhs = 2 + 0*z + 0*z^2 + 0*z^3
a3.rhs = 1 + 0*z + 0*z^2 + 0*z^3
a4 = fail
a4.witness = (0, 0, 0)
a4.lhs = 2 + 0*z + 0*z^2 + 0*z^3
a4.rhs = 9/2 + 0*z + 0*z^2 + 0*z^3
a5 = pass
a6 = pass
a7 = pass
a8 = pass
a9 = pass
a10 = pass
a11 = pass
a12 = pass
a13 = pass
nakayama_symmetric = pass
nakayama_involution = pass
nakayama_trivial = pass
full_twist_automorphism = pass
full_twist_isometry = pass
twist_cap_transport = pass
twist_crossing_transport = pass
star_antiautomorphism = pass
star_form = pass
star_crossing = pass
star_twist_inverse = pass
vertex_weight_real = pass
positive_definite = pass
""",
    ),
    (
        "cl(1,1)", "star", (1, 1), -algebra("cl(1,1)").star[1, 1],
        """\
a1 = pass
a2 = pass
a3 = pass
a4 = pass
a5 = pass
a6 = pass
a7 = pass
a8 = pass
a9 = pass
a10 = pass
a11 = pass
a12 = pass
a13 = pass
nakayama_symmetric = pass
nakayama_involution = pass
nakayama_trivial = pass
full_twist_automorphism = pass
full_twist_isometry = pass
twist_cap_transport = pass
twist_crossing_transport = pass
star_antiautomorphism = fail
star_antiautomorphism.witness = (1, 2, 3)
star_antiautomorphism.lhs = -1 + 0*z + 0*z^2 + 0*z^3
star_antiautomorphism.rhs = 1 + 0*z + 0*z^2 + 0*z^3
star_form = pass
star_crossing = pass
star_twist_inverse = pass
vertex_weight_real = pass
positive_definite = fail
positive_definite.witness = ()
""",
    ),
]


@pytest.mark.parametrize(
    "spec, attr, key, value, expected",
    FAILING_REPORTS,
    ids=[f"{spec}-{attr}" for spec, attr, *_ in FAILING_REPORTS],
)
def test_failing_reports_pinned(spec, attr, key, value, expected):
    bad = _mutant(algebra(spec), attr, key, value)
    assert full_report(bad).render_kv() == expected.rstrip("\n")
