import io
import time

import pytest

from halftwist.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_partition_text():
    code, text = run("partition", "cl(1,0)", "rp2:1")
    assert code == 0
    assert "Z(rp2:1) over cl(1,0) = z" in text
    assert "ABK^1" in text


def test_partition_kv():
    code, text = run("--format", "kv", "partition", "cl(1,0)", "rp2:1")
    assert code == 0
    assert "Z = 0 + 1*z + 0*z^2 + 0*z^3" in text
    assert "Z.label = ABK^1" in text


def test_partition_with_alpha_flag():
    code, text = run("--format", "kv", "--alpha", "z-z^3", "partition", "cl(1,0)", "sphere")
    assert code == 0
    assert "Z = 2 + 0*z + 0*z^2 + 0*z^3" in text


def test_partition_presentation_literal():
    # alpha^chi * abk = (-1) * (-z) on a torus with one crosscap
    code, text = run(
        "--format", "kv", "partition", "cl(1,0)@alpha=-1", "g=1,c=1,q=[2,2|1]"
    )
    assert code == 0
    assert "surface = g=1,c=1,q=[2,2|1]\n" in text
    assert "Z = 0 + 1*z + 0*z^2 + 0*z^3" in text
    assert "Z.label = ABK^1" in text


def test_partition_prints_normalized_literal():
    code, text = run("--format", "kv", "partition", "cl(1,0)", " Torus: R,R ")
    assert code == 0
    assert "surface = torus:r,r\n" in text


def test_torus_at_negative_alpha():
    code, text = run("--format", "kv", "partition", "cl(1,0)@alpha=-1", "torus:r,r")
    assert code == 0
    assert "Z = -1 + 0*z + 0*z^2 + 0*z^3" in text


def test_classify():
    code, text = run("classify", "cl(3,0)")
    assert code == 0
    assert "k = 3 (ABK^3)" in text
    code, text = run("classify", "clc(1)")
    assert code == 0
    assert "non-invertible" in text


def test_check_pass_and_fail():
    code, text = run("check", "mat(1|1)")
    assert code == 0
    assert "all checks pass" in text
    # negative alpha passes the axioms but fails positivity
    code, text = run("check", "cl(1,0)@alpha=-1")
    assert code == 1
    assert "positive_definite" in text and "FAIL" in text
    # a failure without witness values prints no lhs/rhs in text form
    assert "FAIL  witness=()\n" in text and "lhs=None" not in text
    # a failure without witness values renders in kv form too
    code, text = run("--format", "kv", "check", "cl(1,0)@alpha=-1")
    assert code == 1
    assert "positive_definite = fail\npositive_definite.witness = ()\n" in text


def test_states():
    code, text = run("states", "clc(1)")
    assert code == 0
    assert "NS: C^(2|0)" in text
    assert "R: C^(0|2)" in text


def test_abk_command():
    code, text = run("abk", "g=0,c=2,q=[|1,1]")
    assert code == 0
    assert "z^2" in text and "ABK^2" in text


def test_eval_command(tmp_path):
    path = tmp_path / "rp2.rib"
    path.write_text("R 1 / cup / id t+ / cap\n")
    code, text = run("eval", "cl(1,0)", str(path))
    assert code == 0
    assert "scalar = z" in text
    code, text = run("--format", "kv", "eval", "cl(1,0)", str(path))
    assert code == 0
    assert "entry  ->  = 0 + 1*z + 0*z^2 + 0*z^3" in text


def test_eval_missing_file():
    code, _ = run("eval", "cl(1,0)", "/nonexistent/d.rib")
    assert code == 2


def test_stack_command():
    code, text = run("stack", "cl(1,0)", "cl(0,1)", "rp2:1", "sphere")
    assert code == 0
    assert "stacking: ok" in text
    code, text = run("stack", "cl(1,0)", "cl(0,1)", "g=2,c=1,q=[0,2;2,2|3]")
    assert code == 0
    assert text.startswith("g=2,c=1,q=[0,2;2,2|3] ")


def test_usage_errors_exit_two(tmp_path):
    path = tmp_path / "rp2.rib"
    path.write_text("R 1\ncup\nid t+\ncap\n")
    assert run("eval", "cl(1,0)", str(path))[0] == 0
    code, _ = run("--max-width", "3", "eval", "cl(1,0)", str(path))
    assert code == 2
    code, _ = run("partition", "cl(1,0)", "bogus")
    assert code == 2
    code, _ = run("partition", "wat", "sphere")
    assert code == 2
    code, _ = run("partition", "clc(8)", "sphere")
    assert code == 2
    code, _ = run("partition", "cl(1,0)", "g=1,c=0,q=[1,2|]")
    assert code == 2
    code, _ = run("stack", "cl(1,0)", "cl(0,1)", "g=1,c=1,q=[0,2|]")
    assert code == 2
    code, _ = run()
    assert code == 2
    code, _ = run("frobnicate")
    assert code == 2


def test_oversize_algebra_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, _ = run("partition", "mat(100|0)", "sphere")
    assert code == 2
    assert time.perf_counter() - start < 1
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "cl(1,0)@alpha=0", "sphere"),
        ("--alpha", "0", "partition", "cl(1,0)", "sphere"),
        ("--alpha", "1/0", "partition", "cl(1,0)", "sphere"),
        ("partition", "cl(1,0)@alpha=2/0", "sphere"),
        ("--alpha", "", "partition", "cl(1,0)", "sphere"),
    ],
)
def test_bad_alpha_exits_two(argv, capsys):
    code, text = run(*argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert any(word in err for word in ("nonzero", "zero denominator", "empty"))


def test_output_is_deterministic():
    for argv in (
        ("check", "cl(2,0)"),
        ("--format", "kv", "partition", "clc(1)", "torus:r,r"),
        ("states", "mat(1|1)"),
        ("stack", "cl(1,0)", "mat(1|1)", "rp2:1"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second
