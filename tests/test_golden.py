"""Golden kv corpus: CLI output that a refactor must keep byte-identical.

Each record is one `halftwist --format kv` command with its exit code, its
standard output and its standard error.  The corpus covers `states`,
`classify` and `partition` on every library surface literal and three
presentation literals for the axiom spec mix up to dim 8 at three alphas,
`check` up to dim 4, and `eval` of the ribbon diagrams in tests/golden/diagrams
(both sides of the thirteen move fragments and closed diagrams with left twists
and the mul/eta macros) on the `check` specs at alphas 1 and -1, and `abk` on one
presentation literal of each rank 0, 1, 2, 3, 5, 10 and 15 and two of rank 20.
It ends with the argv checks of the installed entry point (ENTRY_POINT): an
exact Z line, and exit code 2 on input errors.  Diagram files are named
relative to the repository root, which the corpus runs from.

After an intended change of output, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/kv_corpus.txt record by record.
"""

import contextlib
import io
import os
import shlex
from pathlib import Path

from halftwist.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "kv_corpus.txt"
DIAGRAMS = sorted(
    p.relative_to(ROOT).as_posix() for p in CORPUS.parent.glob("diagrams/*.rib")
)

# The axiom spec mix up to dim 8, smallest first within each family.
SPECS = (
    "cl(0,0)", "cl(1,0)", "cl(0,1)", "cl(2,0)", "cl(1,1)", "cl(0,2)",
    "cl(3,0)", "cl(2,1)", "cl(1,2)", "cl(0,3)",
    "clc(0)", "clc(1)", "clc(2)", "mat(1|1)",
    "cl(1,0) (x) cl(0,1)", "cl(1,0) (x) mat(1|1)", "clc(1) (x) cl(1,0)",
    "cl(1,0) (+) cl(1,0)", "cl(1,0) (+) cl(0,1)", "cl(2,0) (+) mat(2|0)",
)
# `check` is the costly command; these are the specs of dim at most 4.
CHECK_SPECS = (
    "cl(0,0)", "cl(1,0)", "cl(0,1)", "cl(2,0)", "cl(1,1)", "cl(0,2)",
    "clc(0)", "clc(1)", "mat(1|1)",
    "cl(1,0) (x) cl(0,1)", "cl(1,0) (+) cl(1,0)", "cl(1,0) (+) cl(0,1)",
)
# A positive, an irrational and a negative scale.
ALPHAS = ("1", "z-z^3", "-1")
SURFACES = (
    "sphere", "rp2:1", "rp2:3",
    "torus:ns,ns", "torus:ns,r", "torus:r,ns", "torus:r,r",
    "klein:1,1", "klein:1,3", "klein:3,1", "klein:3,3", "csum:1,1,1",
    "g=0,c=0,q=[|]", "g=1,c=1,q=[2,2|1]", "g=2,c=0,q=[0,2;2,2|]",
)
EVAL_ALPHAS = ("1", "-1")
# One presentation of each rank 0, 1, 5, 10, 15 and 20 (the brute-force cap),
# tori and crosscaps mixed, then the records added after them.
ABK_LITERALS = (
    "g=0,c=0,q=[|]",
    "g=0,c=1,q=[|3]",
    "g=1,c=3,q=[2,2|1,3,3]",
    "g=3,c=4,q=[0,2;2,2;2,0|1,1,3,1]",
    "g=5,c=5,q=[2,2;0,0;2,2;0,2;2,0|3,3,1,3,1]",
    "g=6,c=8,q=[2,2;0,2;2,2;2,0;0,0;2,2|1,3,3,1,1,1,3,1]",
    # Ranks 2 and 3, where the walk below the two tallied top levels is
    # empty or one level, and rank 20 with a torus last.
    "g=1,c=0,q=[2,2|]",
    "g=1,c=1,q=[0,2|3]",
    "g=10,c=0,q=[2,2;0,2;2,2;2,0;0,0;2,2;0,0;2,0;0,2;2,2|]",
)

# Argv checks of the installed entry point, kept as records: an @alpha on a
# parenthesized atom scales that atom only; parentheses nested past the cap
# (64), a directory given as a diagram, a repeated bottom directive and an
# empty value in a presentation literal are input errors.  The bad diagram
# lives outside diagrams/, which `eval` sweeps.
ENTRY_POINT = (
    ["--format", "kv", "partition", "(cl(1,0)@alpha=-1) (x) cl(0,1)", "rp2:1"],
    ["partition", "(" * 100 + "cl(1,0)" + ")" * 100, "rp2:1"],
    ["eval", "cl(1,0)", "."],
    ["eval", "cl(1,0)", "tests/golden/invalid_diagrams/bottom_twice.rib"],
    ["abk", "g=0,c=2,q=[|1,,3]"],
)


def commands():
    for alpha in ALPHAS:
        base = ["--format", "kv", "--alpha", alpha]
        for spec in SPECS:
            yield base + ["states", spec]
            yield base + ["classify", spec]
            for surface in SURFACES:
                yield base + ["partition", spec, surface]
            if spec in CHECK_SPECS:
                yield base + ["check", spec]
    for alpha in EVAL_ALPHAS:
        base = ["--format", "kv", "--alpha", alpha]
        for spec in CHECK_SPECS:
            for path in DIAGRAMS:
                yield base + ["eval", spec, path]
    for literal in ABK_LITERALS:
        yield ["--format", "kv", "abk", literal]
    yield from ENTRY_POINT


def record(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    lines = [f"$ halftwist {shlex.join(argv)}", f"exit {code}"]
    lines += out.getvalue().splitlines()
    lines += [f"stderr: {line}" for line in err.getvalue().splitlines()]
    return "\n".join(lines) + "\n"


def _by_command(text: str) -> dict[str, str]:
    records = ("\n" + text).split("\n$ ")[1:]
    return {r.split("\n", 1)[0]: r for r in records}


def test_kv_corpus_is_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = _by_command(CORPUS.read_text(encoding="utf-8"))
    got = _by_command("".join(record(argv) for argv in commands()))
    assert list(got) == list(want), "the corpus commands changed; rewrite it"
    changed = [cmd for cmd in want if got[cmd] != want[cmd]]
    assert not changed, (
        f"{len(changed)} of {len(want)} records differ; first:\n"
        f"want:\n{want[changed[0]]}\ngot:\n{got[changed[0]]}"
    )


if __name__ == "__main__":
    os.chdir(ROOT)
    CORPUS.write_text("".join(record(argv) for argv in commands()), encoding="utf-8")
