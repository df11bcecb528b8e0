"""README examples run as written, checked against the results they state."""
import contextlib
import io
import json
import shlex
from pathlib import Path

from edgepow.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading: str) -> str:
    """The body of the first fenced code block after ``heading``."""
    fenced = README.split(heading + "\n", 1)[1].split("```", 2)[1]
    return fenced.split("\n", 1)[1]


def cli_example(prefix: str):
    """argv of the CLI example that starts with ``prefix``, and its comment."""
    line = next(x for x in block("## CLI").splitlines() if x.startswith(prefix))
    command, _, stated = line.partition("#")
    return shlex.split(command)[1:], stated.strip()


def test_library_quick_start_prints_what_it_states():
    code = block("## Library quick start")
    stated = [line.partition("#")[2].strip() for line in code.splitlines() if "print(" in line]
    out = io.StringIO()
    scope = {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    printed = out.getvalue().splitlines()
    assert printed == ["4 11", "None", "z1*z5 - z2*z4"]
    # a comment may add words after the value, as "None, equivalently" does
    assert all(s.startswith(p) for s, p in zip(stated, printed)) and len(stated) == 3
    report = scope["report"]
    assert not report.ok
    assert None not in (report.witness.u, report.witness.v, report.witness.xi, report.witness.rho)


def test_cli_delta_example(capsys):
    argv, stated = cli_example("edgepow delta cycle:8")
    assert main(argv) == 0
    assert stated == "-> " + capsys.readouterr().out.strip() == "-> 4"


def test_cli_classify_example(capsys):
    argv, stated = cli_example("edgepow classify template:c3path3")
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads(stated.replace(", ...}", "}"))
    assert want == {"sep": True, "rule": "unicyclic(iv)(2)"}
    assert {k: got[k] for k in want} == want
