"""The README's examples, run in document order in a scratch directory: the
Python quick start, the config file and every `groupapprox` command line."""
import contextlib
import io
import pathlib
import re
import shlex

from groupapprox import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    kinds = set()
    for kind, body in re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                                 re.M | re.S):
        kinds.add(kind)
        if kind == "python":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(body, {})
            # each print line states its output in a trailing comment
            want = [line.rsplit("# ", 1)[1] for line in body.splitlines()
                    if line.startswith("print(")]
            assert out.getvalue().splitlines() == want
        elif kind == "ini":
            (tmp_path / "profile.cfg").write_text(body)
        elif kind == "sh":
            for line in body.splitlines():
                if line.startswith("groupapprox "):
                    code = cli.main(shlex.split(line)[1:])
                    capsys.readouterr()
                    assert code == 0, line
    assert kinds >= {"python", "ini", "sh"}
