"""The repository's stdlib-only tools under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps the line


def area(r):
    """One line."""
    # a comment line
    return (math.pi
            * r * r)


class Box:
    """A class docstring."""

    size = "not a docstring"
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    code_lines = _load("code_lines")
    # import, def, the two lines of the return, class, size
    assert code_lines.code_lines(SOURCE) == 6
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("y = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "7\n"


def test_process_cost_stamps_each_stage(monkeypatch, capsys):
    process_cost = _load("process_cost")
    real, runs = process_cost.stamps, []
    monkeypatch.setattr(process_cost, "stamps",
                        lambda command: runs.append(real(command)) or runs[-1])
    assert process_cost.main(["--runs", "2", "info", "--name", "A(1)"]) == 0
    assert len(runs) == 2
    for marks, code in runs:
        # spawn, start-up done, imports done, main returned, reaped
        assert code == 0 and len(marks) == 5 and marks == sorted(marks)
    head, *rows = capsys.readouterr().out.splitlines()
    assert head == "schurlab info --name A(1): median ms of 2 runs, exit code 0"
    assert [row.split()[0] for row in rows] == [*process_cost.STAGES, "total"]
    assert all(float(row.split()[1]) >= 0 for row in rows)
