import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_outputs_on_the_checkout_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_outputs.py"), ROOT, ROOT,
         "--seeds", "1", "--workload", "closed-form"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "6 commands, 0 with a difference or a failed check\n"


def test_src_lines_kinds_sum_to_each_line_count():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py"), ROOT],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "lines"]
    src = os.path.join(ROOT, "src", "qollide")
    assert sorted(row[0] for row in rows) == sorted(n for n in os.listdir(src) if n.endswith(".py"))
    sums = [0] * 5
    for name, *counts in rows:
        counts = [int(c) for c in counts]
        with open(os.path.join(src, name), "rb") as fh:
            assert counts[4] == fh.read().count(b"\n")  # wc -l
        assert sum(counts[:4]) == counts[4] and min(counts) >= 0
        sums = [a + b for a, b in zip(sums, counts)]
    assert total == ["total", *map(str, sums)]


def test_src_lines_kinds_of_a_known_module(tmp_path):
    pkg = tmp_path / "src" / "qollide"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "S = '''not\n"
        "a docstring'''\n"
        "\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n'
        '        lines."""\n'
        "        #: attribute comment\n"
        "        return 0\n"
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[1] == ["m.py", "6", "6", "2", "4", "18"]
    assert rows[2] == ["total", "6", "6", "2", "4", "18"]
