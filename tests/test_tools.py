import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_outputs_on_the_checkout_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_outputs.py"), ROOT, ROOT,
         "--seeds", "1", "--workload", "closed-form"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "6 commands, 0 with a difference or a failed check\n"


def test_same_values_on_the_checkout_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_values.py"), ROOT, ROOT],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "2712 calls, 0 with a difference\n"


def test_same_values_reports_the_first_difference(tmp_path):
    # a tree whose refusal of a dicke k out of range reads differently
    shutil.copytree(os.path.join(ROOT, "src", "qollide"), tmp_path / "src" / "qollide",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "qollide" / "errors.py"
    source = path.read_text()
    assert source.count('f"{name}: must be in {low}..') == 1
    path.write_text(source.replace('f"{name}: must be in {low}..', 'f"{name}: must lie in {low}..'))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_values.py"), ROOT, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "first difference: ladder_weights N=1 dicke k=2",
        "  parent: ValidationError: k: must be in 0..1, got 2",
        "  change: ValidationError: k: must lie in 0..1, got 2",
        "2712 calls, 236 with a difference",
    ]


def test_same_values_encodes_a_dataclass_and_a_record_alike():
    import dataclasses

    from qollide.utils import Record

    spec = importlib.util.spec_from_file_location(
        "same_values", os.path.join(ROOT, "tools", "same_values.py")
    )
    same_values = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_values)

    class Params(Record, frozen=True, eq=True):
        g: float
        tau: float
        omega0: float = 1.0

    OldParams = dataclasses.make_dataclass("Params", ["g", "tau", ("omega0", float, 1.0)],
                                           frozen=True)
    encoded = same_values._encode(Params(0.1, 2.0))
    assert encoded == same_values._encode(OldParams(0.1, 2.0))
    assert encoded == same_values._encode((0.1, 2.0, 1.0))
    assert encoded != same_values._encode(Params(0.1, 2.0, 3.0))


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "change, found",
    [
        (b"t,x\n0,1\n1,2\n", (0.0, 0.0)),
        (b"t,x\n0,1.5\n1,-2\n", (4.0, 2.0)),
        (b"t,x\n1e-16,1\n1,2\n", (1e-16, 1.0)),
        (b"t,x\n0,nan\n1,2\n", (math.inf, math.inf)),
        (b"t,x\n-0,1.0\n1,2\n", (0.0, 0.0)),
        (b"t,x\n0,1\n", None),
        (b"t,x\n0,1,0\n1,2\n", None),
        (b"t,y\n0,1\n1,2\n", None),
    ],
    ids=["same", "numbers", "from-zero", "nan", "spelling", "rows", "fields", "text"],
)
def test_csv_difference(same_outputs, change, found):
    assert same_outputs.csv_difference(b"t,x\n0,1\n1,2\n", change) == found


def test_csv_report_one_line_per_differing_csv(same_outputs):
    parent = {"a.csv": b"1,2\n", "b.csv": b"1\n", "c.json": b"{}", "d.csv": None}
    change = {"a.csv": b"1,2.5\n", "b.csv": b"1\n", "c.json": b"[]", "d.csv": b"1\n"}
    assert same_outputs.csv_report(parent, change) == [
        "  a.csv: largest difference 0.5 absolute, 0.2 relative"
    ]
    assert same_outputs.csv_report({"a.csv": b"1\n"}, {"a.csv": b"1,2\n"}) == [
        "  a.csv: layout differs"
    ]


def test_same_outputs_reports_each_differing_csv(tmp_path):
    # a tree that writes trajectories with 16 significant digits, not 17
    shutil.copytree(os.path.join(ROOT, "src", "qollide"), tmp_path / "src" / "qollide",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "qollide" / "dynamics.py"
    source = path.read_text()
    assert source.count('["%.17g"] * len(TRAJECTORY_CSV_HEADER') == 1
    path.write_text(source.replace('["%.17g"] * len(TRAJECTORY', '["%.16g"] * len(TRAJECTORY'))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_outputs.py"), ROOT, str(tmp_path),
         "--seeds", "1", "--workload", "closed-form"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    at = lines.index("seed 1 closed-form/analytic-dicke-64: analytic-dicke-64.csv")
    found = re.fullmatch(
        r"  analytic-dicke-64\.csv: largest difference (\S+) absolute, (\S+) relative", lines[at + 1]
    )
    assert found and 0.0 < float(found[2]) < 1e-15, lines[at + 1]
    # the figures' golden check fails; each of their CSV files has its line
    assert sum(line.startswith("  figures/") for line in lines) == 11
    assert lines[-1] == "6 commands, 2 with a difference or a failed check"


def test_command_costs_on_the_cheap_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "command_costs.py"), ROOT, ROOT,
         "--workload", "closed-form", "--reps", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, units, *lines = proc.stdout.splitlines()
    assert header.split() == ["command", "raw_ms", "raw_ms", "lower", "rss_mb", "rss_mb", "diff"]
    assert units.split() == ["parent", "change"] * 2
    assert len(lines) == 6  # the workload's commands, none failed
    (line,) = [line for line in lines if line.startswith("closed-form/coeffs-thermal-hec-64 ")]
    fields = line.split()[1:]
    raw_p, raw_c = map(float, fields[:2])
    rss_p, rss_c, rss_d = map(float, fields[3:])
    # a cold CLI process takes tens of milliseconds and tens of megabytes
    assert 10.0 < min(raw_p, raw_c) and 10.0 < min(rss_p, rss_c) < 1000.0
    assert abs(rss_d - (rss_c - rss_p)) <= 0.01
    wins, pairs = map(int, fields[2].split("/"))
    assert pairs == 2 and 0 <= wins <= pairs


def test_command_costs_row_of_known_samples():
    spec = importlib.util.spec_from_file_location(
        "command_costs", os.path.join(ROOT, "tools", "command_costs.py")
    )
    command_costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(command_costs)
    # (CPU s, max RSS KiB) per repetition: the change's CPU is lower in the
    # first and third pairs only, although its median is higher
    samples = {
        "parent": [(0.120, 30720), (0.100, 30720), (0.140, 31744)],
        "change": [(0.110, 30720), (0.130, 31744), (0.130, 31744)],
    }
    fields = command_costs.row("w/c", samples).split()
    assert fields == ["w/c", "120.0", "130.0", "2/3", "30.00", "31.00", "+1.00"]
    header = command_costs.HEADER.splitlines()[0]
    assert len(header.split()) == len(fields)


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
