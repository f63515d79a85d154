"""Self-test of the benchmark's output checks and input generator.

    python3 perfbench/selftest.py [--seed N]

For every workload it runs the commands once in-process and confirms that
each check accepts the real output and that a traced pass writes the same
bytes.  Then it corrupts each output file in turn (a perturbed trajectory
or table row, a perturbed JSON number such as a wrong classify count, a
flipped digit in a figure CSV) and confirms that the command's check
rejects it, and that a changed output fails the byte-identity rule that
catches irreproducible (for example stochastic) runs.  Finally it confirms
that a seed regenerates identical inputs and that another seed does not.
Exits 0 when every property holds.
"""

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import spans
import workloads
from reference import CheckError


def perturb(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if isinstance(value, int):
        return value + 1
    return value + 1e-6 * max(1.0, abs(value))


def corrupt_json(obj):
    """Perturb the last numeric leaf."""
    items = list(obj.items()) if isinstance(obj, dict) else list(enumerate(obj))
    for key, value in reversed(items):
        if isinstance(value, (dict, list)):
            if corrupt_json(value):
                return True
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            obj[key] = perturb(value)
            return True
    return False


def corrupt_file(path, flip_digit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        obj = json.loads(text)
        if not corrupt_json(obj):
            raise ValueError(f"{path}: no number to corrupt")
        text = json.dumps(obj)
    elif flip_digit:
        # one digit in the middle of the file, as a bit of storage damage would
        i = len(text) // 2
        while not text[i].isdigit():
            i += 1
        text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]
    else:
        # perturb the third field of a middle data row
        lines = text.split("\n")
        mid = len(lines) // 2
        row = lines[mid].split(",")
        if "j" in row[2]:
            z = complex(row[2])
            row[2] = str(complex(perturb(z.real), z.imag))
        else:
            row[2] = repr(perturb(float(row[2])))
        lines[mid] = ",".join(row)
        text = "\n".join(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def input_signature(commands, in_dir):
    files = {}
    for name in sorted(os.listdir(in_dir)):
        with open(os.path.join(in_dir, name), "rb") as fh:
            files[name] = fh.read()
    return [c.argv for c in commands], files


def main(argv=None):
    parser = argparse.ArgumentParser(description="self-test of the benchmark")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    cli = run.import_program()
    root = run.fresh_dir(os.path.join(run.WORK, "selftest"))
    problems = []
    checked = 0

    for name in workloads.WORKLOADS:
        in_dir = os.path.join(root, name, "inputs")
        out = os.path.join(root, name, "out")
        commands = workloads.build(name, args.seed, in_dir, run.GOLDEN)

        judge = run.Judge(commands)
        run.warm_pass(cli, commands, in_dir, out, judge)
        if judge.failed:
            problems += [f"{name}: clean output rejected: {e}" for e in judge.errors]
            continue
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.warm_pass(cli, commands, in_dir, out, judge, tracer)
        finally:
            tracer.uninstall()
        if judge.failed or not tracer.totals()["cli.main.s"]:
            problems.append(f"{name}: traced pass differs: {judge.errors}")

        for index, cmd in enumerate(commands):
            for output in cmd.outputs:
                for flip_digit in (False, True) if output.startswith("figures") else (False,):
                    bad = os.path.join(root, name, "corrupt")
                    shutil.rmtree(bad, ignore_errors=True)
                    shutil.copytree(out, bad)
                    corrupt_file(os.path.join(bad, output), flip_digit)
                    checked += 1
                    try:
                        cmd.check(bad)
                        problems.append(f"{name}/{cmd.name}: check accepted corrupted {output}")
                    except CheckError:
                        pass
                    before = judge.failed
                    judge.judge(index, None, bad)
                    if judge.failed != before + 1:
                        problems.append(f"{name}/{cmd.name}: changed {output} passed as a repeat")

        again = os.path.join(root, name, "inputs-again")
        other = os.path.join(root, name, "inputs-other")
        same = input_signature(workloads.build(name, args.seed, again, run.GOLDEN), again)
        diff = input_signature(workloads.build(name, args.seed + 1, other, run.GOLDEN), other)
        first = input_signature(commands, in_dir)
        if same != first:
            problems.append(f"{name}: seed {args.seed} did not regenerate identical inputs")
        if diff == first:
            problems.append(f"{name}: seeds {args.seed} and {args.seed + 1} gave identical inputs")

    shutil.rmtree(root, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {checked} corrupted outputs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
