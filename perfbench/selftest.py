#!/usr/bin/env python3
"""Self-test of the reference checks.

    python3 perfbench/selftest.py [theta|series|cli ...]

Runs each workload's operations once.  Every real output must pass its
check (the known faults must fail), and every corrupted output -- an
off-by-one count or coefficient, a coefficient multiplied by w, a flipped
flag, a changed field of a --json record, a wrong exit code -- must make
the runner count the operation as failed.  Exits 1 if any of that does not
hold.
"""

import copy
import dataclasses
import json
import random
import sys

import checks
import run
import workloads


def counted_failed(op, output) -> bool:
    """Feed one output through the benchmark's own pass and tally."""
    tally = run.Tally()
    fake = op._replace(call=lambda: output)
    run.run_pass([fake], random.Random(0), {}, tally)
    return tally.failed == 1


# ---------------------------------------------------------------------------
# corruptions of in-process outputs


def corrupt_series(s, at="first", how="plus_one"):
    from moduliq.qseries import QSeries
    from moduliq.scalars import OMEGA

    exps = list(s.exponents())
    coeffs = {int(checks.frac(e) * s.n_den): s.coeff(e) for e in exps}
    if not coeffs:
        return QSeries.make(1, {0: 1}, s.trunc)
    key = min(coeffs) if at == "first" else max(coeffs)
    coeffs[key] = coeffs[key] + 1 if how == "plus_one" else coeffs[key] * OMEGA
    return QSeries.make(s.n_den, coeffs, s.trunc)


def corrupt_form(form, label, how):
    comps = dict(form.components)
    comps[label] = corrupt_series(comps[label], "last", how)
    return dataclasses.replace(form, components=comps)


def corruptions(out):
    """(description, corrupted output) pairs for one program output."""
    from moduliq.borcherds import HeegnerCombo
    from moduliq.hermitian import ReflectionReport
    from moduliq.lattices import Lattice
    from moduliq.modforms import VVForm
    from moduliq.qseries import QSeries

    if isinstance(out, bool):
        return [("negated", not out)]
    if isinstance(out, int):
        return [("off by one", out + 1)]
    if isinstance(out, QSeries):
        return [
            ("first coefficient off by one", corrupt_series(out, "first", "plus_one")),
            ("last coefficient times w", corrupt_series(out, "last", "times_w")),
        ]
    if isinstance(out, VVForm):
        return [
            ("h_00 off by one", corrupt_form(out, "00", "plus_one")),
            ("h_4/3 coefficient times w", corrupt_form(out, "4/3", "times_w")),
        ]
    if isinstance(out, Lattice):
        gram = [list(r) for r in out.gram]
        gram[0][0] = gram[0][0] + 1
        return [("odd diagonal entry", dataclasses.replace(out, gram=tuple(tuple(r) for r in gram)))]
    if isinstance(out, ReflectionReport):
        return [
            ("lattice flag flipped", dataclasses.replace(out, preserves_lattice=not out.preserves_lattice)),
            ("order off by one", dataclasses.replace(out, order=out.order + 1)),
        ]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], HeegnerCombo):
        weight, combo = out
        entries = combo.as_dict()
        key = next(iter(entries))
        entries[key] = entries[key] + 1
        return [("weight off by one", (weight + 1, combo)), ("multiplicity off by one", (weight, HeegnerCombo.make(entries)))]
    if isinstance(out, tuple) and out and isinstance(out[0], VVForm):
        return [(f"first tuple: {d}", (c,) + out[1:]) for d, c in corruptions(out[0])]
    if isinstance(out, tuple) and out and isinstance(out[0], int):
        return [("first entry off by one", (out[0] + 1,) + out[1:])]
    raise TypeError(f"no corruption for {type(out).__name__}")


# ---------------------------------------------------------------------------
# corruptions of CLI results


def perturb(node):
    """The same JSON value with its first leaf changed."""
    if isinstance(node, dict):
        key = next(iter(node))
        return {**node, key: perturb(node[key])}
    if isinstance(node, list):
        return [perturb(node[0])] + node[1:]
    if isinstance(node, bool):
        return not node
    if isinstance(node, int):
        return node + 1
    for i, ch in enumerate(node):
        if ch.isdigit():
            return node[:i] + str((int(ch) + 1) % 10) + node[i + 1 :]
    return node + "x"


def cli_corruptions(op, result):
    if op.known_fault:
        return [
            ("exit 0", checks.CliResult(0, "{}", "")),
            ("traceback", checks.CliResult(1, "", "Traceback (most recent call last):\nValueError: x\n")),
        ]
    record = op.check(result)  # the real record passes and lists the fields its check read
    out = [("exit 2", result._replace(code=2))]
    for path in dict.fromkeys(record.read):
        data = copy.deepcopy(record.data)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = perturb(node[path[-1]])
        out.append((f"{'.'.join(map(str, path))} changed", result._replace(stdout=json.dumps(data))))
    return out


def main(names):
    sys.path.insert(0, str(workloads.SRC))
    problems = 0
    for name in names:
        inp = workloads.inputs(name, 1)
        ops = workloads.operations(name, inp, workloads.CliRunner())
        for op in ops:
            output = op.call()
            real_fails = counted_failed(op, output)
            if real_fails != bool(op.known_fault):
                problems += 1
                print(f"FAIL {name}: {op.name}: real output {'failed' if real_fails else 'passed'}")
            if op.known_fault:
                mended = checks.CliResult(1, "", "error: malformed input\n")
                if counted_failed(op, mended):
                    problems += 1
                    print(f"FAIL {name}: {op.name}: a mended one-line error is counted as failed")
            if real_fails and not op.known_fault:
                continue
            bad = cli_corruptions(op, output) if name == "cli" else corruptions(output)
            missed = [what for what, corrupted in bad if not counted_failed(op, corrupted)]
            for what in missed:
                print(f"FAIL {name}: {op.name}: {what} was not counted as failed")
            problems += len(missed)
            print(f"{'ok  ' if not missed else 'FAIL'} {name}: {op.name}: {len(bad) - len(missed)}/{len(bad)} corruptions counted as failed")
    print("selftest " + ("passed" if not problems else f"found {problems} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
