"""Inputs and operation lists of the three workloads: theta, series and cli.

``inputs(name, seed)`` is the set-up a user pays before the first result:
import moduliq and build the lattices and series the workload feeds it.
``operations(name, inp, runner)`` pairs each call into moduliq with the
check of its output against a reference from ``checks``.

Run as a script (``python3 perfbench/workloads.py --setup theta 1``) it
only builds the inputs and prints its clock; ``run.py`` times that in a
fresh interpreter.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import checks
from spans import TRACE_MARKER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("theta", "series", "cli")

# The skew of each lattice is fixed (so every seed enumerates the same
# tree); the seed flips the signs of basis vectors, which the enumeration
# visits identically.  (generator seed, number of moves b_i += +-b_j)
SKEWS = {"E8": (1, 12), "E6": (5, 12)}
GLUE_PREC = 6
SERIES_PRODUCTS = 8
SERIES_TERMS = 40
INVERSE_DELTA_PREC = 64
DELTA_PREC = 64
ETA_PREC = 40
EISENSTEIN_PREC = 20
OBSTRUCTION_PREC = 14


class Op(NamedTuple):
    name: str
    call: Callable
    check: Callable
    known_fault: Optional[str] = None


# ---------------------------------------------------------------------------
# inputs


def skew_gram(gram, skew_seed, moves, flips):
    """U G U^T for a fixed random unimodular U, then the seeded sign flips."""
    g = [[int(checks.frac(x)) for x in row] for row in gram]
    n = len(g)
    rng = random.Random(skew_seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    h = [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[flips[i] * flips[j] * h[i][j] for j in range(n)] for i in range(n)]


def to_qseries(ref: checks.Series):
    """A reference Series as a moduliq QSeries (an input, not a result)."""
    from moduliq import qq
    from moduliq.qseries import QSeries
    from moduliq.scalars import CycNum

    n_den = math.lcm(1, *(e.denominator for e in ref.terms))
    coeffs = {int(e * n_den): CycNum(qq(c[0]), qq(c[1])) for e, c in ref.terms.items()}
    return QSeries.make(n_den, coeffs, qq(ref.trunc))


def random_series_data(rng):
    """Dense Q(w) coefficients on q^(1/3), small numerators and denominators."""
    start = rng.randrange(-3, 3)
    coeffs = []
    for _ in range(SERIES_TERMS):
        coeffs.append(
            (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        )
    if coeffs[0] == checks.ZERO:
        coeffs[0] = checks.ONE
    return checks.series(
        {F(start + k, 3): c for k, c in enumerate(coeffs)}, F(start + SERIES_TERMS, 3)
    )


class Inputs(NamedTuple):
    lattices: dict
    series: dict
    hermitian: tuple
    products: list  # (reference a, reference b, QSeries a, QSeries b)


def inputs(name, seed) -> Inputs:
    rng = random.Random(seed)
    if name == "cli":
        return Inputs({}, {}, (), [])
    if name == "series":
        products = []
        for _ in range(SERIES_PRODUCTS):
            a, b = random_series_data(rng), random_series_data(rng)
            products.append((a, b, to_qseries(a), to_qseries(b)))
        return Inputs({}, {}, (), products)
    from moduliq import hermitian
    from moduliq.lattices import Lattice, build_standard
    from moduliq import qq

    lat = {n: build_standard(n) for n in ("E8", "E6", "A2", "E6+A2")}
    for base, (skew_seed, moves) in SKEWS.items():
        flips = [rng.choice((1, -1)) for _ in range(lat[base].rank)]
        gram = skew_gram(lat[base].gram, skew_seed, moves, flips)
        lat[base + "~"] = Lattice(tuple(tuple(qq(x) for x in row) for row in gram), name=base + "~")
    herm = hermitian.eisenstein_hermitian_lattice()
    ell = hermitian.basis_minus_one_vector(herm)
    glue = {
        "E6": checks.theta_e6(GLUE_PREC),
        "E6+1": checks.theta_e6_coset(GLUE_PREC),
        "A2": checks.theta_a2(GLUE_PREC),
        "A2+1": checks.theta_a2_coset(GLUE_PREC),
    }
    return Inputs(lat, {k: to_qseries(v) for k, v in glue.items()}, (herm, ell), [])


# ---------------------------------------------------------------------------
# theta: shortvec and the scalars under it do nearly all the work


def theta_operations(inp: Inputs):
    from moduliq import borcherds, hermitian, modforms, shortvec
    from moduliq.scalars import OMEGA

    lat = inp.lattices
    ops = []

    def theta(name, coset, prec, ref):
        label = "" if coset is None else "+" + ",".join(map(str, coset))
        ops.append(
            Op(
                f"theta_series {name}{label} q^{prec}",
                lambda: modforms.theta_series(lat[name], coset, prec),
                lambda out: checks.check_series(out, ref, f"theta {name}{label}"),
            )
        )

    theta("E8", None, 3, checks.theta_e8(3))
    theta("E8~", None, 3, checks.theta_e8(3))
    theta("E6", None, 4, checks.theta_e6(4))
    theta("E6", (1,), 4, checks.theta_e6_coset(4))
    theta("E6", (2,), 4, checks.theta_e6_coset(4))
    theta("E6~", None, 3, checks.theta_e6(3))
    theta("E6~", (1,), 3, checks.theta_e6_coset(3))
    for coset in (None, (1,), (2,)):
        theta("A2", coset, 8, checks.a2_coset_by_class(0 if coset is None else 1, 8))
    candidates = checks.e6a2_coset_candidates(2)
    for coset in ((0, 0), (1, 0), (0, 1), (1, 1)):
        allowed = candidates[:1] if coset == (0, 0) else candidates
        ops.append(
            Op(
                f"theta_series E6+A2+{coset[0]},{coset[1]} q^2",
                lambda coset=coset: modforms.theta_series(lat["E6+A2"], coset, 2),
                lambda out, allowed=allowed, coset=coset: checks.check_theta_one_of(
                    out, allowed, f"theta E6+A2+{coset}"
                ),
            )
        )

    def count(name, coset, norm, want):
        ops.append(
            Op(
                f"count_coset_vectors {name} {coset} {norm}",
                lambda: shortvec.count_coset_vectors(lat[name], coset, norm),
                lambda out: checks.want(out, want, f"vectors of norm {norm} in {name}"),
            )
        )

    count("E8~", None, -2, checks.coefficient(checks.theta_e8(2), 1))
    count("A2", (1,), F(-2, 3), checks.coefficient(checks.theta_a2_coset(1), F(1, 3)))
    count("E6~", (1,), F(-4, 3), checks.coefficient(checks.theta_e6_coset(1), F(2, 3)))
    count("E6", (2,), F(-10, 3), checks.coefficient(checks.theta_e6_coset(2), F(5, 3)))

    roots = {
        "E8": checks.coefficient(checks.theta_e8(2), 1),
        "E6": checks.coefficient(checks.theta_e6(2), 1),
        "A2": checks.coefficient(checks.theta_a2(2), 1),
    }
    roots["E6+A2"] = roots["E6"] + roots["A2"]
    roots["E8~"], roots["E6~"] = roots["E8"], roots["E6"]
    for name, n in roots.items():
        ops.append(
            Op(
                f"root_data {name}",
                lambda name=name: shortvec.root_data(lat[name]),
                lambda out, n=n, name=name: checks.want(tuple(out), (n, n // 2), f"root data of {name}"),
            )
        )

    e6_min = {("4/3", F(-2, 3)): F(checks.coefficient(checks.theta_e6_coset(1), F(2, 3)))}
    a2_min = {("2/3", F(-4, 3)): F(checks.coefficient(checks.theta_a2_coset(1), F(1, 3)))}
    for name, extra in (("E8", {}), ("E6", e6_min), ("A2", a2_min), ("E6+A2", {**e6_min, **a2_min})):
        weight = 12 + roots[name] // 2
        divisor = {("00", F(-2)): F(1), **extra}
        ops.append(
            Op(
                f"quasi_pullback {name}",
                lambda name=name: borcherds.quasi_pullback(lat[name]),
                lambda out, w=weight, d=divisor: checks.check_quasi_pullback(out, w, d),
            )
        )

    herm, ell = inp.hermitian
    ops.append(Op("trace_lattice", lambda: hermitian.trace_lattice(herm), checks.check_trace_lattice))
    for label, xi, order, lattice_ok in (
        ("w", OMEGA, 3, True),
        ("w^2", OMEGA * OMEGA, 3, True),
        ("-w", -OMEGA, 6, False),
    ):
        ops.append(
            Op(
                f"unitary_reflection {label}",
                lambda xi=xi: hermitian.unitary_reflection(herm, ell, xi),
                lambda out, o=order, ok=lattice_ok: checks.check_reflection(out, o, ok),
            )
        )

    s = inp.series
    ops.append(
        Op(
            f"glue identity q^{GLUE_PREC}",
            lambda: s["E6"] * s["A2"] + (s["E6+1"] * s["A2+1"]).scale(2),
            lambda out: checks.check_series(out, checks.theta_e8(GLUE_PREC), "glue identity"),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# series: q-series multiply, invert and eta powers, no lattice enumeration


def series_operations(inp: Inputs):
    from moduliq import modforms, qseries

    ops = [
        Op(
            f"inverse_delta {INVERSE_DELTA_PREC}",
            lambda: qseries.inverse_delta(INVERSE_DELTA_PREC),
            lambda out, ref=checks.inverse_delta_ref(INVERSE_DELTA_PREC): checks.check_inverse_delta(out, ref),
        ),
        Op(
            f"delta_series {DELTA_PREC}",
            lambda: qseries.delta_series(DELTA_PREC),
            lambda out, ref=checks.delta_ref(DELTA_PREC): checks.check_series(out, ref, "Delta"),
        ),
    ]
    for m in (8, 16, 24):
        ops.append(
            Op(
                f"eta_power {m} {ETA_PREC}",
                lambda m=m: qseries.eta_power(m, ETA_PREC),
                lambda out, m=m, ref=checks.eta_power_ref(m, ETA_PREC): checks.check_series(out, ref, f"eta^{m}"),
            )
        )
    for k in (2, 6, 10):
        for label in checks.LABELS:
            ops.append(
                Op(
                    f"eisenstein_level3 {k} {label}",
                    lambda k=k, label=label: modforms.eisenstein_level3(k, label, EISENSTEIN_PREC),
                    lambda out, ref=checks.eisenstein_ref(k, label, EISENSTEIN_PREC), k=k, label=label: (
                        checks.check_series(out, ref, f"E_{k},{label}")
                    ),
                )
            )
    eis_ref = checks.obstruction_eisenstein_ref(OBSTRUCTION_PREC)
    cusp_ref = checks.obstruction_cusp_ref(OBSTRUCTION_PREC)
    ops.append(
        Op(
            f"obstruction_eisenstein {OBSTRUCTION_PREC}",
            lambda: modforms.obstruction_eisenstein(OBSTRUCTION_PREC),
            lambda out: checks.check_vvform(out, eis_ref, "Eisenstein tuple"),
        )
    )
    ops.append(
        Op(
            f"obstruction_cusp_basis {OBSTRUCTION_PREC}",
            lambda: modforms.obstruction_cusp_basis(OBSTRUCTION_PREC),
            lambda out: checks.check_cusp_basis(out, cusp_ref),
        )
    )
    for i, (ref_a, ref_b, a, b) in enumerate(inp.products):
        ops.append(
            Op(
                f"product {i}",
                lambda a=a, b=b: a * b,
                lambda out, ref=checks.ser_mul(ref_a, ref_b), i=i: checks.check_series(out, ref, f"product {i}"),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cli: every documented subcommand as a fresh process with cold caches

CLI_ENTRY = "import sys; from moduliq.cli import main; sys.exit(main())"

CLI_COMMANDS = (
    ("lattice --name L_dm --pairing-table", checks.spec_lattice),
    ("theta --lattice E6 --coset 1 --prec 3", checks.spec_theta_e6),
    ("weil --lattice L_dm --dual", checks.spec_weil),
    ("dimension --weight 10", checks.spec_dimension),
    ("eisenstein --weight 10 --label 1,0", checks.spec_eisenstein),
    ("obstruction", checks.spec_obstruction),
    ("borcherds --input ma", checks.spec_borcherds_ma),
    ("borcherds --input delta", checks.spec_borcherds_delta),
    ("quasi-pullback --lattice E6+A2", checks.spec_quasi_pullback),
    ("kirwan", checks.spec_kirwan),
    ("betti --space MK", checks.spec_betti(checks.BETTI_MK)),
    ("betti --space tor", checks.spec_betti(checks.BETTI_MK)),
    ("betti --space boundary", checks.spec_betti(checks.boundary_betti())),
    ("betti --space IH_BB", checks.spec_betti(checks.CITED_TABLES["IH_BB"])),
    ("ledger", checks.spec_ledger),
    ("t9", checks.spec_t9),
    ("kequiv", checks.spec_kequiv),
    ("luna", checks.spec_luna),
    ("fixtures", checks.spec_fixtures),
)

# Malformed input that must give exit 1 and one 'error:' line.  Each fails
# today on every run, because of the named fault in moduliq.
CLI_FAULTS = (
    (
        "theta --lattice E6 --coset 1,2 --prec 3",
        "exits 0 with coset (1,): modforms.theta_series zips the coset with the invariant factors",
    ),
    (
        "theta --lattice E6 --coset 1 --prec 1/0",
        "ZeroDivisionError traceback: cli.run catches only ValueError and KeyError",
    ),
    (
        "t9 --out perfbench/missing-dir/t9.json",
        "FileNotFoundError traceback: cli.run catches only ValueError and KeyError",
    ),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class CliRunner:
    """Runs one subcommand as a fresh process.

    mode "plain" runs the console-script entry point; "traced" and
    "profiled" run it under perfbench/spans.py, which reports spans or
    profiler self time on a marker line of stderr that ``sink`` receives.
    """

    def __init__(self, mode="plain", sink=None):
        self.mode = mode
        self.sink = sink
        self.env = child_env()

    def __call__(self, argv):
        if self.mode == "plain":
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "spans.py"), "--child", self.mode, "--", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True)
        stderr = []
        for line in proc.stderr.splitlines(keepends=True):
            if line.startswith(TRACE_MARKER):
                if self.sink:
                    self.sink(line[len(TRACE_MARKER):])
            else:
                stderr.append(line)
        return checks.CliResult(proc.returncode, proc.stdout, "".join(stderr))


def cli_operations(runner):
    ops = []
    for args, spec in CLI_COMMANDS:
        argv = args.split() + ["--json"]
        ops.append(Op(f"moduliq {args}", lambda argv=argv: runner(argv), lambda out, spec=spec: checks.check_cli(out, spec)))
    for args, fault in CLI_FAULTS:
        argv = args.split() + ["--json"]
        ops.append(Op(f"moduliq {args}", lambda argv=argv: runner(argv), checks.check_usage_error, fault))
    return ops


def operations(name, inp, runner):
    if name == "theta":
        return theta_operations(inp)
    if name == "series":
        return series_operations(inp)
    return cli_operations(runner)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--setup" or sys.argv[2] not in ("theta", "series"):
        sys.exit("usage: workloads.py --setup theta|series SEED")
    sys.path.insert(0, str(SRC))
    inputs(sys.argv[2], int(sys.argv[3]))
    print(time.perf_counter())
