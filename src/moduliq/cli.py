"""Command-line frontend: every computation as a subcommand.

Output is a human-readable table by default or a deterministic JSON record
{command, inputs, outputs, provenance} with --json; exact rationals print
as p/q and the cube root of unity prints as w.  Exit codes: 0 on success,
2 when a verification subcommand prints a value that misses its entry in
``certified``, 1 on malformed input (one ``error:`` line on stderr).

Every subcommand is one row of COMMANDS: its arguments, a function from the
parsed arguments to (inputs, outputs, provenance), and the certified values
its outputs must meet.  ``run`` does the rest for every row.

A subcommand imports only the layers it runs: each computation layer is a
``_Layer`` that imports its module on first use, so ``moduliq t9`` loads the
ledger and not the lattice enumeration, and ``--help`` loads no layer.  It
builds only its own parser, too: when the first argument names a row,
``run`` adds that row's subparser alone; every other command line (none,
``--help``, a leading option, an unknown subcommand) gets the full tree, so
the help texts and argparse's error lines are those of the full tree.
"""

import argparse
import importlib
import json
import sys
from collections import namedtuple

from ._rational import fmt_q, qq
from . import certified

__all__ = ["COMMANDS", "CommandResult", "main", "run"]


class _Layer:
    """A computation layer of moduliq, imported on first attribute access."""

    def __init__(self, name):
        self._name = f"moduliq.{name}"

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


borcherds, kirwan, lattices, ledger, luna, modforms = map(
    _Layer, ("borcherds", "kirwan", "lattices", "ledger", "luna", "modforms")
)


class CommandResult(namedtuple("CommandResult", "command inputs outputs provenance")):
    """One run's record: the subcommand, its echoed inputs, its outputs and
    the statements they reproduce."""

    __slots__ = ()

    def as_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "outputs": self.outputs,
                "provenance": self.provenance,
            },
            sort_keys=True,
            indent=2,
        )

    def as_text(self) -> str:
        lines = [f"[{self.command}]"]
        for key, value in self.outputs.items():
            lines.append(f"  {key}: {_render(value)}")
        if self.provenance:
            lines.append("  reproduces: " + "; ".join(self.provenance))
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# arguments: each input is parsed and checked once, before its row runs


def _arg(flag, parse=None, **options):
    """An argparse option; parse (text -> value, ValueError if malformed)
    converts it before the row runs."""
    return flag, parse, options


def _rational(text):
    try:
        return qq(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _label(text):
    label = _ints(text)
    if len(label) != 2:
        raise ValueError(f"expected two integers a1,a2, got {len(label)}")
    return label


def _positive(text):
    prec = _rational(text)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {text}")
    return prec


def _prec(default, parse=_rational):
    return _arg("--prec", parse, default=default)


def _standard(text):
    return lattices.build_standard(text)


def _lattice(**options):
    return _arg("--lattice", _standard, **options)


def _int_form(lattice) -> tuple:
    return lattice.int_gram, lattice.gram_scale


def _echo(a, *names) -> dict:
    """The named inputs as given on the command line, before parsing."""
    return {name: a.given[name] for name in names}


def _components(form) -> dict:
    return {label: str(s) for label, s in sorted(form.components.items())}


# ---------------------------------------------------------------------------
# certified values: the printed output must equal a plain value; a test is
# called with the printed output and the whole outputs record


def _at_least(bound):
    return lambda value, outputs: value >= bound


def _count(n):
    return lambda value, outputs: len(value) == n


def _includes(fields):
    return lambda value, outputs: any(fields.items() <= item.items() for item in value)


def _meets(outputs, key, want) -> bool:
    return want(outputs[key], outputs) if callable(want) else outputs[key] == want


# ---------------------------------------------------------------------------
# the subcommands


# fn: parsed args -> (inputs, outputs, provenance); args: _arg triples;
# certified: parsed args -> {output key: value or test}
Command = namedtuple("Command", "name help fn args certified", defaults=((), None))


BORCHERDS_INPUTS = {
    "ma": lambda prec: borcherds.ma_input(prec),
    "delta": lambda prec: borcherds.delta_inverse_form(prec),
    "e4delta": lambda prec: borcherds.e4_over_delta_form(prec),
}
BETTI_TABLES = {
    "MK": lambda: kirwan.kirwan_blowup_table(),
    "tor": lambda: kirwan.toroidal_table(),
    "boundary": lambda: kirwan.invariant_product_cohomology(4),
    "IH_BB": lambda: kirwan.REFERENCE_TABLES["IH_BB"],
}

COMMANDS = (
    Command(
        "lattice", "invariants of a named lattice",
        args=(
            _arg("--name", _standard, required=True),
            _arg("--pairing-table", action="store_true"),
        ),
        fn=lambda a: (_echo(a, "name"), {
            "rank": a.name.rank,
            "det": fmt_q(a.name.det()),
            "even": a.name.is_even(),
            "signature": a.name.signature(),
            "invariant_factors": list(lattices.discriminant_group(a.name).invariant_factors),
            "census": lattices.classify_disc_elements(a.name),
            **({"pairing_table": {
                f"{u}|{v}": list(m)
                for (u, v), m in sorted(lattices.pairing_census(a.name).items())
            }} if a.pairing_table else {}),
        }, []),
    ),
    Command(
        "theta", "coset theta series",
        args=(
            _lattice(required=True),
            _arg("--coset", _ints, default=None, help="comma list, e.g. 1 or 1,2"),
            _prec("3"),
        ),
        fn=lambda a: (
            _echo(a, "lattice", "coset", "prec"),
            {"series": str(modforms.theta_series(a.lattice, a.coset, a.prec))},
            [f"theta expansion of {a.given['lattice']}"],
        ),
        # the printed series must hold the term 240*q; E8's one coset is 0
        certified=lambda a: (
            {"series": lambda series, out: f"{certified.E8_ROOTS}*q" in series.split(" + ")}
            if a.prec > 1 and _int_form(a.lattice) == _int_form(lattices.build_standard("E8"))
            else {}
        ),
    ),
    Command(
        "weil", "symmetrized Weil representation matrices",
        args=(_lattice(default="L_dm"), _arg("--dual", action="store_true")),
        fn=lambda a: (_echo(a, "lattice", "dual"), {
            "labels": list(
                (sym := modforms.weil_rep(a.lattice, dual=a.dual).symmetrized()).labels
            ),
            "T": [[str(x) for x in row] for row in sym.mat_t],
            "S": [[str(x) for x in row] for row in sym.mat_s],
        }, ["symmetrized Weil representation matrices"]),
    ),
    Command(
        "dimension", "vector-valued dimension formula",
        args=(_arg("--weight", type=int, default=10), _lattice(default="L_dm")),
        fn=lambda a: (_echo(a, "weight", "lattice"), {
            "total": (report := modforms.vvmf_dimension_report(
                qq(a.weight), modforms.weil_rep(a.lattice, dual=True).symmetrized()
            )).total,
            "eisenstein": report.eisenstein,
            "cusp": report.cusp,
            "alphas": [fmt_q(x) for x in report.alphas],
        }, [f"obstruction-space dimension ({report.total} = {report.eisenstein} Eisenstein"
            f" + {report.cusp} cusp)"]),
        certified=lambda a: (
            certified.DIMENSION
            if a.weight == 10 and _int_form(a.lattice) == _int_form(lattices.build_standard("L_dm"))
            else {}
        ),
    ),
    Command(
        "eisenstein", "normalized level-3 Eisenstein series",
        args=(
            _arg("--weight", type=int, required=True, choices=(2, 6, 10)),
            _arg("--label", _label, required=True, help="a1,a2 in Z/3 x Z/3"),
            _prec("2", _positive),
        ),
        fn=lambda a: (
            _echo(a, "weight", "label", "prec"),
            {"series": str(modforms.eisenstein_level3(a.weight, a.label, a.prec))},
            ["normalized level-3 Eisenstein expansion"],
        ),
    ),
    Command(
        "obstruction", "weight-10 obstruction basis",
        args=(_prec("2", _positive),),
        fn=lambda a: (_echo(a, "prec"), {
            name: _components(form) for name, form in zip(
                ("eisenstein", "cusp_eta8", "cusp_eta16"),
                (
                    modforms.obstruction_eisenstein(a.prec),
                    *modforms.obstruction_cusp_basis(a.prec),
                ),
            )
        }, ["weight-10 obstruction basis"]),
    ),
    Command(
        "borcherds", "lift weight/divisor and certificate",
        args=(
            _arg("--input", choices=tuple(BORCHERDS_INPUTS), default="ma"),
            _prec("2", _positive),
        ),
        fn=lambda a: (_echo(a, "input", "prec"), {
            "components": _components(form := BORCHERDS_INPUTS[a.input](a.prec)),
            "weight": fmt_q((lift := borcherds.lift_weight_divisor(form))[0]),
            "divisor": str(lift[1]),
            **({"certificate": {
                "exists": (cert := borcherds.product_existence(borcherds.HeegnerCombo.make({
                    (label, qq(norm)): mult
                    for (label, norm), mult in certified.MA_DIVISOR.items()
                }))).exists,
                "weight": fmt_q(cert.weight) if cert.exists else None,
            }} if a.input == "ma" else {}),
        }, ["product weight and divisor via lift and pairing routes"]),
        # the certified weight, and a computed cross-check: the pairing route
        # reproduces the lift's weight
        certified=lambda a: {
            "weight": certified.MA_WEIGHT,
            "certificate": lambda cert, out: cert == {"exists": True, "weight": out["weight"]},
        } if a.input == "ma" else {},
    ),
    Command(
        "quasi-pullback", "quasi-pullback weight and divisor",
        args=(_lattice(required=True),),
        fn=lambda a: (_echo(a, "lattice"), {
            "weight": fmt_q((qp := borcherds.quasi_pullback(a.lattice))[0]),
            "divisor": str(qp[1]),
        }, ["quasi-pullback weight = 12 + positive roots"]),
    ),
    Command(
        "ma-input", "the theta*theta/Delta input tuple",
        args=(_prec("2"),),
        fn=lambda a: (
            _echo(a, "prec"),
            _components(borcherds.ma_input(a.prec)),
            ["theta * theta / Delta input tuple"],
        ),
    ),
    Command(
        "kirwan", "equivariant series and corrections",
        fn=lambda a: ({}, {
            "weights": (weights := kirwan.binary_form_weights(12)),
            "min_2d_beta": kirwan.kirwan_strata(12).min_double_codim,
            "equivariant_series": str(series := kirwan.equivariant_series_ss(12, 10)),
            "main_correction": str(main := kirwan.correction_main(10)),
            "extra_term_bound": kirwan.correction_extra_bound(
                [w for w in weights if w not in (0, 2, -2)], [2, -2, 4, -4, 6, -6, 8, -8, 10, -10]
            ),
            "blowup_series": str(series + main),
        }, ["equivariant series and correction terms"]),
        certified=lambda a: {
            "min_2d_beta": _at_least(certified.MIN_DOUBLE_CODIM),
            "extra_term_bound": _at_least(certified.EXTRA_TERM_BOUND),
        },
    ),
    Command(
        "betti", "Betti tables",
        args=(_arg("--space", choices=tuple(BETTI_TABLES), required=True),),
        fn=lambda a: (
            _echo(a, "space"),
            {"table": list(BETTI_TABLES[a.space]().even())},
            [kirwan.REFERENCE_CITATIONS.get(a.space, f"Betti table of {a.space}")],
        ),
        certified=lambda a: {"table": certified.BETTI_TABLE} if a.space in ("MK", "tor") else {},
    ),
    Command(
        "ledger", "canonical-bundle ledger (verification)",
        fn=lambda a: ({}, {
            "kirwan_exceptional_coefficient": fmt_q(ledger.kirwan_exceptional_coefficient()),
            "discriminant_coefficient": fmt_q(
                ledger.solve_unknown(ledger.hassett_keel_relations("discriminant"))
            ),
            "pullback_multiplicity": fmt_q(
                ledger.solve_unknown(ledger.hassett_keel_relations("pullback"))
            ),
            "normal_bundle": [fmt_q(x) for x in ledger.normal_bundle_bidegree()],
            "discrepancy": fmt_q(ledger.kirwan_discrepancy()),
            "conflicts": list(
                (report := ledger.consistency_report(ledger.section4_relations())).conflicts
            ),
            "repairs": [
                {"relation": r[0], "class": r[1], "side": r[2], "value": fmt_q(r[3])}
                for r in report.repairs
            ],
        }, ["canonical-bundle ledger and its single conflict"]),
        certified=lambda a: {
            "kirwan_exceptional_coefficient": certified.KIRWAN_EXCEPTIONAL,
            "discrepancy": certified.DISCREPANCY,
            "conflicts": _count(certified.LEDGER_CONFLICTS),
            "repairs": _includes(certified.LEDGER_REPAIR),
        },
    ),
    Command(
        "t9", "top self-intersection of the boundary",
        fn=lambda a: ({}, {
            "T9": fmt_q(ledger.top_intersection_T9()),
            "component_count": (factors := ledger.top_intersection_factors())[0],
            "top_coefficient": factors[1],
        }, [f"top self-intersection {certified.T9} of the toroidal boundary"]),
        certified=lambda a: {"T9": certified.T9},
    ),
    Command(
        "kequiv", "3-adic K-equivalence obstruction (verification)",
        fn=lambda a: ({}, {
            "required_delta9": fmt_q((report := ledger.k_equiv_obstruction()).delta9_required),
            "valuation_at_3": report.valuation_at_3,
            "contradiction": report.contradiction,
        }, ["3-adic obstruction to K-equivalence"]),
        certified=lambda a: {"valuation_at_3": certified.VALUATION_AT_3, "contradiction": True},
    ),
    Command(
        "luna", "slice discriminant certificates (verification)",
        fn=lambda a: ({}, {
            "sextic_terms": len(disc := luna.sextic_discriminant()),
            "epsilon5_coefficient": disc.terms[(0, 0, 0, 0, 5)],
            "total_degrees": disc.total_degrees(),
            "isobaric_weight": disc.weighted_degrees(luna.SEXTIC_WEIGHTS),
            "disc12_order": (order := luna.disc12_vanishing_order())["order"],
            "direction": [fmt_q(x) for x in order["direction"]],
        }, ["slice discriminant certificates"]),
        certified=lambda a: {
            "epsilon5_coefficient": certified.SEXTIC_EPSILON5,
            "isobaric_weight": [certified.SEXTIC_ISOBARIC_WEIGHT],
            "disc12_order": certified.DISC12_ORDER,
        },
    ),
    Command(
        "fixtures", "cited reference tables",
        fn=lambda a: ({}, {
            name: {"table": list(table.even()), "citation": kirwan.REFERENCE_CITATIONS[name]}
            for name, table in kirwan.REFERENCE_TABLES.items()
        }, sorted(kirwan.REFERENCE_CITATIONS.values())),
    ),
)


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input too: one ``error:`` line, exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _build_parser(commands) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moduliq",
        description="Exact lattice, modular-form, and moduli-ledger computations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--out", metavar="FILE", help="write the JSON record to FILE")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    for cmd in commands:
        p = sub.add_parser(cmd.name, parents=[common], help=cmd.help)
        for flag, _parse, options in cmd.args:
            p.add_argument(flag, **options)
        p.set_defaults(command=cmd)
    return parser


def _execute(cmd: Command, args):
    """Parse the row's inputs, run it, and list the certified values it misses."""
    args.given = dict(vars(args))
    for flag, parse, _options in cmd.args:
        dest = flag[2:].replace("-", "_")
        if parse and args.given[dest] is not None:
            try:
                setattr(args, dest, parse(args.given[dest]))
            except ValueError as exc:
                raise ValueError(f"argument {flag}: {exc}") from None
    inputs, outputs, provenance = cmd.fn(args)
    result = CommandResult(cmd.name, _jsonable(inputs), _jsonable(outputs), provenance)
    wanted = cmd.certified(args) if cmd.certified else {}
    missed = [key for key, want in wanted.items() if not _meets(result.outputs, key, want)]
    return result, missed


def run(argv):
    """Execute a command line; returns (CommandResult or None, exit code)."""
    named = [cmd for cmd in COMMANDS if argv and cmd.name == argv[0]]
    parser = _build_parser(named or COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, 1 if exc.code else 0
    cmd = getattr(args, "command", None)
    if cmd is None:
        parser.print_help()
        return None, 1
    try:
        result, missed = _execute(cmd, args)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    for key in missed:
        print(f"certified value missed: {key} = {result.outputs[key]}", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(result.as_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return None, 1
    print(result.as_json() if args.json else result.as_text())
    return result, 2 if missed else 0


def main() -> int:
    return run(sys.argv[1:])[1]


if __name__ == "__main__":
    sys.exit(main())
