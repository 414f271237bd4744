import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduliq.cli import run
from moduliq.lattices import WALK_LIMIT
from moduliq.qseries import TERM_LIMIT


def _capture(capsys, argv):
    result, code = run(argv)
    out = capsys.readouterr().out
    return result, code, out


def test_theta_subcommand(capsys):
    result, code, out = _capture(
        capsys, ["theta", "--lattice", "E6", "--coset", "1", "--prec", "3"]
    )
    assert code == 0
    assert "27*q^(2/3) + 216*q^(5/3)" in out


def test_betti_subcommand(capsys):
    result, code, out = _capture(capsys, ["betti", "--space", "MK"])
    assert code == 0
    assert result.outputs["table"] == [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
    _, _, out_tor = _capture(capsys, ["betti", "--space", "tor"])
    assert "(1, 2, 3, 4, 5, 5, 4, 3, 2, 1)" in out_tor


def test_kequiv_subcommand(capsys):
    result, code, out = _capture(capsys, ["kequiv"])
    assert code == 0
    assert result.outputs["valuation_at_3"] == -22
    assert result.outputs["contradiction"] is True


def test_ledger_subcommand(capsys):
    result, code, _ = _capture(capsys, ["ledger"])
    assert code == 0
    assert result.outputs["kirwan_exceptional_coefficient"] == "4"
    assert result.outputs["discrepancy"] == "2/3"
    assert len(result.outputs["conflicts"]) == 1


def test_json_output_schema(capsys):
    result, code, out = _capture(capsys, ["t9", "--json"])
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"command", "inputs", "outputs", "provenance"}
    assert record["outputs"]["T9"] == "7/103680"


def test_repeated_runs_identical(capsys):
    _, _, first = _capture(capsys, ["weil", "--lattice", "L_dm", "--dual", "--json"])
    _, _, second = _capture(capsys, ["weil", "--lattice", "L_dm", "--dual", "--json"])
    assert first == second
    assert first.isascii()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    _, code, _ = _capture(capsys, ["dimension", "--weight", "10", "--out", str(target)])
    assert code == 0
    record = json.loads(target.read_text())
    assert record["outputs"]["total"] == 4
    assert record["outputs"]["eisenstein"] == 2


def test_usage_errors(capsys):
    for argv in (
        ["no-such-command"],
        ["theta"],  # missing required --lattice
        ["lattice", "--name"],  # no value
        ["lattice", "--name", "E7"],
        ["eisenstein", "--weight", "4", "--label", "1,0"],  # not a choice
    ):
        _usage_error(capsys, argv)


def test_fixtures_cite_sources(capsys):
    result, code, out = _capture(capsys, ["fixtures"])
    assert code == 0
    assert "Kirwan-Lee-Weintraub" in out
    assert result.outputs["H_ordered_K"]["table"][1] == 474


def test_borcherds_verification(capsys):
    result, code, _ = _capture(capsys, ["borcherds", "--input", "ma"])
    assert code == 0
    assert result.outputs["weight"] == "51"
    assert result.outputs["certificate"]["exists"] is True


def test_quasi_pullback_subcommand(capsys):
    result, code, _ = _capture(capsys, ["quasi-pullback", "--lattice", "E8"])
    assert code == 0
    assert result.outputs["weight"] == "132"


def _usage_error(capsys, argv):
    """Exit 1, nothing on stdout, and one 'error:' line on stderr."""
    result, code = run(argv)
    captured = capsys.readouterr()
    assert (result, code, captured.out) == (None, 1, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err
    return lines[0]


def test_coset_of_wrong_length_is_rejected(capsys):
    # E6 has one invariant factor; (1, 2) used to be truncated to (1,)
    _usage_error(capsys, ["theta", "--lattice", "E6", "--coset", "1,2", "--prec", "3"])


def test_prec_must_be_rational(capsys):
    for argv in (
        ["theta", "--lattice", "E6", "--coset", "1", "--prec", "1/0"],
        ["eisenstein", "--weight", "6", "--label", "1,0", "--prec", "x"],
        ["obstruction", "--prec", "1/0"],
        ["borcherds", "--prec", "2/0"],
        ["ma-input", "--prec", "one"],
    ):
        line = _usage_error(capsys, argv)
        assert "--prec" in line


def test_lattice_scale_must_have_a_nonzero_denominator(capsys):
    # the error line names the argument that holds the scale
    for argv in (
        ["lattice", "--name", "A2(1/0)", "--json"],
        ["lattice", "--name", "U(2/0)+A2"],
        ["theta", "--lattice", "E6+A2(1/0)", "--prec", "2"],
    ):
        line = _usage_error(capsys, argv)
        assert line.startswith(f"error: argument {argv[1]}: "), line
        assert "zero denominator" in line


def test_lattice_name_needs_every_summand(capsys):
    # an empty summand used to be dropped: 'A2+' ran as A2, '+A2++E8' as A2+E8
    for argv in (
        ["lattice", "--name", "A2+"],
        ["lattice", "--name", "+A2++E8", "--json"],
        ["theta", "--lattice", "E6++A2", "--prec", "2"],
        ["quasi-pullback", "--lattice", " + "],
    ):
        line = _usage_error(capsys, argv)
        assert line == f"error: argument {argv[1]}: empty summand in {argv[2]!r}", line



def test_lattice_name_refuses_an_unknown_atom(capsys):
    # 'A2((3)' used to fail with the Fraction parser's "Invalid literal" message
    for argv, atom in (
        (["lattice", "--name", "A2((3)"], "A2("),
        (["theta", "--lattice", "E7+A2", "--prec", "2"], "E7"),
    ):
        line = _usage_error(capsys, argv)
        assert line == f"error: argument {argv[1]}: unknown lattice name {atom!r}", line


def test_lattice_name_rescales_left_to_right(capsys):
    # a summand splits at its last '(': A2(3)(2) is A2(6) under its own name;
    # it used to fail with "Invalid literal for Fraction: '3)(2'"
    nested, code, _ = _capture(capsys, ["lattice", "--name", "A2(3)(2)", "--json"])
    once, _, _ = _capture(capsys, ["lattice", "--name", "A2(6)", "--json"])
    assert code == 0
    assert nested.inputs == {"name": "A2(3)(2)"}
    assert nested.outputs == once.outputs

def test_theta_needs_an_even_lattice(capsys):
    # A1(1/2) is odd: its theta series 1 + 2q^(1/2) + ... is off the grid
    # -q/2 + Z; --prec 1 used to print '1' and --prec 2 'error: 1/2 is not an integer'
    for prec in ("1", "2"):
        line = _usage_error(capsys, ["theta", "--lattice", "A1(1/2)", "--prec", prec])
        assert line == "error: theta series needs an even lattice"


def test_one_subparser_reads_as_the_full_tree(capsys):
    # run builds only the named row's subparser; its usage errors must be
    # those of the full tree
    from moduliq import cli

    for argv in (
        ["theta"],
        ["lattice", "--name"],
        ["eisenstein", "--weight", "4", "--label", "1,0"],
        ["betti", "--space", "X"],
        ["t9", "--bogus"],
        ["kequiv", "extra"],
        ["weil", "--dual", "--lattice"],
    ):
        assert run(argv) == (None, 1)
        one = capsys.readouterr()
        with pytest.raises(SystemExit):
            cli._build_parser(cli.COMMANDS).parse_args(argv)
        full = capsys.readouterr()
        assert (one.out, one.err) == (full.out, full.err)


def test_prec_below_the_series_start(capsys):
    # 1/Delta starts at q^-1: below it there is no series to invert
    for argv in (["borcherds", "--input", "delta", "--prec", "-3"], ["ma-input", "--prec", "-5"]):
        _usage_error(capsys, argv)


def test_obstruction_and_borcherds_prec_must_be_positive(capsys):
    # a non-positive --prec used to end in 'coefficient at q^0 is beyond the
    # truncation 0', read from the series built at that precision
    inputs = ("ma", "delta", "e4delta")
    for argv in (["obstruction"], *(["borcherds", "--input", x] for x in inputs)):
        for prec in ("0", "-5", "-0.5"):
            line = _usage_error(capsys, [*argv, "--prec", prec])
            assert line == f"error: argument --prec: precision must be positive, got {prec}"
    # the input tuple alone is printed at precision 0
    assert _capture(capsys, ["ma-input", "--prec", "0"])[1] == 0


def test_theta_prec_must_be_positive(capsys):
    for prec in ("0", "-1"):
        assert "precision" in _usage_error(capsys, ["theta", "--lattice", "E6", "--prec", prec])


def test_prec_is_echoed_as_given(capsys):
    result, code, _ = _capture(capsys, ["theta", "--lattice", "A2", "--prec", "3/2"])
    assert code == 0
    assert result.inputs["prec"] == "3/2"


def test_label_needs_two_integers(capsys):
    for label in ("1", "1,2,3"):
        line = _usage_error(capsys, ["eisenstein", "--weight", "2", "--label", label])
        assert line.startswith("error: argument --label:"), line


def test_weil_work_is_bounded(capsys):
    # E8(3) has |A_M| = 3^8 = 6561: its pairing census, 6561^2 pairings,
    # would run for minutes
    for sub in ("weil", "dimension"):
        assert "PAIRING_LIMIT" in _usage_error(capsys, [sub, "--lattice", "E8(3)"])
    for name in ("L_dm", "E8", "II_2_18", "II_2_26"):
        for sub in ("weil", "dimension"):
            assert _capture(capsys, [sub, "--lattice", name])[1] == 0


def test_pairing_table_is_bounded(capsys):
    # the type census of E8(3) is quick; its 6561^2 pairings would take minutes
    assert _capture(capsys, ["lattice", "--name", "E8(3)"])[1] == 0
    line = _usage_error(capsys, ["lattice", "--name", "E8(3)", "--pairing-table"])
    assert line == "error: |A_M| = 6561 exceeds PAIRING_LIMIT = 243"


def test_census_limit_names_itself(capsys):
    # E8(3)+A2 has |A_M| = 3^8 * 3 = 19683
    line = _usage_error(capsys, ["lattice", "--name", "E8(3)+A2"])
    assert line == "error: |A_M| = 19683 exceeds CENSUS_LIMIT = 10000"


def test_term_limit_bounds_the_series_subcommands(capsys):
    # --prec 1e6 used to run for hours; each subcommand now refuses it at once
    for argv, count in (
        (["eisenstein", "--weight", "10", "--label", "1,0"], 3_000_000),
        (["obstruction"], 3_000_000),
        (["borcherds"], 1_000_003),
        (["borcherds", "--input", "delta"], 1_000_001),
        (["borcherds", "--input", "e4delta"], 1_000_002),
        (["ma-input"], 1_000_003),
    ):
        line = _usage_error(capsys, [*argv, "--prec", "1e6"])
        assert line == f"error: {count} terms exceed TERM_LIMIT = {TERM_LIMIT}"
    for argv in (["borcherds", "--input", "delta"], ["eisenstein", "--weight", "2", "--label", "1,1"]):
        assert _capture(capsys, [*argv, "--prec", "1e18"])[1] == 1


def test_walk_limit_bounds_the_enumerating_subcommands(capsys):
    # theta to q^(10^9) and the theta walks of the Borcherds inputs used to
    # run for hours; each walk now stops at WALK_LIMIT leaves
    for argv in (
        ["theta", "--lattice", "E6", "--prec", "1e9"],
        ["theta", "--lattice", "A1", "--prec", "1e18"],
        ["ma-input", "--prec", "100"],
        ["borcherds", "--input", "ma", "--prec", "100"],
        ["borcherds", "--input", "e4delta", "--prec", "100"],
    ):
        line = _usage_error(capsys, argv)
        assert line.startswith("error: ") and line.endswith(f" walk leaves exceed WALK_LIMIT = {WALK_LIMIT}")
        assert int(line.split()[1]) > WALK_LIMIT


def test_unwritable_out_file(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "t9.json"
    line = _usage_error(capsys, ["t9", "--out", str(target)])
    assert str(target) in line


# Exit code 2: each verification subcommand still prints its record when a
# value it reads from the library misses the paper's certified value.


def _certificate_fails(capsys, argv):
    result, code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["outputs"] == result.outputs
    assert "certified value missed" in captured.err
    return result


def test_kequiv_exit_2(monkeypatch, capsys):
    from moduliq import ledger, qq

    report = ledger.KEquivalenceReport(qq(1, 3**21), -21, True)
    monkeypatch.setattr(ledger, "k_equiv_obstruction", lambda: report)
    result = _certificate_fails(capsys, ["kequiv"])
    assert result.outputs["valuation_at_3"] == -21


def test_t9_exit_2(monkeypatch, capsys):
    from moduliq import ledger, qq

    monkeypatch.setattr(ledger, "top_intersection_T9", lambda: qq(7, 103681))
    result = _certificate_fails(capsys, ["t9"])
    assert result.outputs["T9"] == "7/103681"


def test_ledger_exit_2(monkeypatch, capsys):
    from moduliq import ledger, qq

    monkeypatch.setattr(ledger, "kirwan_discrepancy", lambda: qq(1, 3))
    result = _certificate_fails(capsys, ["ledger"])
    assert result.outputs["discrepancy"] == "1/3"


def test_ledger_exit_2_without_the_repair(monkeypatch, capsys):
    from moduliq import ledger

    real = ledger.consistency_report

    def unrepaired(rels):
        report = real(rels)
        return ledger.ConsistencyReport(False, report.conflicts, report.residuals, ())

    monkeypatch.setattr(ledger, "consistency_report", unrepaired)
    result = _certificate_fails(capsys, ["ledger"])
    assert result.outputs["repairs"] == []


def test_luna_exit_2(monkeypatch, capsys):
    from moduliq import luna

    monkeypatch.setattr(
        luna, "disc12_vanishing_order", lambda: {"order": 9, "direction": (1,) * 10, "degree": 20}
    )
    result = _certificate_fails(capsys, ["luna"])
    assert result.outputs["disc12_order"] == 9


def test_kirwan_exit_2(monkeypatch, capsys):
    from moduliq import kirwan

    monkeypatch.setattr(kirwan, "correction_extra_bound", lambda weights, betas: 4)
    result = _certificate_fails(capsys, ["kirwan"])
    assert result.outputs["extra_term_bound"] == 4


def test_theta_exit_2(monkeypatch, capsys):
    from moduliq import modforms
    from moduliq.qseries import QSeries

    monkeypatch.setattr(
        modforms, "theta_series", lambda lattice, coset, prec: QSeries.make(1, {0: 1, 1: 239, 2: 2160}, prec)
    )
    result = _certificate_fails(capsys, ["theta", "--lattice", "E8"])
    assert result.outputs["series"] == "1 + 239*q + 2160*q^2"
    # the certified coefficient is stated for E8 above --prec 1 only
    assert run(["theta", "--lattice", "E8", "--prec", "1"])[1] == 0
    assert run(["theta", "--lattice", "E6", "--prec", "3"])[1] == 0
    monkeypatch.undo()
    capsys.readouterr()
    result, code = run(["theta", "--lattice", "E8", "--prec", "2"])
    assert code == 0 and capsys.readouterr().err == ""
    assert result.outputs["series"] == "1 + 240*q"


def test_dimension_exit_2(monkeypatch, capsys):
    from moduliq import modforms

    real = modforms.vvmf_dimension_report

    def one_cusp_form_short(k, rep):
        report = real(k, rep)
        return report._replace(total=report.total - 1, cusp=report.cusp - 1)

    monkeypatch.setattr(modforms, "vvmf_dimension_report", one_cusp_form_short)
    result = _certificate_fails(capsys, ["dimension"])
    assert (result.outputs["total"], result.outputs["eisenstein"], result.outputs["cusp"]) == (3, 2, 1)
    # the certified value is stated for weight 10 on L_dm only
    assert run(["dimension", "--weight", "12"])[1] == 0
    assert run(["dimension", "--lattice", "II_2_18"])[1] == 0


def test_borcherds_exit_2(monkeypatch, capsys):
    from moduliq import borcherds, qq

    monkeypatch.setattr(
        borcherds, "product_existence", lambda combo: borcherds.ProductCertificate(True, qq(50), ())
    )
    result = _certificate_fails(capsys, ["borcherds", "--input", "ma"])
    assert result.outputs["certificate"] == {"exists": True, "weight": "50"}
    assert result.outputs["weight"] == "51"


def test_borcherds_exit_2_on_the_lift_weight(monkeypatch, capsys):
    from moduliq import borcherds, qq

    # a lift of weight 50 whose pairing route agrees: only the certified
    # weight can catch it
    real = borcherds.lift_weight_divisor
    monkeypatch.setattr(borcherds, "lift_weight_divisor", lambda form: (qq(50), real(form)[1]))
    monkeypatch.setattr(
        borcherds, "product_existence", lambda combo: borcherds.ProductCertificate(True, qq(50), ())
    )
    result, code = run(["borcherds", "--input", "ma", "--json"])
    assert code == 2
    assert capsys.readouterr().err == "certified value missed: weight = 50\n"
    assert result.outputs["certificate"] == {"exists": True, "weight": "50"}
    # the certified weight is stated for the ma input only
    assert run(["borcherds", "--input", "delta"])[1] == 0


@pytest.mark.parametrize("space, table", [("MK", "kirwan_blowup_table"), ("tor", "toroidal_table")])
def test_betti_exit_2(monkeypatch, capsys, space, table):
    from moduliq import kirwan

    short = kirwan.BettiTable.from_even((1, 2, 3, 4, 5, 4, 3, 2, 1))
    monkeypatch.setattr(kirwan, table, lambda: short)
    result = _certificate_fails(capsys, ["betti", "--space", space])
    assert result.outputs["table"] == [1, 2, 3, 4, 5, 4, 3, 2, 1]
    # the certified table is stated for MK and tor only
    assert run(["betti", "--space", "boundary"])[1] == 0


_PRECS = st.one_of(
    st.text(max_size=8),
    st.from_regex(r"-?[0-9]{1,2}(/-?[0-9]{1,2}|\.[0-9]+)?", fullmatch=True),
    st.fractions(-2, 6, max_denominator=12).map(str),
)
_COSETS = st.one_of(
    st.text(max_size=8),
    st.from_regex(r"-?[0-9]{1,3}(,-?[0-9]{1,3})?", fullmatch=True),
    st.integers(-4, 4).map(str),
)


def _exits_cleanly(argv):
    """Exit 0, or exit 1 with one 'error:' line; never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _result, code = run(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


# every work bound is in place, so any precision may be drawn
@settings(max_examples=60)
@given(_PRECS, _COSETS)
def test_theta_input_fuzz(prec, coset):
    _exits_cleanly(["theta", "--lattice", "E6", "--prec", prec, "--coset", coset])


# the other subcommands that read --prec
_PREC_ARGVS = (
    ("eisenstein", "--weight", "10", "--label", "1,0"),
    ("obstruction",),
    ("borcherds", "--input", "ma"),
    ("borcherds", "--input", "delta"),
    ("borcherds", "--input", "e4delta"),
    ("ma-input",),
)


@settings(max_examples=60)
@given(st.sampled_from(_PREC_ARGVS), _PRECS)
def test_prec_input_fuzz(argv, prec):
    _exits_cleanly([*argv, "--prec", prec])
