"""End-to-end CLI contract: JSON shapes, exit codes, byte determinism."""

import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from circuit_reference import spoil_circuit_elimination
from divlab import averages, cli, digitsets, hilbert, intervals, scenarios
from divlab.cli import MAX_DEPTH, MAX_THRESHOLD_M, _emit_json, _Rows, main
from divlab.digitsets import DigitSetSpec, cardinality
from divlab.intervals import EMPTY, IntervalUnion, _array_union, _grid_union, normalize, rat_str, real
from divlab.scenarios import (
    CubeScenario,
    FurstenbergScenario,
    cube_family,
    cube_threshold,
    furstenberg_family,
)
from fresh_interpreter import run_script, src_env


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def reject_constant(name):
    raise ValueError(f"non-finite JSON token {name}")


def strict_json(text):
    """json.loads that refuses the NaN/Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=reject_constant)


def run_json(capsys, *argv):
    rc, out, _ = run(capsys, *argv)
    return rc, strict_json(out)


def test_thresholds(capsys):
    rc, data = run_json(capsys, "thresholds")
    assert rc == 0
    assert abs(data["furstenberg"]["real"] - 1.2789429456511299) < 1e-15
    assert data["furstenberg"]["log_form_real"] == data["furstenberg"]["real"]
    assert data["cubes"] == {"m": 3, "exact": "5/4", "real": 1.25}
    assert data["degenerate"] == {"r": 3, "exact": "3/2", "real": 1.5}
    rc, data = run_json(capsys, "thresholds", "--m", "5", "--r", "4")
    assert data["cubes"]["exact"] == "17/6"
    assert data["degenerate"]["exact"] == "4/3"


def test_construct_round_trips(capsys):
    rc, data = run_json(capsys, "construct-thm1", "--k", "2")
    assert rc == 0
    assert FurstenbergScenario.from_json(data) == furstenberg_family(2)
    assert set(data["intervals"]) == {"factor_1", "factor_2", "factor_3", "witness"}

    rc, data = run_json(capsys, "construct-cubes", "--m", "3", "--k", "1")
    assert rc == 0
    assert CubeScenario.from_json(data) == cube_family(3, 1)


def test_cube_json_base_lattice_must_be_the_witness_lattice(capsys):
    # construct-cubes writes the lattice twice, as base_lattice and as the
    # witness with a tail; a scenario read back states it once, so an edited
    # base_lattice alphabet is refused instead of being a second lattice
    rc, data = run_json(capsys, "construct-cubes", "--m", "3", "--k", "1")
    assert rc == 0
    assert data["sets"]["base_lattice"] == {**data["sets"]["witness"], "tail": "0/1"}
    lattice = data["sets"]["base_lattice"]
    dropped = lattice["alphabet"][:-1]
    moved = ["7/2" if a == "3/1" else a for a in lattice["alphabet"]]
    for alphabet in (dropped, moved):
        edited = {**data, "sets": {**data["sets"], "base_lattice": {**lattice, "alphabet": alphabet}}}
        with pytest.raises(ValueError, match="base_lattice"):
            CubeScenario.from_json(edited)


def test_verify_claim(capsys):
    rc, data = run_json(capsys, "verify-claim", "--k", "1")
    assert rc == 0
    assert data["verified"] is True
    assert data["superlevel_measure"]["exact"] == "37/64"
    assert data["target"] == "11/96"
    assert data["witness_contained"] and data["measure_reached"]
    assert data["breakpoints"] == 37


@pytest.mark.parametrize("k", [1, 2])
def test_verify_claim_mutated_witness_digit_fails(capsys, monkeypatch, k):
    # one witness digit moved half a step off the alphabet: its base points
    # leave the superlevel set, while the sweep and its measure are unchanged
    scen = furstenberg_family(k)
    spec = scen.witness_spec
    digits = [2 * d for d in spec.digits]
    digits[5] += 1
    mutated = dataclasses.replace(scen, witness_spec=DigitSetSpec(
        spec.radix, spec.depth, tuple(digits), 2 * spec.den, spec.tail))
    monkeypatch.setattr("divlab.cli.furstenberg_family", lambda depth: mutated)
    rc, data = run_json(capsys, "verify-claim", "--k", str(k))
    assert rc == 2
    assert data["witness_contained"] is False and data["verified"] is False
    assert data["measure_reached"] is True
    monkeypatch.undo()
    rc, plain = run_json(capsys, "verify-claim", "--k", str(k))
    assert rc == 0 and plain["witness_contained"] is True
    assert plain["superlevel"] == data["superlevel"]


def test_find_nk(capsys):
    rc, data = run_json(capsys, "find-nk", "--k", "1",
                        "--level", "1/192", "--target", "1/9")
    assert rc == 0
    assert data["n_steps"] == 96
    assert data["measure"]["exact"] == "67/96"
    assert data["verified"] is True

    rc, data = run_json(capsys, "find-nk", "--k", "1",
                        "--level", "1/192", "--target", "99/100",
                        "--max-n", "200")
    assert rc == 2
    assert data["verified"] is False
    assert "error" in data


def test_find_nk_exhaustive_k1(capsys):
    # all 100 sizes 96, 192, ..., 9600 fall short of the target
    rc, out, err = run(capsys, "find-nk", "--k", "1", "--level", "1/96",
                       "--target", "99/100", "--max-n", "9600")
    assert (rc, err) == (2, "")
    data = strict_json(out)
    assert data["verified"] is False
    assert data["error"] == "no N up to 9600 reached superlevel measure 99/100 at level 1/96"


def test_verify_cubes_and_tamper(capsys):
    rc, data = run_json(capsys, "verify-cubes", "--m", "3", "--k", "1")
    assert rc == 0
    assert data["verified"] is True
    assert data["checks_total"] == 112 and data["checks_failed"] == 0
    assert data["witness_measure"] == "1/4"
    assert data["cardinalities_ok"] is True
    assert data["integral_lower_bound"]["exact"] == "1/262144"

    rc, data = run_json(capsys, "verify-cubes", "--m", "3", "--k", "1", "--tamper")
    assert rc == 2
    assert data["verified"] is False
    assert data["tampered"] is True
    assert data["checks_failed"] > 0
    assert len(data["first_failures"]) == 5


def test_verify_cubes_bound_is_checked_box_volume(capsys):
    rc, data = run_json(capsys, "verify-cubes", "--m", "3", "--k", "1", "--t-tail", "1/1000")
    assert rc == 0 and data["verified"] is True
    assert data["integral_lower_bound"]["exact"] == "1/1000000000"
    # --tamper checks the doubled box (2 * 1/64)^3
    rc, data = run_json(capsys, "verify-cubes", "--m", "3", "--k", "1", "--tamper")
    assert rc == 2
    assert data["integral_lower_bound"]["exact"] == "1/32768"
    for value in ("0", "-1"):
        rc, out, err = run(capsys, "verify-cubes", "--m", "3", "--k", "1", "--t-tail", value)
        assert rc == 1 and out == ""
        assert err == "divlab: error: t_tail must be positive\n"


def test_mc_average_nonpositive_eps_exit_1(capsys):
    for value in ("0", "-1"):
        rc, out, err = run(capsys, "mc-average", "--k", "1", "--x", "-1/3",
                           "--eps", value, "--seed", "1")
        assert rc == 1 and out == ""
        assert err == "divlab: error: eps must be positive\n"


def test_unwritable_output_path_exits_1(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    for argv in (
        ("verify-claim", "--k", "1", "--out", str(path)),
        ("blowup", "--kind", "thm1", "--p", "2", "--kmax", "4", "--csv", str(path)),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err == f"divlab: error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_blowup_csv_and_determinism(capsys):
    rc, out1, _ = run(capsys, "blowup", "--kind", "thm1",
                      "--p", "1.25", "--kmax", "5", "--csv")
    assert rc == 0
    lines = out1.splitlines()
    assert lines[0] == "index,value,step_ratio,verdict"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1" and first[2] == ""  # no step before the first term
    assert lines[2].split(",")[3] == "diverges"

    rc, out2, _ = run(capsys, "blowup", "--kind", "thm1",
                      "--p", "1.25", "--kmax", "5", "--csv")
    assert out2 == out1  # byte-identical reruns

    rc, data = run_json(capsys, "blowup", "--kind", "cubes", "--m", "3",
                        "--p", "1.2", "--kmax", "4", "--mode", "bound")
    assert rc == 0
    assert data["verdict"] == "diverges"

    rc, out, _ = run(capsys, "blowup", "--kind", "h3",
                     "--p", "1.25", "--kmax", "4", "--csv")
    assert rc == 0
    head = out.splitlines()[0]
    assert head == "index,lower_norm_bound,product_of_norms,value,step_ratio,verdict"


def test_blowup_out_file(tmp_path, capsys):
    path = tmp_path / "series.csv"
    for _ in range(2):
        rc, out, _ = run(capsys, "blowup", "--kind", "thm1", "--p", "1.3",
                         "--kmax", "4", "--csv", str(path))
        assert rc == 0 and out == ""
    text = path.read_text()
    assert text.startswith("index,value,step_ratio,verdict\n")
    assert len(text.splitlines()) == 5


def test_h3_eval(capsys):
    rc, data = run_json(capsys, "h3-eval", "--k", "1")
    assert rc == 0
    assert data["verified"] is True
    assert data["count"] == 11
    assert data["min_lower_bound"]["exact"] == "1/72"
    assert all(not ev["diverges"] for ev in data["evaluations"])

    rc, data = run_json(capsys, "h3-eval", "--k", "1", "--x", "-2/3")
    assert rc == 0
    assert len(data["evaluations"]) == 1
    assert data["evaluations"][0]["x"] == "-2/3"

    # positive x violates the kernel positivity precondition
    rc, out, err = run(capsys, "h3-eval", "--k", "1", "--x", "1/2")
    assert rc == 1
    assert err.startswith("divlab: error:")


def test_degenerate_families(capsys):
    rc, data = run_json(capsys, "degenerate", "--p4prime", "0.4")
    assert rc == 0
    assert data["family"] == "squares" and data["grows"] is True
    # the squares threshold and its two float neighbours
    for p4, grows in ((math.nextafter(0.5, 0), True), (0.5, False), (math.nextafter(0.5, 1), False)):
        rc, data = run_json(capsys, "degenerate", "--p4prime", repr(p4))
        assert (rc, data["threshold_p4prime"], data["grows"]) == (0, "1/2", grows)

    rc, data = run_json(capsys, "degenerate", "--r", "3", "--b", "2,-1",
                        "--p", "1.2")
    assert rc == 0
    assert data["family"] == "dependent-forms"
    assert data["threshold"] == "3/2" and data["grows"] is True

    # 1.3333333333333333 is the float nearest 4/3 and lies below it
    rc, data = run_json(capsys, "degenerate", "--r", "4", "--b", "1,1,-1",
                        "--p", "1.3333333333333333")
    assert rc == 0
    assert data["threshold"] == "4/3" and data["grows"] is True

    rc, out, err = run(capsys, "degenerate", "--p4prime", "0.4",
                       "--r", "3", "--b", "2,-1", "--p", "1.2")
    assert rc == 1 and "exclusive" in err

    rc, out, err = run(capsys, "degenerate", "--r", "3")
    assert rc == 1 and err.startswith("divlab: error:")


def test_classify(capsys):
    rc, data = run_json(capsys, "classify", "--rows", "2,0;0,2;1,1")
    assert rc == 0
    assert data["scenario"] == "degenerate"
    assert data["exponent_bound"] == "3/2"
    assert data["dependence"] == [1, 1, -2]

    rc, data = run_json(capsys, "classify", "--rows", "1 0; 0 1; 1 1")
    assert data["scenario"] == "independent"


def test_mc_average_deterministic(capsys):
    rc, out1, _ = run(capsys, "mc-average", "--k", "1", "--x", "-2/3",
                      "--seed", "7")
    assert rc == 0
    data = strict_json(out1)
    assert data["within_4_sigma"] is True
    assert data["exact"]["exact"] == "1/72"
    rc, out2, _ = run(capsys, "mc-average", "--k", "1", "--x", "-2/3",
                      "--seed", "7")
    assert out2 == out1


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["construct-thm1"],                      # missing --k
        ["find-nk", "--k", "1", "--level", "1/192"],  # missing --target
        ["blowup", "--kind", "thm1", "--p", "1.25"],  # missing --kmax
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()

    # engine precondition (cube series needs --m): diagnostic, not traceback
    rc, out, err = run(capsys, "blowup", "--kind", "cubes",
                       "--p", "1.2", "--kmax", "3")
    assert rc == 1 and err.startswith("divlab: error:")


def test_successful_runs_emit_strict_json(capsys):
    for argv in (
        ["thresholds"],
        ["construct-thm1", "--k", "1"],
        ["construct-cubes", "--m", "3", "--k", "1"],
        ["verify-claim", "--k", "1"],
        ["find-nk", "--k", "1", "--level", "1/192", "--target", "1/9"],
        ["verify-cubes", "--m", "3", "--k", "1"],
        ["blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4"],
        ["blowup", "--kind", "cubes", "--m", "3", "--p", "1.25", "--kmax", "4",
         "--mode", "bound"],
        ["blowup", "--kind", "h3", "--p", "1.25", "--kmax", "4"],
        ["h3-eval", "--k", "1", "--x", "-2/3"],
        ["degenerate", "--p4prime", "0.5", "--L", "1e6"],
        ["degenerate", "--r", "4", "--b", "1,1,-1", "--p", "1.1"],
        ["classify", "--rows", "2,0;0,2;1,1"],
        ["mc-average", "--k", "1", "--x", "-2/3", "--seed", "3", "--samples", "500"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 0, (argv, err)
        assert isinstance(strict_json(out), dict)


def test_zero_denominator_rationals_name_their_flag(capsys):
    for flag, argv in (
        ("--eps", ["mc-average", "--k", "1", "--x", "-1/3", "--eps", "1/0", "--seed", "1"]),
        ("--x", ["mc-average", "--k", "1", "--x", "-1/0", "--seed", "1"]),
        ("--t-tail", ["verify-cubes", "--m", "3", "--k", "1", "--t-tail", "1/0"]),
        ("--level", ["find-nk", "--k", "1", "--level", "1/0", "--target", "1/9"]),
        ("--target", ["find-nk", "--k", "1", "--level", "1/192", "--target", "2/0"]),
        ("--x", ["h3-eval", "--k", "1", "--x", "1/0"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: argument {flag}: " in out.err and "/0'" in out.err, argv


def test_nonfinite_or_nonpositive_floats_exit_1(capsys):
    for argv in (
        ["blowup", "--kind", "thm1", "--p", "nan", "--kmax", "4"],
        ["blowup", "--kind", "h3", "--p", "inf", "--kmax", "4"],
        ["blowup", "--kind", "thm1", "--p", "0", "--kmax", "4"],
        ["degenerate", "--p4prime", "nan"],
        ["degenerate", "--p4prime", "-0.4"],
        ["degenerate", "--p4prime", "0.4", "--L", "nan"],
        ["degenerate", "--p4prime", "0.4", "--L", "inf"],
        ["degenerate", "--r", "3", "--b", "2,-1", "--p", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "finite positive" in out.err


def test_json_overflow_exits_1_without_output(capsys):
    # a tiny but valid p overflows the series before any JSON is written
    rc, out, err = run(capsys, "blowup", "--kind", "thm1", "--p", "1e-320",
                       "--kmax", "4")
    assert rc == 1 and out == ""
    assert err == "divlab: error: blowup: result out of float range at --p 1e-320 --kmax 4\n"


@pytest.mark.parametrize("kind", [("--kind", "thm1"), ("--kind", "cubes", "--m", "3"), ("--kind", "h3")])
@pytest.mark.parametrize("csv", [(), ("--csv",)])
def test_blowup_non_finite_logs_name_the_flags(capsys, kind, csv):
    # at p = 1e-310 a log over p is inf (thm1, cubes) or inf - inf = nan
    # (h3); JSON and CSV both refuse it with the flags named
    rc, out, err = run(capsys, "blowup", *kind, "--p", "1e-310", "--kmax", "3", *csv)
    assert (rc, out) == (1, "")
    assert err == "divlab: error: blowup: result out of float range at --p 1e-310 --kmax 3\n"


# per kind: the flags it reads with an explicit default value, and the flags
# of the other kinds, each with the kind it applies to
BLOWUP_KIND_FLAGS = {
    "thm1": ((), (("--m", "5"), ("--mode", "bound"), ("--normalization", "normalized"))),
    "cubes": (("--m", "3", "--mode", "exact"), (("--weighted",), ("--normalization", "normalized"))),
    "h3": (("--normalization", "lebesgue"), (("--weighted",), ("--m", "5"), ("--mode", "bound"))),
}


@pytest.mark.parametrize("kind", sorted(BLOWUP_KIND_FLAGS))
def test_blowup_refuses_flags_of_another_kind(capsys, kind):
    own, others = BLOWUP_KIND_FLAGS[kind]
    series = ("blowup", "--kind", kind, "--p", "1.2", "--kmax", "2")
    owner = {"--weighted": "thm1", "--m": "cubes", "--mode": "cubes", "--normalization": "h3"}
    for flag in others:
        rc, out, err = run(capsys, *series, *own, *flag)
        assert (rc, out) == (1, ""), flag
        assert err == f"divlab: error: blowup: {flag[0]} applies to --kind {owner[flag[0]]} only\n"
    # all of them at once: the first is named
    rc, out, err = run(capsys, *series, *own, *(arg for flag in others for arg in flag))
    assert (rc, out) == (1, "") and f" {others[0][0]} applies to " in err
    # a kind's own flags at their defaults print what the plain request prints
    plain = ("--m", "3") if kind == "cubes" else ()
    rc, out, err = run(capsys, *series, *own)
    assert (rc, err) == (0, "") and run(capsys, *series, *plain) == (0, out, "")


def test_h3_blowup_small_p_factor_underflow_exits_0(capsys):
    # the factor norms underflow to 0.0; the series itself stays finite
    rc, data = run_json(capsys, "blowup", "--kind", "h3", "--p", "0.01", "--kmax", "3")
    assert rc == 0 and data["indices"] == [1, 2, 3] and data["verdict"] == "diverges"
    rc, out, err = run(capsys, "blowup", "--kind", "h3", "--p", "0.01", "--kmax", "3", "--csv")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "index,lower_norm_bound,product_of_norms,value,step_ratio,verdict"
    assert [line.split(",")[2] for line in lines[2:]] == ["0.0", "0.0"]
    assert [float(line.split(",")[3]) for line in lines[1:]] == data["values"]


def test_csv_overflow_exits_1_without_output(capsys):
    # CSV accepts exactly the floats strict JSON accepts: no inf, no nan
    rc, out, err = run(capsys, "blowup", "--kind", "thm1", "--p", "1e-320",
                       "--kmax", "4", "--csv")
    assert rc == 1 and out == ""
    assert err == "divlab: error: blowup: result out of float range at --p 1e-320 --kmax 4\n"


@pytest.mark.parametrize("argv", [
    ("--kind", "thm1", "--p", "2", "--kmax", "1000"),
    ("--kind", "h3", "--p", "2", "--kmax", "1000"),
    ("--kind", "cubes", "--m", "3", "--p", "2", "--kmax", "2000"),
])
def test_blowup_values_underflow_exits_0(capsys, argv):
    # the values underflow to 0.0; the step ratios stay at the closed form
    rc, data = run_json(capsys, "blowup", *argv)
    assert rc == 0
    assert data["values"][-1] == 0.0
    assert abs(data["step_ratios"][-1] - data["closed_form_ratio"]) < 1e-12
    if argv[1] == "thm1":
        rc, out, err = run(capsys, "blowup", *argv, "--csv")
        assert rc == 0 and err == ""
        last = out.splitlines()[-1].split(",")
        assert last[1] == "0.0"
        assert abs(float(last[2]) - data["closed_form_ratio"]) < 1e-12
    # subnormal values give no step ratio: every one stays at the closed form
    closed = data["closed_form_ratio"]
    assert all(abs(r - closed) <= 1e-9 * closed for r in data["step_ratios"])


def test_h3_csv_past_float_range_of_12_to_the_k_exits_0(capsys):
    # 8 * 12**k has no float for k >= 286; the columns come from its log
    rc, out, err = run(capsys, "blowup", "--kind", "h3", "--p", "2", "--kmax", "1000", "--csv")
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 1000
    assert rows[-1][1:4] == ["0.0", "0.0", "0.0"]


def test_oversized_cube_dimension_exits_1(capsys):
    for argv in (
        ["construct-cubes", "--m", "30", "--k", "1"],
        ["verify-cubes", "--m", "30", "--k", "1"],
        ["blowup", "--kind", "cubes", "--m", "30", "--p", "1.2", "--kmax", "3"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.startswith("divlab: error: dimension m = 30 needs about 2*3^30 ")
        assert err.count("\n") == 1, argv


def test_kmax_above_cap_exits_1_naming_the_flag(capsys):
    for kind in (["thm1"], ["h3"], ["cubes", "--m", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["blowup", "--kind", *kind, "--p", "2", "--kmax", "10001"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: argument --kmax: at most 10000 terms, got 10001" in out.err, kind


def test_classify_ragged_rows_exit_1(capsys):
    rc, out, err = run(capsys, "classify", "--rows", "1,2;3")
    assert rc == 1 and out == ""
    assert err.startswith("divlab: error: ragged rows")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,entry", [
    (("classify", "--rows", "1,a;2,3"), "--rows: entry 'a'"),
    (("classify", "--rows", "1.5,2;3,4"), "--rows: entry '1.5'"),
    (("degenerate", "--r", "3", "--b", "1,x", "--p", "1.2"), "--b: entry 'x'"),
])
def test_non_integer_matrix_entries_name_flag_and_entry(capsys, argv, entry):
    assert run(capsys, *argv) == (1, "", f"divlab: error: {entry} is not an integer\n")


def test_mc_average_negative_seed_names_the_flag(capsys):
    err = refusal(capsys, "mc-average", "--k", "1", "--x", "-2/3", "--seed", "-1")
    assert err.endswith("error: argument --seed: need a non-negative integer, got -1\n")
    rc, data = run_json(capsys, "mc-average", "--k", "1", "--x", "-2/3", "--seed", "0")
    assert (rc, data["seed"]) == (0, 0)


def test_find_nk_max_n_below_first_grid_exit_1(capsys):
    for k, smallest in ((1, 96), (2, 1152)):
        rc, out, err = run(capsys, "find-nk", "--k", str(k), "--level", "1/192",
                           "--target", "1/9", "--max-n", "0")
        assert rc == 1 and out == ""
        assert err.startswith("divlab: error:") and f"= {smallest}" in err
        assert "None" not in err


def test_float_overflow_names_subcommand_and_flags(capsys):
    for argv, flags in (
        (["blowup", "--kind", "thm1", "--p", "0.01", "--kmax", "5"],
         ["--p 0.01", "--kmax 5"]),
        (["degenerate", "--p4prime", "0.001", "--M", "1000", "--L", "1e300"],
         ["--p4prime 0.001", "--M 1000", "--L 1e+300"]),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.startswith(f"divlab: error: {argv[0]}: result out of float range at ")
        assert all(flag in err for flag in flags), err
        assert err.count("\n") == 1


def test_verify_cubes_overflow_names_t_tail(capsys):
    # the bound t_tail^m is exact; only its float view overflows
    rc, out, err = run(capsys, "verify-cubes", "--m", "3", "--k", "1", "--t-tail", "1e300")
    assert (rc, out) == (1, "")
    assert err == f"divlab: error: verify-cubes: result out of float range at --t-tail {10**300}\n"


def test_degenerate_overflow_names_the_flags_that_caused_it(capsys):
    # M*L + 1 overflows to inf at p4' = 1/2, where the integral is a log; the
    # general family overflows in the ratio's power 1/q = r/p
    for argv, flags in (
        (["degenerate", "--p4prime", "0.5", "--M", "1000", "--L", "1e308"],
         "--p4prime 0.5 --M 1000 --L 1e+308"),
        (["degenerate", "--r", "400", "--b", ",".join(["0"] * 398 + ["1"]), "--p", "1.2"],
         "--r 400 --p 1.2 --M 100 --L 100.0"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"divlab: error: degenerate: result out of float range at {flags}\n"


def test_h3_eval_near_zero_exits_0(capsys):
    # hi/lo of the one support piece leaves the float range, ln(hi/lo) does not
    rc, data = run_json(capsys, "h3-eval", "--k", "1", "--x", "-1e-400")
    assert rc == 0
    (ev,) = data["evaluations"]
    (lo, hi), = ev["support"]
    lo, hi = F(lo), F(hi)
    assert hi / lo > 10**308 and not ev["diverges"]
    with localcontext() as ctx:
        ctx.prec = 40
        want = (Decimal(hi.numerator * lo.denominator) / Decimal(hi.denominator * lo.numerator)).ln()
    assert ev["value"] == 916.757371078602 == pytest.approx(float(want), rel=1e-14)


def test_invariant_failure_exits_1_without_traceback(capsys, monkeypatch):
    spoil_circuit_elimination(monkeypatch, [[1, 0, 0], [0, 1, 0]])  # no dependence vector
    rc, out, err = run(capsys, "classify", "--rows", "2,0;0,2;1,1")
    assert rc == 1 and out == ""
    assert err.startswith("divlab: error: internal invariant failed:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, last_line", [
    (("thresholds", "--m", "2"), "dimension must be >= 3"),
    (("thresholds", "--r", "1"), "need r >= 2 monomials"),
    (("degenerate", "--r", "3", "--b", "1,0", "--p", "1.2", "--M", "0"),
     "need M >= 1, p > 0, L > 0"),
    (("degenerate", "--p4prime", "0.3", "--M", "0"), "need M >= 1, p4' > 0, L > 0"),
    (("degenerate", "--r", "2", "--b", "1", "--p", "1.2"), "need r >= 3"),
    (("degenerate", "--r", "3", "--b", "1", "--p", "1.2"), "need r-1 coefficients"),
    (("degenerate", "--r", "3", "--b", "1,1", "--p", "1.2"),
     "coefficients must sum to 1 (dependent-form condition)"),
    (("mc-average", "--k", "1", "--x", "-1/2", "--seed", "1", "--samples", "1"),
     "need at least 2 samples"),
    (("mc-average", "--k", "1", "--x", "-1/2", "--seed", "3.5"),
     "divlab mc-average: error: argument --seed: need an integer, got '3.5'"),
    (("find-nk", "--k", "1", "--level", "1/192", "--target", "1/9", "--max-n", "95"),
     "max_n must be at least 8*12^1 = 96 (got 95)"),
    (("classify", "--rows", " ; "), "need at least one row"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_precondition_refusals_name_their_condition(capsys, argv, last_line):
    # an engine's refusal is stderr's one line; the parser's follows its usage
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    if last_line.startswith("divlab "):
        assert out.err.startswith("usage: divlab ") and "Traceback" not in out.err
        assert out.err.splitlines()[-1] == last_line
    else:
        assert out.err == f"divlab: error: {last_line}\n"


# --- seeded argument fuzz ----------------------------------------------------

# cheap requests of every subcommand; find-nk carries a small --max-n so that
# no single mangling turns it into a long exhaustive search; verify-cubes
# (4,4) is refused, and every cube size a mangling reaches runs in milliseconds;
# the 20 x 12 classify, h3-eval --k 6, 10^12 Monte Carlo samples, find-nk up
# to N = 96,000 and a cube threshold past the float range are refused before
# any work
FUZZ_BASE = [
    ["thresholds"],
    ["thresholds", "--m", "5", "--r", "4"],
    ["construct-thm1", "--k", "1"],
    ["construct-cubes", "--m", "3", "--k", "1"],
    ["verify-claim", "--k", "1"],
    ["verify-claim", "--k", "6"],
    ["verify-claim", "--k", "7"],
    ["find-nk", "--k", "1", "--level", "1/192", "--target", "1/9", "--max-n", "192"],
    ["find-nk", "--k", "1", "--level", "1/192", "--target", "3/2", "--max-n", "192"],
    ["verify-cubes", "--m", "3", "--k", "1"],
    ["verify-cubes", "--m", "3", "--k", "1", "--t-tail", "1/1000", "--tamper"],
    ["verify-cubes", "--m", "3", "--k", "1", "--tamper"],
    ["verify-cubes", "--m", "4", "--k", "2"],
    ["verify-cubes", "--m", "4", "--k", "4"],
    ["blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4"],
    ["blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4", "--weighted", "--csv"],
    ["blowup", "--kind", "cubes", "--m", "3", "--p", "1.25", "--kmax", "4", "--mode", "bound"],
    ["blowup", "--kind", "h3", "--p", "1.25", "--kmax", "4", "--normalization", "normalized"],
    ["blowup", "--kind", "h3", "--p", "1.25", "--kmax", "4", "--csv"],
    ["h3-eval", "--k", "1", "--x", "-2/3"],
    ["degenerate", "--p4prime", "0.5", "--L", "1e6"],
    ["degenerate", "--r", "4", "--b", "1,1,-1", "--p", "1.1", "--M", "10"],
    ["classify", "--rows", "2,0;0,2;1,1"],
    ["classify", "--rows", ";".join(["1,0,0,0,0,0,0,0,0,0,0,0"] * 20)],
    ["h3-eval", "--k", "6"],
    ["mc-average", "--k", "1", "--x", "-2/3", "--eps", "1/2", "--seed", "3", "--samples", "200"],
    ["mc-average", "--k", "1", "--x", "-2/3", "--seed", "3", "--samples", "1000000000000"],
    ["find-nk", "--k", "1", "--level", "1/96", "--target", "99/100", "--max-n", "96000"],
    ["thresholds", "--m", "100000000"],
]
FUZZ_JUNK = ["0", "-1", "2", "3/2", "-2/3", "nan", "inf", "-inf", "1/0", "1e-320", "1e400",
             "abc", "", "1,,2", ";", "--k", "--csv", "--help", "--bogus", "-"]


def mangle(rnd, argv):
    """One seeded mangling of argv: replace, drop, duplicate, insert or swap."""
    argv = list(argv)
    i = rnd.randrange(len(argv))
    how = rnd.choice(("replace", "drop", "duplicate", "insert", "swap"))
    if how == "replace":
        argv[i] = rnd.choice(FUZZ_JUNK)
    elif how == "drop":
        del argv[i]
    elif how == "duplicate":
        argv[i:i] = argv[i:i + 2]
    elif how == "insert":
        argv.insert(i + 1, rnd.choice(FUZZ_JUNK))
    else:
        j = rnd.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    return argv


def fuzz_call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process request; any other
    exception escaping main fails the test with its argv."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception as exc:  # would be a traceback at the command line
        pytest.fail(f"{argv} raised {exc!r}")
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_seeded_argument_fuzz(capsys, monkeypatch, tmp_path):
    # --csv may take a mangled token as its PATH; such files land in tmp_path
    monkeypatch.chdir(tmp_path)
    rnd = random.Random(20071216)
    argvs = FUZZ_BASE + [mangle(rnd, rnd.choice(FUZZ_BASE)) for _ in range(250)]
    seen = {}
    codes = Counter()
    for seed in (1, 2):
        order = list(argvs)
        random.Random(seed).shuffle(order)
        for argv in order:
            rc, out, err = fuzz_call(capsys, argv)
            assert rc in (0, 1, 2), (argv, rc, err)
            assert "Traceback" not in err, argv
            if out and "--csv" not in argv and not out.startswith("usage:"):
                strict_json(out)
            # the parser is shared by every call: no request may leak into the next
            assert seen.setdefault(tuple(argv), (rc, out, err)) == (rc, out, err), argv
            codes[rc] += 1
    assert set(codes) == {0, 1, 2}, codes
    # a CSV request leaves no CSV behind for the next request
    run(capsys, "blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4", "--csv")
    rc, data = run_json(capsys, "blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4")
    assert rc == 0 and data["indices"] == [1, 2, 3, 4]


# Stdout, stderr and exit code of these requests are pinned by one sha256,
# frozen from the code that held interval unions as Fraction pairs.
FROZEN_REQUESTS = (
    *(("verify-claim", "--k", str(k)) for k in (1, 2, 3)),
    *(("construct-thm1", "--k", str(k)) for k in (1, 2, 3)),
    ("h3-eval", "--k", "1"),
    ("h3-eval", "--k", "2"),
    ("h3-eval", "--k", "2", "--x", "-1/7"),
    ("find-nk", "--k", "1", "--level", "1/192", "--target", "1/9"),
    ("verify-cubes", "--m", "3", "--k", "2"),
    ("verify-cubes", "--m", "3", "--k", "2", "--tamper"),
    ("mc-average", "--k", "1", "--x", "-37/192", "--seed", "5"),
)


def test_frozen_requests_digest(capsys):
    h = hashlib.sha256()
    for argv in FROZEN_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "ea5ebdb93b96f09dacd770224fbd7fb4617ea819f325af0b7988a9653eed42ba"


# Stdout, stderr and exit code of a blow-up grid are pinned by one sha256,
# frozen from the code that built the h3 series apart from thm1 and cubes:
# every kind and mode at five p (the thm1/h3 threshold among them), two
# lengths, JSON and CSV; the tiny p whose logs or closed form leave the float
# range; and each flag with a kind it does not apply to.
BLOWUP_VARIANTS = (
    ("--kind", "thm1"), ("--kind", "thm1", "--weighted"),
    *(("--kind", "cubes", "--m", str(m), "--mode", mode) for m in (3, 4, 5) for mode in ("exact", "bound")),
    ("--kind", "cubes", "--m", "3"),
    ("--kind", "h3", "--normalization", "lebesgue"), ("--kind", "h3", "--normalization", "normalized"),
    ("--kind", "h3"),
)
BLOWUP_REQUESTS = (
    *(("blowup", *v, "--p", p, "--kmax", k, *csv) for v in BLOWUP_VARIANTS
      for p in ("1.05", "1.2", "1.2789429456511299", "2", "50") for k in ("2", "10")
      for csv in ((), ("--csv",))),
    *(("blowup", *v, "--p", p, "--kmax", "3", *csv) for v in BLOWUP_VARIANTS
      for p in ("1e-310", "0.004") for csv in ((), ("--csv",))),
    *(("blowup", "--kind", kind, "--p", "1.2", "--kmax", "2", *flag)
      for kind in ("thm1", "cubes", "h3")
      for flag in (("--m", "5"), ("--mode", "bound"), ("--normalization", "normalized"), ("--weighted",))),
)


def test_blowup_requests_digest(capsys):
    start = time.perf_counter()
    h = hashlib.sha256()
    for argv in BLOWUP_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    elapsed = time.perf_counter() - start
    assert len(BLOWUP_REQUESTS) == 300
    assert h.hexdigest() == "1daafa69fb68db372f0944e8c94d5d14fc8977e62fceb65a2a274fd98b84af77"
    assert elapsed < 2, elapsed


CUBE_REQUESTS = (
    *(("construct-cubes", "--m", str(m), "--k", str(k))
      for m, k in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1))),
    ("construct-thm1", "--k", "4"),
    *(("blowup", "--kind", "cubes", "--m", str(m), "--p", "1.2", "--kmax", "6", "--mode", mode)
      for m in (3, 4, 5) for mode in ("exact", "bound")),
)


def test_digit_spec_requests_digest(capsys):
    # frozen from the digit specs that held Fraction alphabets; m = 4 has the
    # non-integer shared digit -16/3
    h = hashlib.sha256()
    for argv in CUBE_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "f9fdba9889bdcee53619b6e325864a600685bcb0df3d4e1c419e03a3178e31bf"


# Stdout, stderr and exit code of the form alphabets past m = 5, pinned by one
# sha256 frozen from the code that dropped the S term of the m forms with
# |Z(eps)| = 1, whose coefficient is 0.
LARGE_CUBE_CONSTRUCTIONS = tuple(
    ("construct-cubes", "--m", str(m), "--k", str(k)) for m, k in ((6, 1), (7, 1), (8, 1), (6, 2))
)


def test_large_cube_construction_digest(capsys):
    h = hashlib.sha256()
    for argv in LARGE_CUBE_CONSTRUCTIONS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "7d949b6f2a4e7e483a85a51f437a17c6903f99c43a5f8f78c2ce2ea158448a71"


def test_verify_claim_k4_digest(capsys):
    # stdout (1.2 MB) and exit code of the depth-4 claim, frozen from the code
    # that built every breakpoint of F as a Fraction
    rc, out, err = run(capsys, "verify-claim", "--k", "4")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest() == (
        "1b894b72e64b657687ce87b445b1f759f997608f9d6ed6dc19c3e48bb2e904d5"
    )


# Stdout, stderr and exit code of these requests are pinned by one sha256,
# frozen from the code that kept one CubeCheck object per check.
VERIFY_CUBES_REQUESTS = (
    ("verify-cubes", "--m", "3", "--k", "1"),
    ("verify-cubes", "--m", "3", "--k", "1", "--tamper"),
    ("verify-cubes", "--m", "4", "--k", "1"),
    ("verify-cubes", "--m", "4", "--k", "1", "--tamper"),
    ("verify-cubes", "--m", "4", "--k", "2"),
    ("verify-cubes", "--m", "5", "--k", "2", "--tamper"),
    ("verify-cubes", "--m", "3", "--k", "3", "--t-tail", "1/2"),
    ("verify-cubes", "--m", "3", "--k", "4"),
    ("verify-cubes", "--m", "6", "--k", "2"),
)


def test_verify_cubes_requests_digest(capsys):
    h = hashlib.sha256()
    for argv in VERIFY_CUBES_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "72c3ddd25b18c47894021b98cbda9ab67dc9a355e6f9d1a0dd466b69986c8448"


# Stdout, stderr and exit code of cube requests the two digests above lack,
# pinned by one sha256 frozen from the code that enumerated every
# combination: the last passes at weight 1 and fails at weights 2 and 3.
PROOF_CUBE_REQUESTS = (
    ("verify-cubes", "--m", "3", "--k", "2", "--tamper"),
    ("verify-cubes", "--m", "4", "--k", "2", "--tamper"),
    ("verify-cubes", "--m", "5", "--k", "1"),
    ("verify-cubes", "--m", "6", "--k", "1", "--tamper"),
    ("verify-cubes", "--m", "3", "--k", "3", "--t-tail", "1/8192"),
)


def test_verify_cubes_proof_requests_digest(capsys):
    h = hashlib.sha256()
    for argv in PROOF_CUBE_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "4c51c8d82def566c71b67ddc8f2dc5bafc412a361a781ac3d678ff819dd78b11"


# Stdout, stderr and exit code of cube requests past m = 6, where each slack
# is read for up to 511 forms, pinned by one sha256 frozen from the code that
# computed one slack per weight from the closed-form tail 2^(-k(m+1)).
LARGE_CUBE_REQUESTS = (
    *(("verify-cubes", "--m", str(m), "--k", "1", *tamper)
      for m in (7, 8, 9) for tamper in ((), ("--tamper",))),
    ("verify-cubes", "--m", "5", "--k", "2"),
    ("verify-cubes", "--m", "6", "--k", "2", "--tamper"),
)


def test_verify_cubes_large_dimension_requests_digest(capsys):
    h = hashlib.sha256()
    for argv in LARGE_CUBE_REQUESTS:
        rc, out, err = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\0{rc}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == "2680a375739189bd0842aa8bf070eb9cf6542231236b66f21856256684299bb1"


def test_verify_cubes_m4_k3_stdout_digest(capsys):
    # 491,520 checks, a size the requests above lack; frozen from the code
    # that looked up each form target in a set, one combination at a time
    for argv, code, digest in (
        ((), 0, "91de0c2a0c6c8d63baf654c8344b10badb59a4a9afc9afdae5e8d7a585eee033"),
        (("--tamper",), 2, "06ee9670662fcd32ae99f60e5d1e8d602dc6b9174b35a6416742606fdfabe8bb"),
    ):
        rc, out, err = run(capsys, "verify-cubes", "--m", "4", "--k", "3", *argv)
        assert (rc, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("k, estimate", [(6, "912,610,660"), (7, "20,939,287,084")])
def test_verify_claim_refuses_deep_sweeps(capsys, monkeypatch, k, estimate):
    # the estimate reads 2 * cardinality per factor off the specs: no union is built
    materialized = []
    for module in (digitsets, scenarios):
        monkeypatch.setattr(module, "materialize", materialized.append)
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify-claim", "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err == (f"divlab: error: sweep of {estimate} meeting candidates exceeds "
                   "the cap of 100,000,000\n")
    assert materialized == []


DEPTH_REQUESTS = (
    ("construct-thm1",),
    ("verify-claim",),
    ("find-nk", "--level", "1/192", "--target", "1/9"),
    ("h3-eval",),
    ("mc-average", "--x", "-1/2", "--seed", "1"),
    ("construct-cubes", "--m", "3"),
    ("verify-cubes", "--m", "3"),
)


@pytest.mark.parametrize("argv", DEPTH_REQUESTS, ids=lambda argv: argv[0])
def test_depth_past_the_cap_exits_1_naming_it(capsys, argv):
    # refused at the parser, before any estimate grows numbers too long to print
    for k in (MAX_DEPTH + 1, 100_000, 10_000_000):
        err = refusal(capsys, *argv, "--k", str(k))
        assert err.endswith(f"error: argument --k: at most {MAX_DEPTH}, got {k}\n"), argv
    # the cap itself parses, and each engine answers it by its own estimate
    try:
        main([*argv, "--k", str(MAX_DEPTH)])
    except SystemExit as exc:
        pytest.fail(f"{argv} at the cap exited {exc.code}")
    assert "argument --k" not in capsys.readouterr().err


def cli_subprocess(*argv):
    """(exit code, stdout, stderr, seconds) of one divlab request run as a subprocess."""
    start = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "divlab.cli", *argv], env=src_env(), capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - start


AT_THE_DEPTH_CAP = (
    (("verify-claim",), f"meeting candidates exceeds the cap of {averages.MAX_SWEEP_CANDIDATES:,}"),
    (("h3-eval",), f"witness points exceeds the cap of {hilbert.MAX_H3_POINTS:,}"),
    (("construct-thm1",), f"base points exceeds the cap of {digitsets.MAX_ENUM:,}"),
    (("mc-average", "--x", "-1/2", "--seed", "1"), f"base points exceeds the cap of {digitsets.MAX_ENUM:,}"),
    # a --max-n of one grid size, so the search reaches its grid-cell estimate
    (("find-nk", "--level", "1/2", "--target", "1/2", "--max-n", str(8 * 12**MAX_DEPTH)),
     f"grid cells exceeds the cap of {averages.MAX_GRID_CELLS:,}"),
    (("verify-cubes", "--m", "3"), f"checks exceeds the cap of {averages.MAX_CUBE_CHECKS:,}"),
)


@pytest.mark.parametrize("argv, cap", AT_THE_DEPTH_CAP, ids=[argv[0] for argv, _ in AT_THE_DEPTH_CAP])
def test_requests_at_the_depth_cap_are_refused_within_a_second(argv, cap):
    rc, out, err, seconds = cli_subprocess(*argv, "--k", str(MAX_DEPTH))
    assert (rc, out) == (1, ""), argv
    assert err.startswith("divlab: error: ") and err.endswith(f"{cap}\n"), err[-200:]
    assert seconds < 1.0, (argv, seconds)


@pytest.mark.parametrize("m, k", [(10, 1), (12, 1), (13, 1), (13, MAX_DEPTH)])
def test_verify_cubes_refuses_wide_cubes_within_a_second(m, k):
    # the closed-form count is refused before cube_family combines any of its
    # 2^m - 1 form specs, which took 3-5 s at m = 13
    rc, out, err, seconds = cli_subprocess("verify-cubes", "--m", str(m), "--k", str(k))
    count = scenarios._cube_check_count(m, k)
    assert (rc, out) == (1, "")
    assert err == (f"divlab: error: cube certificate of {count:,} checks exceeds "
                   f"the cap of {averages.MAX_CUBE_CHECKS:,}\n")
    assert seconds < 1.0, seconds


def test_construct_cubes_at_the_depth_cap_still_runs():
    rc, out, err, _ = cli_subprocess("construct-cubes", "--m", "3", "--k", str(MAX_DEPTH))
    assert (rc, err) == (0, "") and json.loads(out)["k"] == MAX_DEPTH


@pytest.mark.parametrize("m", [10, 12, 13])
def test_verify_cubes_refuses_before_building_any_form(capsys, monkeypatch, m):
    monkeypatch.setattr(scenarios, "combine", lambda *a: pytest.fail("a form spec was built"))
    rc, out, err = run(capsys, "verify-cubes", "--m", str(m), "--k", "1")
    assert rc == 1 and out == "" and "checks exceeds the cap of" in err


def test_verify_cubes_refuses_oversized_enumerations(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify-cubes", "--m", "4", "--k", "4")
    assert time.perf_counter() - start < 0.5
    assert rc == 1 and out == ""
    assert err == ("divlab: error: cube certificate of 15,728,640 checks exceeds "
                   "the cap of 2,000,000\n")


def test_cube_series_past_the_float_range_is_refused_before_building_forms(capsys, monkeypatch):
    # at m = 13, m 2^(m-1) ln 2 / p alone puts the closed-form ratio past the
    # float range; the same refusal came after all 8,191 form specs were
    # combined (2.65 s and 149 MB as a subprocess)
    argv = ("blowup", "--kind", "cubes", "--m", "13", "--p", "1.2", "--kmax", "3")
    refused = "divlab: error: blowup: result out of float range at --p 1.2 --kmax 3\n"
    rc, out, err, seconds = cli_subprocess(*argv)
    assert (rc, out, err) == (1, "", refused)
    assert seconds < 1.0, seconds
    combined = []
    for module in (digitsets, scenarios):
        monkeypatch.setattr(module, "combine", lambda *a: combined.append(a))
    for mode in ("exact", "bound"):
        assert run(capsys, *argv, "--mode", mode) == (1, "", refused)
    assert combined == []
    # m = 14 keeps its dimension refusal
    rc, out, err = run(capsys, "blowup", "--kind", "cubes", "--m", "14", "--p", "1.2", "--kmax", "3")
    assert (rc, out) == (1, "") and "dimension m = 14 needs about 2*3^14" in err


# requests that never run an array kernel, with their exit codes: the last
# two are usage errors (find-nk without --level and --target, and a negative
# Monte Carlo seed, refused before the sampler loads numpy)
NUMPY_FREE_REQUESTS = (
    (("construct-thm1", "--k", "2"), 0),
    (("construct-cubes", "--m", "3", "--k", "2"), 0),
    (("verify-cubes", "--m", "3", "--k", "2"), 0),
    (("verify-cubes", "--m", "3", "--k", "2", "--tamper"), 2),
    (("blowup", "--kind", "thm1", "--p", "1.25", "--kmax", "4"), 0),
    (("blowup", "--kind", "cubes", "--m", "3", "--p", "1.2", "--kmax", "4"), 0),
    (("blowup", "--kind", "h3", "--p", "1.25", "--kmax", "4"), 0),
    (("h3-eval", "--k", "2"), 0),
    (("degenerate", "--p4prime", "0.4"), 0),
    (("classify", "--rows", "2,0;0,2;1,1"), 0),
    (("thresholds",), 0),
    (("--help",), 0),
    (("find-nk", "--k", "1"), 1),
    (("mc-average", "--k", "1", "--x", "-2/3", "--seed", "-1"), 1),
)

# run requests one after another in one fresh interpreter and print, as JSON,
# whether numpy was loaded after the import and after each request, with
# each request's exit code
NUMPY_PROBE = """
import contextlib, io, json, sys
import divlab.cli
seen = [[None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = divlab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    seen.append([rc, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def numpy_probe(*requests):
    """[(exit code, numpy loaded)] after `import divlab.cli` (code None) and after each request."""
    return [tuple(row) for row in json.loads(run_script(NUMPY_PROBE, json.dumps(requests)))]


def test_requests_without_an_array_kernel_never_load_numpy():
    seen = numpy_probe(*(argv for argv, _ in NUMPY_FREE_REQUESTS))
    assert seen == [(None, False), *((rc, False) for _, rc in NUMPY_FREE_REQUESTS)]


@pytest.mark.parametrize("argv", [
    ("verify-claim", "--k", "1"),
    ("find-nk", "--k", "1", "--level", "1/192", "--target", "1/9"),
    ("mc-average", "--k", "1", "--x", "-2/3", "--seed", "7"),
], ids=lambda argv: argv[0])
def test_array_requests_load_numpy(argv):
    assert numpy_probe(argv) == [(None, False), (0, True)]


def test_h3_eval_k3_digest(capsys):
    # stdout (381 KB) and exit code of the depth-3 witness evaluations, frozen
    # from the code that wrote every support through json's indented encoder
    rc, out, err = run(capsys, "h3-eval", "--k", "3")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest() == (
        "130b2ef72f73f2933fe62c41f0b08ff9a25e4d804c172372d15f018f7ef47b98"
    )


# Stdout sha256 of the two deepest requests that run: about 5 s and 2 s on a
# 2-core host, past tier-1's budget, so they are marked slow and run only
# with `pytest -m slow`.
@pytest.mark.slow
def test_verify_claim_k5_stdout_digest(capsys):
    rc, out, err = run(capsys, "verify-claim", "--k", "5")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b4eb13b7c3cd9e2477c6ce9b9c77b25bc25ed18a0eb3ecf784654ff35753ad69"
    )


@pytest.mark.slow
def test_verify_claim_k5_peak_rss_as_a_subprocess():
    # a child's ru_maxrss starts at the resident set of the process that
    # forked it, so a bare interpreter launches the request and reads its
    # peak with wait4
    launch = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
              "_, status, usage = os.wait4(p.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", launch, sys.executable, "-m", "divlab.cli",
                          "verify-claim", "--k", "5"], env=src_env(), capture_output=True, text=True, check=True)
    rc, peak_kib = map(int, out.stdout.split())
    assert rc == 0
    assert peak_kib / 1024 <= 250


@pytest.mark.slow
def test_h3_eval_k4_stdout_digest(capsys):
    rc, out, err = run(capsys, "h3-eval", "--k", "4")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47b1375dc6ef26385cbe26ed094a1a665161280ad79c316751f3c7012f46092a"
    )


def test_unions_are_written_as_json_writes_their_pairs(tmp_path):
    # the one-join writer against json.dumps(indent=2) of to_json at several
    # depths, empty and one-piece unions included
    unions = [normalize([(F(-1, 12), 0)]), EMPTY,
              normalize([(F(1, 2), F(3, 4)), (F(-5, 6), F(7, 8)), (9, F(31, 3))])]
    wrapped = {"k": 1, "a": unions[2],
               "nested": {"b": unions[0], "c": [{"d": unions[1], "e": 2}]}}
    data = {"k": 1, "a": unions[2].to_json(),
            "nested": {"b": unions[0].to_json(), "c": [{"d": unions[1].to_json(), "e": 2}]}}
    _emit_json(wrapped, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text() == json.dumps(data, indent=2) + "\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emit_json({"x": object()}, str(tmp_path / "bad.json"))


def seeded_unions(rnd):
    """(pairs, den, union from tuples, union from arrays) of canonical
    unions: empty, one-piece and many-piece (one past the default chunk),
    with negative ends, on int64 arrays and on dtype object arrays, ends
    and denominators past 2^62 included."""
    import numpy as np
    for n in [0, 1, 1, 2, 3, 5, 9, 13] * 6 + [4097]:
        size = rnd.choice((40 * n + 40, 2**40, 2**70))
        den = rnd.choice((1, 6, 7 * 2**40, 2**66 + 1))
        ends = set()
        while len(ends) < 2 * n:
            ends.add(rnd.randint(-size, size))
        ends = sorted(ends)
        pairs = list(zip(ends[0::2], ends[1::2]))
        dtype = np.int64 if size < 2**62 and rnd.random() < 0.7 else object
        arrays = _array_union(np.array(ends[0::2], dtype=dtype), np.array(ends[1::2], dtype=dtype), den)
        yield pairs, den, _grid_union(pairs, den), arrays


def plain(data):
    """data with each union as its to_json pairs and each _Rows as its list."""
    if isinstance(data, IntervalUnion):
        return data.to_json()
    if isinstance(data, _Rows):
        return plain(data.rows)
    if isinstance(data, dict):
        return {key: plain(value) for key, value in data.items()}
    return [plain(value) for value in data] if isinstance(data, list) else data


@pytest.mark.parametrize("chunk", [3, intervals._CHUNK])
def test_union_writer_matches_json_on_seeded_unions(capsys, monkeypatch, chunk):
    # the union writer at indents 0, 2 and 4 and inside _Rows, against
    # json.dumps(indent=2) of to_json, and to_json against Fractions; a union
    # built from arrays is written without building its pairs
    monkeypatch.setattr(intervals, "_CHUNK", chunk)
    seen = Counter()
    for pairs, den, tuples, arrays in seeded_unions(random.Random(8191)):
        want = [[rat_str(F(lo, den)), rat_str(F(hi, den))] for lo, hi in pairs]
        for u in (tuples, arrays):
            assert u.to_json() == want
            for data in (u, {"k": 1, "a": u}, {"a": {"b": u, "c": 2}},
                         {"rows": _Rows([{"x": "1/2", "support": u}, {"support": EMPTY, "n": 1}])},
                         {"k": {"rows": _Rows([{"support": u}])}, "b": u}):
                _emit_json(data, None)
                assert capsys.readouterr().out == json.dumps(plain(data), indent=2) + "\n"
        if pairs:
            assert "nums" not in vars(arrays)
            seen[str(arrays._arrays[0].dtype), max(map(abs, (pairs[0][0], pairs[-1][1], den))) >= 2**62] += 1
        assert arrays == tuples and arrays.measure() == tuples.measure()
        seen[len(pairs) > chunk] += 1
    assert set(seen) >= {("int64", False), ("object", False), ("object", True), True, False}


def test_verify_claim_builds_no_tuple_view(capsys, monkeypatch):
    # from the cut to stdout verify-claim reads the sweep's int arrays: the
    # function's x_nums/y_nums and the superlevel's nums are never built
    built, results = [], []
    for cls, name in ((intervals._GridFunction, "x_nums"), (intervals._GridFunction, "y_nums"),
                      (intervals._ArrayUnion, "nums")):
        prop = vars(cls)[name]
        monkeypatch.setattr(prop, "func", lambda obj, func=prop.func, name=name: built.append(name) or func(obj))
    sweep = averages.sweep_superlevel
    monkeypatch.setattr(cli, "sweep_superlevel", lambda *a, **kw: results.append(sweep(*a, **kw)) or results[-1])
    rc, data = run_json(capsys, "verify-claim", "--k", "3")
    assert (rc, data["breakpoints"], data["verified"]) == (0, 5185, True)
    (res,) = results
    assert built == []
    assert not {"x_nums", "y_nums"} & vars(res.function).keys() and "nums" not in vars(res.superlevel)
    # the spies see a view that is built
    assert len(res.function.x_nums) == 5185 and res.superlevel.nums
    assert built == ["x_nums", "nums"]


def test_rows_are_written_as_json_writes_them(tmp_path):
    # the one-call rows writer against json.dumps(indent=2), with unions in
    # rows, rows at two depths, an empty rows list and a string that spells
    # the separator between two rows
    u = normalize([(F(1, 2), F(3, 4)), (F(-5, 6), F(7, 8))])
    rows = [{"x": "-1/12", "support": u, "value": 0.1 + 0.2, "diverges": False},
            {"x": "},\n    {", "support": EMPTY, "value": "inf", "diverges": True, "n": None},
            {"k": 3}]
    plain = [{key: v.to_json() if isinstance(v, IntervalUnion) else v for key, v in row.items()}
             for row in rows]
    wrapped = {"k": 1, "a": _Rows(rows), "nested": {"b": u, "c": _Rows(rows[:1]), "d": _Rows([])}}
    data = {"k": 1, "a": plain, "nested": {"b": u.to_json(), "c": plain[:1], "d": []}}
    _emit_json(wrapped, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text() == json.dumps(data, indent=2) + "\n"
    with pytest.raises(ValueError, match="JSON compliant"):
        _emit_json({"a": _Rows([{"value": math.inf}])}, str(tmp_path / "bad.json"))


def test_classify_refuses_oversized_circuit_searches(capsys):
    rows = ";".join(",".join(str((3 * i + j) % 7 - 3) for j in range(12)) for i in range(20))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--rows", rows)
    assert time.perf_counter() - start < 0.1
    assert rc == 1 and out == ""
    assert err == ("divlab: error: circuit search over 1,026,855 row subsets exceeds "
                   "the cap of 1,000,000\n")
    # the subset estimate is the only cap: 40 generic rows of 3 entries
    # (760,058 subsets) close a circuit of m + 2 = 5 rows, and 45 are refused
    rnd = random.Random(4540)
    rows = [",".join(str(rnd.randint(-10**9, 10**9)) for _ in range(3)) for _ in range(45)]
    rc, data = run_json(capsys, "classify", "--rows", ";".join(rows[:40]))
    assert (rc, data["r"]) == (0, 5)
    assert run(capsys, "classify", "--rows", ";".join(rows)) == (1, "", (
        "divlab: error: circuit search over 1,385,934 row subsets exceeds the cap of 1,000,000\n"))


def test_classify_wide_independent_rows_stop_after_one_elimination(capsys):
    # 16 independent rows of 1,000 entries: one elimination over all 1,001
    # columns finds 16 pivot columns, so no subset is walked; the sha256 of
    # stdout is frozen from the walk over every column
    rnd = random.Random(1000)
    rows = ";".join(",".join(str(rnd.randint(-3, 3)) for _ in range(1000)) for _ in range(16))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--rows", rows)
    elapsed = time.perf_counter() - start
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ac37ed7c694ea5afda4c2e2f2996f130b39820c47feeaf40fa9b53be79e7a108")
    assert elapsed < 1, elapsed


def test_classify_wide_rows_walk_on_their_pivot_columns(capsys):
    # the same 16 rows of 1,000 entries and a 17th, 2 r2 - 3 r5 + 2 r11
    # (coefficients summing to 1): the walk over the pivot columns finds the
    # one circuit; the sha256 of stdout is frozen
    rnd = random.Random(1000)
    rows = [[rnd.randint(-3, 3) for _ in range(1000)] for _ in range(16)]
    rows.append([2 * a - 3 * b + 2 * c for a, b, c in zip(rows[2], rows[5], rows[11])])
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--rows", ";".join(",".join(map(str, r)) for r in rows))
    elapsed = time.perf_counter() - start
    assert (rc, err) == (0, "")
    data = strict_json(out)
    assert (data["scenario"], data["r"], data["circuit_rows"]) == ("degenerate", 4, [2, 5, 11, 16])
    assert data["dependence"] == [2, -3, 2, -1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8fed2e36fee07b04823009eff3f357ad858aa009e116eb1dacc6267174231a6")
    assert elapsed < 1, elapsed


def test_classify_independent_rows_walk_no_subset(capsys):
    # 19 seeded rows of 18 entries: the 19 augmented rows are independent, so
    # none of the 524,268 subsets under the cap can be dependent and the
    # search stops after one elimination; the sha256 of stdout is frozen from
    # the walk over every subset
    rnd = random.Random(1900)
    rows = ";".join(",".join(str(rnd.randint(-3, 3)) for _ in range(18)) for _ in range(19))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--rows", rows)
    elapsed = time.perf_counter() - start
    assert (rc, err) == (0, "")
    assert strict_json(out)["scenario"] == "independent"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f103698918e744a8bdb9453fce46ef5d4f46cb5d06ee9cd0ecf2b760ad4e886d")
    assert elapsed < 0.5, elapsed
    # one row more is past the subset cap, and the refusal still comes first
    rnd = random.Random(2000)
    rows = ";".join(",".join(str(rnd.randint(-3, 3)) for _ in range(19)) for _ in range(20))
    assert run(capsys, "classify", "--rows", rows) == (1, "", (
        "divlab: error: circuit search over 1,048,555 row subsets exceeds the cap of 1,000,000\n"))


def test_h3_eval_refuses_before_materializing(capsys, monkeypatch):
    # the witness cardinality is read off the spec: no union is built
    materialized = []
    for module in (digitsets, scenarios):
        monkeypatch.setattr(module, "materialize", materialized.append)
    start = time.perf_counter()
    rc, out, err = run(capsys, "h3-eval", "--k", "6")
    assert time.perf_counter() - start < 0.1
    assert rc == 1 and out == ""
    assert err == ("divlab: error: h3 evaluation at 2,985,984 witness points exceeds "
                   "the cap of 250,000\n")
    assert materialized == []
    assert hilbert.MAX_H3_POINTS >= cardinality(furstenberg_family(5).witness_spec) == 248_832


def refusal(capsys, *argv):
    """(stdout, stderr) of a request that must exit 1 in under 0.1 s."""
    start = time.perf_counter()
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    assert time.perf_counter() - start < 0.1, argv
    out = capsys.readouterr()
    assert rc == 1 and out.out == "" and "Traceback" not in out.err, argv
    return out.err


def test_mc_average_refuses_samples_past_the_cap(capsys):
    # refused before numpy allocates the sample array
    err = refusal(capsys, "mc-average", "--k", "1", "--x", "-2/3", "--seed", "3",
                  "--samples", "1000000000000")
    assert err == ("divlab: error: Monte Carlo estimate of 1,000,000,000,000 samples "
                   "exceeds the cap of 1,000,000\n")
    assert averages.MAX_MC_SAMPLES == 10**6


def test_find_nk_refuses_oversized_searches(capsys, monkeypatch):
    # a worst case read off the factor specs: no factor is materialized
    materialized = []
    for module in (digitsets, scenarios):
        monkeypatch.setattr(module, "materialize", materialized.append)
    for max_n, cells in (("96000", "1,249,248,000"), ("1000000", "135,412,333,056")):
        err = refusal(capsys, "find-nk", "--k", "1", "--level", "1/96", "--target", "99/100",
                      "--max-n", max_n)
        assert err == (f"divlab: error: grid search over {cells} grid cells exceeds "
                       "the cap of 100,000,000\n")
    assert materialized == []


@pytest.mark.parametrize("k,max_n,cells", [(1, 9600, 12_604_800), (2, 10_000, 5_059_584)])
def test_find_nk_estimate_admits_the_exhaustive_searches(monkeypatch, k, max_n, cells):
    # the exhaustive k=1 search and k=2 at max_n 10,000 are admitted; the
    # estimate is exact at the cap's edge, and it bounds the grid sweep's
    # endpoints, since a factor's pieces can only merge
    s = furstenberg_family(k)
    assert sum(2 * len(u.nums) for u in s.factors) <= 2 * sum(map(cardinality, s.factor_specs))
    assert cells <= averages.MAX_GRID_CELLS

    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(averages, "discrete_superlevel", admitted)
    monkeypatch.setattr(averages, "MAX_GRID_CELLS", cells)
    with pytest.raises(Admitted):
        averages.find_riemann_n(k, F(1, 96), F(99, 100), max_n=max_n)
    monkeypatch.setattr(averages, "MAX_GRID_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"grid search over {cells:,} grid cells"):
        averages.find_riemann_n(k, F(1, 96), F(99, 100), max_n=max_n)


def test_thresholds_m_is_bounded_at_the_boundary(capsys):
    for m in ("100000000", "2000", str(MAX_THRESHOLD_M + 1)):
        err = refusal(capsys, "thresholds", "--m", m)
        assert err.endswith(f"error: argument --m: at most {MAX_THRESHOLD_M}, got {m}\n")
    # the bound is the largest m whose threshold is a finite float
    assert math.isfinite(float(cube_threshold(MAX_THRESHOLD_M)))
    with pytest.raises(OverflowError):
        float(cube_threshold(MAX_THRESHOLD_M + 1))
    rc, data = run_json(capsys, "thresholds", "--m", str(MAX_THRESHOLD_M))
    assert rc == 0 and data["cubes"]["real"] == real(cube_threshold(MAX_THRESHOLD_M))
    # every m of 3..10 prints what it printed before the bound
    h = hashlib.sha256()
    for m in range(3, 11):
        rc, out, err = run(capsys, "thresholds", "--m", str(m))
        assert (rc, err) == (0, "")
        h.update(out.encode())
    assert h.hexdigest() == "726aee322715e76b11193e6c8be4c25862ce126250417b41618a757198cc3280"
