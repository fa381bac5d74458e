"""End-to-end CLI contract: JSON shapes, exit codes, byte determinism."""

import hashlib
import json
import math
import random
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from divlab import averages, digitsets, hilbert, linforms, scenarios
from divlab.cli import MAX_THRESHOLD_M, _emit_json, main
from divlab.digitsets import cardinality
from divlab.intervals import EMPTY, normalize, real
from divlab.scenarios import (
    CubeScenario,
    FurstenbergScenario,
    cube_family,
    cube_threshold,
    furstenberg_family,
)


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


def test_verify_claim(capsys):
    rc, data = run_json(capsys, "verify-claim", "--k", "1")
    assert rc == 0
    assert data["verified"] is True
    assert data["superlevel_measure"]["exact"] == "37/64"
    assert data["target"] == "11/96"
    assert data["witness_contained"] and data["measure_reached"]
    assert data["breakpoints"] == 37


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

    rc, data = run_json(capsys, "degenerate", "--r", "3", "--b", "2,-1",
                        "--p", "1.2")
    assert rc == 0
    assert data["family"] == "dependent-forms"
    assert data["threshold"] == "3/2" and data["grows"] is True

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
    # a tiny but valid p overflows the series; strict JSON refuses Infinity
    rc, out, err = run(capsys, "blowup", "--kind", "thm1", "--p", "1e-320",
                       "--kmax", "4")
    assert rc == 1 and out == ""
    assert err.startswith("divlab: error:") and "JSON" in err


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
    monkeypatch.setattr(linforms, "dependence_vector", lambda rows: None)
    rc, out, err = run(capsys, "classify", "--rows", "2,0;0,2;1,1")
    assert rc == 1 and out == ""
    assert err.startswith("divlab: error: internal invariant failed:")
    assert err.count("\n") == 1


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


def test_verify_cubes_refuses_oversized_enumerations(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify-cubes", "--m", "4", "--k", "4")
    assert time.perf_counter() - start < 0.5
    assert rc == 1 and out == ""
    assert err == ("divlab: error: cube certificate of 15,728,640 checks exceeds "
                   "the cap of 2,000,000\n")


def test_h3_eval_k3_digest(capsys):
    # stdout (381 KB) and exit code of the depth-3 witness evaluations, frozen
    # from the code that wrote every support through json's indented encoder
    rc, out, err = run(capsys, "h3-eval", "--k", "3")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest() == (
        "130b2ef72f73f2933fe62c41f0b08ff9a25e4d804c172372d15f018f7ef47b98"
    )


# Stdout sha256 of the two deepest requests that run: about 7 s and 3 s on a
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


def test_classify_refuses_oversized_circuit_searches(capsys):
    rows = ";".join(",".join(str((3 * i + j) % 7 - 3) for j in range(12)) for i in range(20))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--rows", rows)
    assert time.perf_counter() - start < 0.1
    assert rc == 1 and out == ""
    assert err == ("divlab: error: circuit search over 1,026,855 row subsets exceeds "
                   "the cap of 1,000,000\n")


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
