"""Internal invariants raise InvariantError, which, unlike assert, survives python -O."""

import ast
import dataclasses
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import divlab
from circuit_reference import spoil_circuit_elimination
from divlab import averages, cli, hilbert, linforms
from divlab.digitsets import DigitSetSpec
from divlab.intervals import InvariantError
from divlab.scenarios import cube_family, furstenberg_family


def test_package_has_no_assert_statements():
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_imports_numpy_at_import_time():
    # numpy is imported inside the array kernels, so importing divlab (and a
    # request that runs no kernel) never loads it; only function bodies may
    # import it
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = []
    for path in files:
        pending = list(ast.iter_child_nodes(ast.parse(path.read_text(), filename=str(path))))
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "numpy"]
            pending += ast.iter_child_nodes(node)
    assert found == []


def test_package_has_no_unused_imports():
    # no linter runs here; every module-level import must be read somewhere
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = []
    for path in files:
        if path.name == "__init__.py":  # re-exports are its purpose
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno}:{name}"
                    for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in used
                ]
    assert len(files) > 1
    assert found == []


def test_package_has_no_dead_private_names():
    # every module- or class-level _name must be read somewhere in the
    # package: as a name, an attribute or an imported name
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    defined, used = [], set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined += [(path.name, node.lineno, name) for name in names
                            if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert len(defined) > 20
    assert [f"{file}:{line}:{name}" for file, line, name in defined if name not in used] == []


def test_interval_objects_are_built_only_in_intervals_module():
    # a union is its canonical pairs; Interval objects are only the
    # IntervalUnion.intervals view
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "intervals.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "Interval" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(files) > 1
    assert found == []


def test_blowup_series_are_built_only_in_scenarios_module():
    # scenarios.blowup_series builds every kind's series, h3 included
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "scenarios.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "BlowupSeries" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(files) > 1
    assert found == []


def test_degenerate_threshold_is_built_only_in_scenarios_module():
    # r/(r-1) has one definition, scenarios.degenerate_threshold, which
    # classify and dependent_forms_lower_ratio call
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "scenarios.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and [ast.unparse(arg) for arg in node.args] == ["r", "r - 1"]
    ]
    assert len(files) > 1
    assert found == []


def test_alphabet_view_is_read_only_in_digitsets_module():
    # a digit spec is its integer digits over one denominator; the Fraction
    # .alphabet view stays behind that one type
    files = sorted(Path(divlab.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "digitsets.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "alphabet"
    ]
    assert len(files) > 1
    assert found == []


def test_refusals_and_input_checks_are_spelled_once():
    # every cap refusal goes through intervals._refuse_past, and the engines'
    # shared input checks through one function each in averages
    wording = {
        "exceeds the cap of": {"intervals.py:_refuse_past"},
        "must be nondegenerate": {"averages.py:_nondegenerate"},
        "need matching nonempty sets and coefficients": {"averages.py:_matched"},
    }
    found = {text: set() for text in wording}
    for path in sorted(Path(divlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> its innermost enclosing function
        for fn in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for text in wording:
                    if text in node.value:
                        found[text].add(f"{path.name}:{owner.get(node, '<module>')}")
    assert found == wording


def test_every_cap_is_an_estimate_or_a_parser_bound():
    # each module-level MAX_* constant is passed to the one cap gate,
    # intervals._refuse_past, or to the CLI's bounded-integer parser, so no
    # cap refuses work in a wording or at a point of its own
    gates = {"_refuse_past", "_int_at_most"}
    caps, gated = set(), set()
    for path in sorted(Path(divlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caps.update(t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and gates & {getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)}:
                args = [*node.args, *(k.value for k in node.keywords)]
                gated.update(n.id for arg in args for n in ast.walk(arg) if isinstance(n, ast.Name))
    assert len(caps) >= 10
    assert sorted(caps - gated) == []


def test_cli_never_reads_the_lazy_cube_checks():
    # verify-cubes prints the report's counts and first failures; reading
    # .checks would rebuild one CubeCheck per check
    path = Path(cli.__file__)
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "checks"
    ]
    assert "report.checks_total" in path.read_text()
    assert found == []


def test_invariant_error_is_a_runtime_error():
    assert issubclass(InvariantError, RuntimeError)


def test_missing_dependence_vector_raises(monkeypatch):
    # a t-part kernel vector whose entries do not sum to 0 annihilates no
    # augmented rows: (0, 0, 1) here, for the circuit of all three rows
    spoil_circuit_elimination(monkeypatch, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(InvariantError, match="no dependence vector"):
        linforms.classify([[2, 0], [0, 2], [1, 1]])


def test_circuit_with_full_t_rank_raises(monkeypatch):
    # independent t-parts passed off as the circuit's have t-part rank r, not r-1 or r-2
    spoil_circuit_elimination(monkeypatch, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvariantError, match="t-part rank"):
        linforms.classify([[2, 0], [0, 2], [1, 1]])


def test_cube_decomposition_outside_lattice_raises(monkeypatch):
    # the enumeration reads every base point through the integer seam
    # _base_nums; an empty lattice forces every decomposition off it
    scen = cube_family(3, 1)
    monkeypatch.setattr(averages, "_cube_digitwise_proof", lambda scenario: False)
    base_nums = averages._base_nums
    monkeypatch.setattr(
        averages, "_base_nums",
        lambda spec: ([], 1) if spec == scen.witness_spec else base_nums(spec),
    )
    with pytest.raises(InvariantError, match="base lattice"):
        averages.cube_certificate_check(scen)


def test_cube_lattice_alphabet_missing_a_digit_raises():
    # the digit-level twin: with one lattice digit dropped the digitwise
    # proof fails, and the enumeration finds x off the lattice
    scen = cube_family(3, 1)
    spec = scen.witness_spec
    for i in (0, len(spec.digits) // 2, len(spec.digits) - 1):
        digits = spec.digits[:i] + spec.digits[i + 1 :]
        lattice = DigitSetSpec(spec.radix, spec.depth, digits, spec.den, spec.tail)
        bad = dataclasses.replace(scen, witness_spec=lattice)
        with pytest.raises(InvariantError, match="base lattice"):
            averages.cube_certificate_check(bad)
    assert averages.cube_certificate_check(scen).all_pass


def load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_counts_read_the_results():
    # the tracer builds after import divlab.cli, and its work counters read a
    # sweep's breakpoints and a cube report's check count off the results, so
    # a result that drops what they read fails here and not only under
    # bench/run.py --trace 1
    import divlab.cli  # noqa: F401  (the modules the tracer binds)

    tracing = load_bench_tracing()
    assert tracing.Tracer()._bindings
    s = furstenberg_family(1)
    results = {
        "averages.sweep_superlevel":
            averages.sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0)),
        "averages.cube_certificate_check": averages.cube_certificate_check(cube_family(3, 1)),
    }
    assert set(results) == set(tracing.COUNTED)
    counts = {name: tracing.COUNTED[name][1](res) for name, res in results.items()}
    assert counts == {"averages.sweep_superlevel": 37, "averages.cube_certificate_check": 112}


def test_bench_tracer_binds_every_traced_name(capsys):
    # building the tracer looks up every traced function and method, so a
    # refactor that drops or renames one fails here
    tracing = load_bench_tracing()
    tracer = tracing.Tracer()
    originals = [(owner, key, fn) for owner, key, fn, _ in tracer._bindings]
    tracer.install()
    try:
        assert cli.main(["verify-claim", "--k", "1"]) == 0
        averages.discrete_superlevel(
            [furstenberg_family(1).factors[0]], [1], 12, Fraction(1, 3), (-1, 0)
        )
        averages.discrete_superlevel(
            furstenberg_family(1).factors[:2], [1, 2], 12, Fraction(1, 3), (-1, 0),
            topology="circle",
        )
        hilbert.h3_evaluate(Fraction(-2, 3), *furstenberg_family(1).factors)
        # the time-set engine maps no whole union, so affine is called here
        u = furstenberg_family(1).factors[0]
        assert u.affine(-1, 0).translate(Fraction(1, 2)).measure() == u.measure()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(owner, key) is fn for owner, key, fn in originals)
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "averages.sweep_superlevel", "averages.discrete_superlevel.line",
            "averages.discrete_superlevel.circle", "intervals.IntervalUnion.issubset",
            "hilbert.h3_evaluate", "averages.form_time_set",
            "intervals.IntervalUnion.affine"} <= names
    # both sweeps cut their superlevel set through their function's method
    assert {"intervals.PiecewiseLinear.superlevel", "intervals.StepFunction.superlevel"} <= names
    assert set(tracer.metrics()) <= tracing.metric_names()
