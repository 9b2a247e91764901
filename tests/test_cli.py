from __future__ import annotations

import ast
import collections
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin7ac
from spin7ac.cli import main

PSI0_JSON = str(Path(spin7ac.__file__).parent / "data" / "psi0.json")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_casimir_subcommand(capsys):
    code, out, err = run_cli(capsys, "casimir", "--k1", "1", "--k2", "1", "--l", "0")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["casimir"] == {"1": "-2/3"}


def test_enumerate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--lo", "-1", "--hi", "0")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 5
    listed = [r["label"] for r in payload["records"] if r["paper_listed"]]
    assert sorted(map(tuple, listed)) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]


def test_moduli_dim_default_link(capsys):
    code, out, _ = run_cli(capsys, "moduli-dim", "--nu", "-1")
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_moduli_dim_custom_link(tmp_path, capsys):
    link = {
        "name": "custom",
        "dim_h4_minus_L2": 1,
        "dim_im_upsilon4": 2,
        "contributions": [{"lambda": "-3/2", "dim_E": 4, "source": "test"}],
        "critical_rates": ["-3/2"],
    }
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link))
    code, out, _ = run_cli(capsys, "moduli-dim", "--link", str(path), "--nu", "-1")
    assert code == 0
    assert json.loads(out)["total"] == 7


@pytest.mark.parametrize("nu", ["-7/2", "-3", "-1", "-1/2", "-1/3"])
def test_moduli_dim_default_link_is_the_pipeline_link_data(tmp_path, capsys, nu):
    # The default link is homrep.bryant_salamon_link_data(); the bryant-salamon
    # output carries it as a ready --link file.
    code, out, _ = run_cli(capsys, "bryant-salamon")
    assert code == 0
    path = tmp_path / "link.json"
    path.write_text(json.dumps(json.loads(out)["link_data"]))
    code, default, _ = run_cli(capsys, "moduli-dim", f"--nu={nu}")
    assert code == 0
    code, given, _ = run_cli(capsys, "moduli-dim", "--link", str(path), f"--nu={nu}")
    assert code == 0 and given == default


def test_moduli_dim_domain_error_exit_code(capsys):
    # fractions with a leading minus need the --flag=value spelling
    code, _, err = run_cli(capsys, "moduli-dim", "--nu=-10/3")
    assert code == 3
    assert "critical" in err or "contribution" in err


def test_bad_arguments_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_decompose_stdin(capsys, monkeypatch, tmp_path):
    form = {"n": 8, "k": 4, "terms": {"1,2,3,4": {"1": "1/1"}, "5,6,7,8": {"1": "-1/1"}}}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    code, out, _ = run_cli(capsys, "decompose", "--form", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["components"]["4_35"]["terms"] == form["terms"]
    assert payload["components"]["4_1"]["terms"] == {}


def test_decompose_psi0_data_file(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--form", PSI0_JSON)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]["4_1"]["terms"]) == 14
    assert payload["components"]["4_35"]["terms"] == {}


def test_pi_theta_subcommand(capsys, tmp_path):
    form = {
        "n": 8,
        "k": 4,
        "terms": {"1,2,3,4": {"1": "1/100"}, "5,6,7,8": {"1": "-1/100"}},
    }
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(form))
    code, out, _ = run_cli(capsys, "pi-theta", "--form", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10


def test_pi_theta_tol_default(capsys, monkeypatch, tmp_path):
    from spin7ac import pitheta

    seen = []

    class Result:
        def to_json(self):
            return {}

    def fake_pi_theta(form, tol):
        seen.append(tol)
        return Result()

    monkeypatch.setattr(pitheta, "pi_theta", fake_pi_theta)
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(_FORM))
    assert run_cli(capsys, "pi-theta", "--form", str(path))[0] == 0
    assert run_cli(capsys, "pi-theta", "--tol", "1e-9", "--form", str(path))[0] == 0
    assert seen == [pitheta.DEFAULT_TOL, 1e-9]


def _exact_calls(tmp_path) -> list[list[str]]:
    """One argv per subcommand but pi-theta; the cone form is written to tmp_path."""
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(_PIN_INPUTS["gamma"]))
    return [
        ["verify-algebra"],
        ["projectors", "--export", "4_35"],
        ["decompose", "--form", PSI0_JSON],
        ["cone-op", "--op", "laplacian", "--form", str(gamma)],
        ["classify-rate", "--parity", "even", "--rate=-4"],
        ["critical-rates", "--eigenvalues", "7,16,135/16"],
        ["moduli-dim", "--nu=-1"],
        ["casimir", "--k1", "1", "--k2", "1", "--l", "0"],
        ["enumerate", "--lo=-1", "--hi", "0"],
        ["bryant-salamon"],
    ]


def test_cli_loads_numpy_only_for_pi_theta(tmp_path):
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(_FORM))
    code = f"""
import contextlib, io, sys
sys.path[:0] = {sys.path!r}
from spin7ac import cli
assert 'numpy' not in sys.modules, 'numpy imported with spin7ac.cli'
for argv in {_exact_calls(tmp_path)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert 'numpy' not in sys.modules, f'numpy imported by {{argv[0]}}'
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(['pi-theta', '--form', {str(eta)!r}]) == 0
assert 'numpy' in sys.modules, 'pi-theta ran without numpy'
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cold_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    # Records are NamedTuples, so a cold call compiles no generated methods.
    # -S keeps site and the host's .pth hooks, which may import either, out.
    code = f"""
import contextlib, io, sys
sys.path[:0] = {sys.path!r}
from spin7ac import cli
for argv in [[], *{_exact_calls(tmp_path)!r}]:
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    loaded = sorted({{'dataclasses', 'inspect'}} & sys.modules.keys())
    assert not loaded, f'{{loaded}} loaded after {{argv or "import"}}'
"""
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


_PACKAGE = sorted(Path(spin7ac.__file__).parent.glob("*.py"))
_TESTS = sorted(Path(__file__).parent.glob("*.py"))
_PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
_DOTTED = re.compile(r"[a-z_]+\.(\w+)")


def _parsed(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_the_benchmark_entry_points_resolve_in_src():
    # perfbench/ looks spin7ac up by name at run time, and only its own
    # self-test calls it: every function of worker.OPS, every _library
    # name, the Scalar methods and ProjectorTable.apply that layertrace
    # wraps through vars(), and pitheta.compound4, which its self-test
    # compares with its own minors.  A deletion in src/ that breaks one
    # fails here.  The names come from a child that imports worker and
    # layertrace without writing bytecode; an f-string _library name is an
    # OPS name too.
    script = "import json, layertrace, worker; " \
        "print(json.dumps([[op[1] for op in worker.OPS.values()], layertrace._SCALAR_METHODS]))"
    result = subprocess.run([sys.executable, "-B", "-c", script], cwd=_PERFBENCH[0].parent,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    ops, scalar_methods = json.loads(result.stdout)
    library = {
        node.args[0].value
        for tree in _parsed(_PERFBENCH).values() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_library"
        and isinstance(node.args[0], ast.Constant)
    }
    assert library and set(ops) >= {"pitheta.pi_theta", "cones.cone_d"}

    def resolve(name: str):
        module, attr = name.split(".")
        return getattr(importlib.import_module(f"spin7ac.{module}"), attr, None)

    assert [name for name in sorted(library | set(ops)) if not callable(resolve(name))] == []
    assert [name for name in scalar_methods if name not in vars(resolve("scalars.Scalar"))] == []
    assert callable(vars(resolve("projectors.ProjectorTable")).get("apply"))
    assert callable(resolve("pitheta.compound4"))


def _attributes(node: ast.AST):
    """Every attribute name used in the tree of node (x.attr), and attr of
    each string "module.attr", the way perfbench names the functions it times."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and (dotted := _DOTTED.fullmatch(n.value)):
            yield dotted[1]


def _names(node: ast.AST):
    """Every attribute name and bare name used in the tree of node; an import
    under another name uses the original name."""
    yield from _attributes(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.alias) and n.asname:
            yield n.name


def _unreferenced(definitions, paths, names=_names) -> list[tuple[str, ...]]:
    """The (module, *owners, name) of each definition that ``definitions(tree)``
    yields as (*owners, name, node) from a package module, and that no code in
    paths uses outside node, by ``names``."""
    uses = collections.Counter(name for tree in _parsed(paths).values() for name in names(tree))
    return sorted(
        (path.stem, *owners, name)
        for path, tree in _parsed(_PACKAGE).items()
        for *owners, name, node in definitions(tree)
        if uses[name] == collections.Counter(names(node))[name]
    )


def _functions_and_classes(tree: ast.Module):
    return [(node.name, node) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _methods(tree: ast.Module):
    """Each non-dunder method and each ``name = property(...)`` of a class."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                yield cls.name, node.name, node
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name) and node.value.func.id == "property"):
                yield cls.name, node.targets[0].id, node


# Definitions that nothing in src/ or perfbench/ names and tests do, each with
# the paper statement or acceptance criterion it serves.  A new one fails the
# guards below until it is listed here with its reason, or moved or deleted.
_TEST_ONLY = {
    ("cones", "psi_cone"): "d psi_C = 0 on the cone iff the link is nearly parallel G2",
    ("cones", "asd_closed_condition"): "a closed ASD 4-form of rate lambda has d alpha = -(lambda+4) star alpha",
    ("cones", "asd_form"): "the ASD 4-form r^(lambda+3) dr ^ alpha - r^(lambda+4) star alpha of that statement",
    ("cones", "AsdClosedCondition", "relations_for"): "that statement as link relations, harmonic at lambda = -4",
    ("cones", "RateClassification", "survivors"): "criterion 7: the surviving slots at (even, -4) and (odd, -3)",
    ("cones", "RateClassification", "forced_zero"): "criterion 7: the forced-zero slots at (even, -4) and (odd, -3)",
    ("cones", "HomogeneousConeForm", "slot"): "criterion 6: star^2 = (-1)^degree on each slot of the cone",
    ("forms", "Matrix", "from_entries"): "criterion 3: the gl(8) basis whose action on psi0 has the 21-dim kernel spin(7)",
    ("forms", "Matrix", "entry"): "the reference pullback and gl-action of tests/formref.py, read entry by entry",
    ("homrep", "lambda_bar_of_rate"): "the obstruction constant lambda_bar of a rate, 0 at lambda = -10/3",
    ("homrep", "trivial_hom_data"): "the obstruction equation on the trivial representation",
    ("homrep", "CasimirRecord", "paper_lambda_printed"): "the paper's printed rate for (1,1,0), out of range",
    ("moduli", "mu_of_lambda"): "criterion 8: the eigenvalue dictionary mu = (lambda+4)^2 - (2/3)(lambda+4)",
    ("pitheta", "PiThetaResult", "theta_deviation_from_type27"): "Theta(eta) is of type 27",
    ("pitheta", "PiThetaResult", "a_stabiliser_component"): "the orbit part A has no spin(7) component",
    ("projectors", "g2_phi_seven"): "criterion 10: the re-indexed e1 -| psi0 frame the A-table fails",
    ("projectors", "ProjectorTable", "projector"): "criteria 1 and 2: the exact projectors as Fractions, P^4_35 = (Id - star)/2",
    ("projectors", "Decomposition", "component"): "the type decomposition: an ASD 4-form is its own type-35 component",
    ("projectors", "Decomposition", "nonzero_labels"): "the type decomposition: psi0 is of type 1, v -| psi0 of type 8",
}


def test_no_module_imports_dataclasses():
    imported = []
    for path, tree in _parsed(_PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                imported.append((path.stem, node.module))
    assert imported == []


def test_pi_theta_holds_the_only_function_local_import():
    # Imports belong at module level; the one exception keeps numpy out of
    # every subcommand but pi-theta.  An import in a class body or under a
    # module-level statement is listed too, with no function.
    local = []
    for path, tree in _parsed(_PACKAGE).items():
        owner = {}  # node -> its innermost function; ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        local += [
            (path.stem, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
    assert local == [("cli", "_cmd_pi_theta")]


def test_every_module_level_function_and_class_is_referenced():
    # A module-level function or class of spin7ac that no code in src/ or
    # tests/ names outside its own definition is dead code; one that only
    # tests name is listed in _TEST_ONLY.
    assert _unreferenced(_functions_and_classes, _PACKAGE + _TESTS) == []
    test_only = _unreferenced(_functions_and_classes, _PACKAGE + _PERFBENCH)
    assert test_only == sorted(key for key in _TEST_ONLY if len(key) == 2)


def test_every_method_is_referenced():
    # A non-dunder method or property of a spin7ac class that no code in src/
    # or tests/ reaches as an attribute outside its own body is dead code;
    # one that only tests reach is listed in _TEST_ONLY.  A bare name never
    # counts: a local of the same name is not a use of the method.
    assert _unreferenced(_methods, _PACKAGE + _TESTS, _attributes) == []
    test_only = _unreferenced(_methods, _PACKAGE + _PERFBENCH, _attributes)
    assert test_only == sorted(key for key in _TEST_ONLY if len(key) == 3)


def test_cone_op_subcommand(capsys, tmp_path):
    gamma = {
        "rate": {"1": "0/1"},
        "components": [
            {
                "degree": 4,
                "alpha": {
                    "degree": 3,
                    "terms": [
                        {"coeff": {"1": "1/1"}, "ops": [], "atom": {"name": "phi", "degree": 3}}
                    ],
                },
                "beta": None,
            }
        ],
    }
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(gamma))
    code, out, _ = run_cli(capsys, "cone-op", "--op", "star", "--form", str(path))
    assert code == 0
    payload = json.loads(out)
    degrees = [c["degree"] for c in payload["components"]]
    assert degrees == [4]


def test_cone_op_d_refuses_a_formal_degree_9_component(capsys, tmp_path):
    def degree_9(ops: list[str], atom_degree: int) -> dict:
        term = {"coeff": {"1": "1/1"}, "ops": ops, "atom": {"name": "a", "degree": atom_degree}}
        alpha = {"degree": 8, "terms": [term]}
        return {"rate": {"1": "0/1"}, "components": [{"degree": 9, "alpha": alpha, "beta": None}]}

    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(degree_9([], 8)))
    code, out, err = run_cli(capsys, "cone-op", "--op", "d", "--form", str(path))
    assert code == 3 and not out
    assert err == "error: d undefined on formal degree-9 components\n"
    # alpha = d a has d alpha = 0, so d has no degree-10 part and succeeds
    path.write_text(json.dumps(degree_9(["d"], 7)))
    code, out, _ = run_cli(capsys, "cone-op", "--op", "d", "--form", str(path))
    assert code == 0 and json.loads(out)["components"] == []


def test_classify_rate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "classify-rate", "--parity", "even", "--rate", "-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["3:alpha"]["status"] == "harmonic"
    assert payload["verdicts"]["0:beta"]["coefficient"] == {"1": "-8/1"}


def test_critical_rates_subcommand(capsys):
    code, out, _ = run_cli(capsys, "critical-rates", "--eigenvalues", "7,16,135/16")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["critical_rates"]) == 1
    assert any("co-closed" in note for note in payload["preconditions"])
    code, _, err = run_cli(capsys, "critical-rates", "--eigenvalues", "3")
    assert code == 3 and "Obata" in err


def test_internal_check_exit_code(capsys, monkeypatch):
    # build_parser resolves handler names from module globals at call time,
    # so patching the module function routes main() into the exit-4 branch.
    from spin7ac import cli
    from spin7ac.errors import InternalCheckError

    def boom(args):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setattr(cli, "_cmd_verify_algebra", boom)
    code = cli.main(["verify-algebra"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal check failed" in captured.err


def test_pipeline_self_check_exit_code(capsys, monkeypatch):
    # bryant-salamon reads no input: a failed check of its built-in tables
    # is an internal failure (exit 4), not a domain error (exit 3).
    from spin7ac import homrep
    from spin7ac.forms import Form

    verbatim = homrep.ud_hom_data

    def not_type27():
        return verbatim()._replace(direct={"e4": Form.monomial(7, (1, 2, 3))})

    monkeypatch.setattr(homrep, "ud_hom_data", not_type27)
    code, out, err = run_cli(capsys, "bryant-salamon")
    assert code == 4 and not out
    assert err.startswith("internal check failed:") and err.count("\n") == 1


def test_projectors_subcommand(capsys):
    code, out, _ = run_cli(capsys, "projectors")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_table"]["4_35"] == 35


def test_projectors_export(capsys):
    code, out, _ = run_cli(capsys, "projectors", "--export", "2_7")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["projector"]["matrix"]) == 28


def test_verify_algebra(capsys):
    code, out, _ = run_cli(capsys, "verify-algebra")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_bryant_salamon_json_and_table(capsys):
    code, out, _ = run_cli(capsys, "bryant-salamon")
    assert code == 0
    payload = json.loads(out)
    assert payload["moduli_dimension"]["-1"] == 1
    assert payload["moduli_dimension_at_-1"] == 1
    code, table_out, _ = run_cli(capsys, "bryant-salamon", "--table")
    assert code == 0
    assert "obstructed" in table_out


# sha256 of `bryant-salamon --table` stdout, recorded while the subcommand
# still took a --json flag alongside it.
_BRYANT_SALAMON_TABLE_SHA256 = "c61e36426a9acd28d5de78f2ed0b3d60fa371ae980bcbf22c957d3b4584ff1a2"


def test_bryant_salamon_table_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "bryant-salamon", "--table")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _BRYANT_SALAMON_TABLE_SHA256


def test_bryant_salamon_has_no_json_flag(capsys):
    # JSON is the default output; there is no flag asking for it.
    with pytest.raises(SystemExit) as excinfo:
        main(["bryant-salamon", "--json"])
    assert excinfo.value.code == 2


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "enumerate", "--lo", "-1", "--hi", "0")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "bryant-salamon")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# sha256 of `projectors --export LABEL` stdout, recorded while the table
# was still held as Fraction matrices.
_EXPORT_SHA256 = {
    "2_7": "654b700dd8ceb23c06a6ed407817377a2e24d45ff15a7dee3b9cd71680ef10e6",
    "2_21": "5c55a81bc1fef4920c2e835e0032c3d4bf4436315c64d71cda932c5b524a6025",
    "3_8": "4431562ceaaa46dfef74056002eeb6a34853025657667ed3bc736a67fcbc3633",
    "3_48": "7141441502d75d9ecb6c1b510eef6db862e4e609bed2b521e47818f84c1007c9",
    "4_1": "3bda4b0c28ebda6fbe30499b5f44e953b04dc7b0a825d772689802a74efce4a4",
    "4_7": "01912b148f202f0626d0878cdd58eb49fd58be0c597489d724e18b00ac6cbb47",
    "4_27": "d5f2aa6f7fe7782854b07d8bf42cccfd6907637ed07248cee6046701436aebf7",
    "4_35": "8315c184435a809513996afcb2a1b16becda7a4d955fb1ac028e19c5eda7572a",
}


@pytest.mark.parametrize("label", sorted(_EXPORT_SHA256))
def test_projector_export_bytes(capsys, label):
    code, out, err = run_cli(capsys, "projectors", "--export", label)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPORT_SHA256[label]


# One fixed call of every subcommand, and sha256 of its stdout, recorded
# while Scalar still held four Fraction components.  An argument "@name"
# stands for a file holding _PIN_INPUTS[name].  pi-theta was re-recorded
# when pi became exp(rho(A)) psi0 on Lambda^4: its floats moved by at most
# 2.2e-16, with the same term supports and iteration count.  pi-theta-generic
# was recorded when D_A and the Jacobian became sparse sums in generator
# order; the dense products before gave floats within 2.8e-20 of it, with
# the same term supports and iteration count.  Both were re-recorded when
# Newton started from the split's second-order jet and exp_action fixed its
# term count from the tail bound: iterations 3 -> 1 (eta) and 3 -> 2
# (eta_generic), A moved by at most 5.4e-14, pi by 2.2e-13 and zeta by
# 2.6e-13, with the same term supports; the eta residual went from 3.3e-16
# to 4.2e-13, still below the default tol.
_PIN_INPUTS = {
    "dense_q5": {
        "n": 8,
        "k": 4,
        "terms": {
            ",".join(map(str, idx)): {"1": f"{i + 1}/{i + 3}", "sqrt5": f"{(-1) ** i}/{i + 2}"}
            for i, idx in enumerate(itertools.combinations(range(1, 9), 4))
        },
    },
    "eta": {
        "n": 8,
        "k": 4,
        "terms": {
            "1,2,3,4": {"1": "1/50"},
            "5,6,7,8": {"1": "-1/50"},
            "1,2,5,6": {"1": "1/40"},
            "3,4,7,8": {"1": "-1/40"},
        },
    },
    # eta_hat / 20 for the unit eta_hat of test_pitheta's jet test: off
    # psi0's 14 monomials, so that A has off-diagonal entries.
    "eta_generic": {
        "n": 8,
        "k": 4,
        "terms": {
            "1,2,3,5": {"1": "1/240"},
            "1,2,3,8": {"1": "1/40"},
            "1,2,4,7": {"1": "-1/240"},
            "1,2,6,8": {"1": "1/120"},
            "1,3,4,6": {"1": "1/240"},
            "1,3,5,6": {"1": "-1/120"},
            "1,4,7,8": {"1": "1/80"},
            "1,5,6,7": {"1": "-1/60"},
            "2,3,4,8": {"1": "-1/60"},
            "2,3,5,6": {"1": "-1/80"},
            "2,4,7,8": {"1": "-1/120"},
            "2,5,7,8": {"1": "-1/240"},
            "3,4,5,7": {"1": "1/120"},
            "3,5,6,8": {"1": "1/240"},
            "4,5,6,7": {"1": "-1/40"},
            "4,6,7,8": {"1": "1/240"},
        },
    },
    "gamma": {
        "rate": {"1": "-10/3", "sqrt5": "1/2"},
        "components": [
            {
                "degree": 4,
                "alpha": {
                    "degree": 3,
                    "terms": [{"coeff": {"1": "1/1"}, "ops": [], "atom": {"name": "phi", "degree": 3}}],
                },
                "beta": None,
            }
        ],
    },
}
_STDOUT_SHA256 = {
    "verify-algebra": (("verify-algebra",), "17fd960ef8eb193d189d50fb297b89be2e6368d567aaf92a2d9d0b93b14465fd"),
    "projectors": (("projectors",), "0b3d55b15d200693bbaa573acb9973378172effc4142960bee798bbb082dca3a"),
    "decompose-psi0": (("decompose", "--form", "@psi0"), "9b8b4eed3a905c7748e36938369f017ebaadba0fd1af2ee654fedc6ae2347f5e"),
    "decompose-dense-q5": (("decompose", "--form", "@dense_q5"), "8bf88f287befb6cffa54319672fef3bf283dbd0eed959c8421c16e2de2f58f1e"),
    "pi-theta": (("pi-theta", "--form", "@eta"), "575883f6edc8fe48f3cb78f23e8d403250b881a6dd167384e31ccb0e1518f536"),
    "pi-theta-generic": (("pi-theta", "--form", "@eta_generic"), "c3ff607682c90efef4495918e88930b2977ced41c6c272fa684449208b05472c"),
    "cone-op": (("cone-op", "--op", "laplacian", "--form", "@gamma"), "1a62624f3285b62f7f927b014a91092699c576d60ac3b43b34f912b6d698a237"),
    "classify-rate-even-4": (("classify-rate", "--parity", "even", "--rate=-4"), "127ef4eadd3b708f8e2bde13d097a011238fae59a89c90a6b17880ffab3fa0bc"),
    "classify-rate-odd-3": (("classify-rate", "--parity", "odd", "--rate=-3"), "c8754361451e69c426f1adb3f4865b4b08460acfd5ca865c9f377e0aae743464"),
    "classify-rate-even-7/3": (("classify-rate", "--parity", "even", "--rate=-7/3"), "73b9cc5fc59f5900ad0edf5a6250e3403ce8cee7f69d25074156b7cc486b9611"),
    "critical-rates": (("critical-rates", "--eigenvalues", "7,16,135/16"), "02e217529d6fd764c15bd5bf7b555d9ff85ba8dbf0712066f0a167805b64dd1e"),
    "moduli-dim-1/3": (("moduli-dim", "--nu=-1/3"), "fd11fd0f76eb8cf6c494de4c3c3261217ed49df2742571c65e6dfb61c918cf11"),
    "moduli-dim-2": (("moduli-dim", "--nu=-2"), "8b21880b732fc201c22712c763799689168752b464ab152f64cfc6d7d5d36359"),
    "casimir": (("casimir", "--k1", "2", "--k2", "1", "--l", "3"), "7cd50408e54e66ecf5e9689584611b5a198f90ff617c623086625e507e83b568"),
    "enumerate": (("enumerate", "--lo=-30", "--hi", "0"), "e4eaba1c807c16fc32cbd5cba834d9e1f17552696b4b7341fcac48b4eeb12fd3"),
    # the deepest admitted window, 8,046,239 bytes, recorded at 9ff3475
    "enumerate-200": (("enumerate", "--lo=-200"), "a680a9c5376cc50ba8611b5db7915d8656e6883b17db8328356027fb6e21e0a7"),
    "bryant-salamon": (("bryant-salamon",), "da5953a159426fbccebf986522971155e62ef3d979de77fa8683f7c7d9eed708"),
}


@pytest.mark.parametrize("case", list(_STDOUT_SHA256))
def test_stdout_bytes(capsys, tmp_path, case):
    argv, digest = _STDOUT_SHA256[case]
    args = []
    for arg in argv:
        if arg == "@psi0":
            arg = PSI0_JSON
        elif arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(_PIN_INPUTS[arg[1:]]))
            arg = str(path)
        args.append(arg)
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "decompose", "--form", "/nonexistent/f.json")
    assert code == 3 and err


_FORM = {"n": 8, "k": 4, "terms": {"1,2,3,4": "1/100", "5,6,7,8": "-1/100"}}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["decompose", "--form"], {"n": "x", "k": 4, "terms": {}}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": 0.1}}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": {"1": 0.5}}}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": {"1": "1/0"}}}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": ["1,2,3,4"]}),
        (["moduli-dim", "--nu=-1", "--link"], [1, 2]),
        (["cone-op", "--op", "d", "--form"], [{"rate": "0"}]),
        (["pi-theta", "--tol", "nan", "--form"], _FORM),
        (["decompose", "--form"], b'{"n": 8, "k": 4, "terms": {"\xff": "1"}}'),
        (["decompose", "--form"], b"[" * 100_000 + b"]" * 100_000),
        (["projectors", "--export", "4"], None),
        (["moduli-dim", "--nu=-1e-5000"], None),
        (["classify-rate", "--parity", "even", "--rate=1e-5000"], None),
        (["critical-rates", "--eigenvalues", "1e-5000"], None),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": "1e-5000"}}),
        (["decompose", "--form"], b'{"n": 8, "k": 4, "terms": {"1,2,3,4": ' + b"7" * 5000 + b"}}"),
        (["cone-op", "--op", "d", "--form"], {"rate": int("9" * 601)}),
        (["decompose", "--form"], {"n": 8.9, "k": 4.7, "terms": {"1,2,3,4": True}}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": True}}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0.5, "dim_im_upsilon4": 0, "contributions": []}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0,
          "contributions": [{"lambda": "-10/3", "dim_E": False}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4.0, "alpha": None, "beta": None}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "alpha": None, "beta":
          {"degree": 4, "terms": [{"coeff": "1", "atom": {"name": "a", "degree": 4.5}}]}}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "alpha": None, "beta":
          {"degree": True, "terms": []}}]}),
        (["enumerate", "--lo=-1e9"], None),
        (["casimir", "--k1", "9" * 2200, "--k2", "0", "--l", "0"], None),
        (["pi-theta", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3,4": "9e600"}}),
        (["decompose", "--form"], {"n": 8, "k": 2, "terms": {"1,2": "1", "01,2": "3"}}),
        (["decompose", "--form"], {"n": 8, "k": 2, "terms": {"1,2": "1", " 1, 2": "3"}}),
        (["decompose", "--form"], b'{"n": 8, "k": 2, "terms": {"1,2": "1", "1,2": "3"}}'),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [
             {"degree": 2, "alpha": {"degree": 2, "terms": [{"coeff": "1", "atom": {"name": "a", "degree": 2}}]},
              "beta": None},
             {"degree": 2, "alpha": None}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "alpha":
          {"degree": 3, "terms": [{"coeff": "1", "ops": "sd", "atom": {"name": "a", "degree": 3}}]}}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "alpha":
          {"degree": 3, "terms": [{"coeff": "1", "atom": {"name": None, "degree": 3}}]}}]}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0,
          "contributions": [{"lambda": "-10/3", "dim_E": 1, "source": None}]}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "contributions": {}}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "critical_rates": "12"}),
        (["moduli-dim", "--nu=-1", "--link"], {"name": 5, "dim_h4_minus_L2": 0, "dim_im_upsilon4": 0}),
        (["cone-op", "--op", "d", "--form"], {"rate": "0", "components": ""}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "alpha": None, "beta": {"degree": 4, "terms": {}}}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 3, "beta":
          {"degree": 3, "terms": [{"coeff": "1", "atom": {"name": "a", "degree": 2}}]}}]}),
        (["cone-op", "--op", "d", "--form"],
         {"rate": "0", "components": [{"degree": 4, "beta":
          {"degree": 4, "terms": [{"coeff": "1", "ops": ["x"], "atom": {"name": "a", "degree": 3}}]}}]}),
        (["decompose", "--form"], {"n": 8, "k": 4, "terms": {"1,2,3": "1"}}),
        (["pi-theta", "--form"], {"n": 8, "k": 3, "terms": {"1,2,3": "1/100"}}),
        (["moduli-dim", "--nu=-3", "--link"], {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "critical_rates": ["-2"]}),
        (["moduli-dim", "--nu=-3", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "contributions": [{"lambda": "-3", "dim_E": 1}]}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "contributions": [{"lambda": "-3", "dim_E": -1}]}),
        (["moduli-dim", "--nu=-1", "--link"],
         {"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0,
          "contributions": [{"lambda": {"exact": False, "float": -3.5, "value": None}, "dim_E": 1}]}),
    ],
    ids=[
        "n-not-an-integer", "float-term", "float-surd-part", "zero-denominator", "terms-list",
        "link-list", "cone-list", "tol-nan", "not-utf8", "nested-too-deep",
        "export-without-dim", "nu-huge-exponent", "rate-huge-exponent",
        "eigenvalue-huge-exponent", "term-huge-exponent", "json-int-past-digit-limit",
        "json-int-too-long", "float-and-bool-integer-fields", "bool-term",
        "float-link-dim", "bool-dim-E", "float-cone-degree", "float-atom-degree",
        "bool-expr-degree", "enumerate-too-deep", "casimir-label-too-long",
        "eta-beyond-float-range", "form-key-leading-zero", "form-key-spaces",
        "form-key-repeated", "cone-degree-repeated", "ops-not-a-list", "atom-name-null",
        "link-source-null", "link-contributions-object", "link-rates-string", "link-name-not-a-string",
        "cone-components-string", "expr-terms-object", "expr-term-degree-contradicted",
        "expr-unknown-operator", "form-key-wrong-length", "eta-not-a-4-form", "nu-plus-one-critical",
        "nu-equals-contribution-rate", "dim-E-negative", "link-rate-value-null",
    ],
)
def test_malformed_input_exits_3_with_one_line(capsys, tmp_path, argv, payload):
    if payload is not None:
        path = tmp_path / "input.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_link_rate_object_as_enumerate_prints_it_is_counted(capsys, tmp_path):
    # a rate may be given as enumerate prints it in "lambdas": {"value": scalar, ...}
    rate = {"exact": True, "float": -3.3333333333333335, "value": {"1": "-10/3"}}
    path = tmp_path / "link.json"
    path.write_text(json.dumps({"dim_h4_minus_L2": 0, "dim_im_upsilon4": 0,
                                "contributions": [{"lambda": rate, "dim_E": 1}]}))
    code, out, err = run_cli(capsys, "moduli-dim", "--nu=-1", "--link", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "breakdown": {"L2": 0, "contributions": [{"dim_E": 1, "lambda": {"1": "-10/3"}, "source": ""}],
                      "topological": 0},
        "nu": {"1": "-1/1"},
        "total": 1,
    }


def test_truncated_json_and_malformed_rationals_exit_3_with_one_line(capsys, monkeypatch):
    # _read_json, not main, turns truncated JSON into InputError (and a file
    # that is not UTF-8: the not-utf8 case above); scalars._frac refuses a
    # malformed rational in a flag.
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 8, "k": 4, "terms": {"1,2'))
    code, out, err = run_cli(capsys, "decompose", "--form", "-")
    assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1
    for argv, text in (
        (["moduli-dim", "--nu=1/0"], "'1/0'"),
        (["critical-rates", "--eigenvalues=7,x"], "'x'"),
        (["classify-rate", "--parity", "odd", "--rate=-4/"], "'-4/'"),
        (["enumerate", "--lo=-1", "--hi=abc"], "'abc'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: not a rational: {text}\n")


def test_pi_theta_tol_below_roundoff_exits_3_with_one_line(capsys, tmp_path):
    # An admissible eta whose Newton stalls at binary64 roundoff: the message
    # names the residual reached and the tol, not only the basin.
    eta = json.loads(json.dumps(_PIN_INPUTS["eta"]))
    eta["terms"].update({"1,2,3,5": {"1": "1/60"}, "4,6,7,8": {"1": "1/60"}})
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(eta))
    code, out, err = run_cli(capsys, "pi-theta", "--form", str(path), "--tol", "1e-300")
    assert code == 3 and out == ""
    assert err.startswith("error: Newton ") and err.count("\n") == 1
    assert "residual" in err and "tol 1.000e-300" in err and "attainable binary64 accuracy" in err


# -- property test: malformed JSON never escapes as a traceback ------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_scalar = st.sampled_from(
    ["1/2", "-3", 0, 7, {"1": "1/3", "sqrt5": "-2"}, "1/0", "x", 0.5, {"1": 0.5}, {"sqrt7": "1"}]
) | _json
_small = st.integers(-2, 10) | _json


def _obj(required=None, **optional):
    """A JSON object with the given keys, or arbitrary JSON in its place."""
    return st.fixed_dictionaries(required or {}, optional=optional) | _json


_form = _obj(
    {
        "n": st.sampled_from([8, 7, "8", "x", None]),
        "k": st.sampled_from([4, 2, 3, "4", -1, 9, None]),
    },
    terms=st.dictionaries(
        st.sampled_from(["1,2,3,4", "5,6,7,8", "2,4,6,8", "1,2", "3,2", "1,2,3,9", "a", ""]),
        _scalar,
        max_size=3,
    ),
)
_link = _obj(
    {"dim_h4_minus_L2": _small, "dim_im_upsilon4": _small},
    contributions=st.lists(
        _obj(**{"lambda": _scalar | st.builds(dict, value=_scalar), "dim_E": _small}), max_size=2
    ),
    critical_rates=st.lists(_scalar, max_size=2),
)
_atom = _obj({"name": st.sampled_from(["a", "b"]), "degree": _small})
_ops = st.lists(st.sampled_from(["d", "s", "t", "x"]), max_size=4)
_link_expr = st.none() | _obj(
    {"degree": _small},
    terms=st.lists(_obj({"coeff": _scalar, "atom": _atom}, ops=_ops), max_size=2),
)
_cone = _obj(
    {"rate": _scalar},
    components=st.lists(_obj({"degree": _small}, alpha=_link_expr, beta=_link_expr), max_size=2),
)


def _exit_code(tmp_path_factory, argv: list[str], payload) -> int:
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv + [str(path)])


@settings(max_examples=150, deadline=None)
@given(payload=_form)
def test_form_json_parser_never_crashes(tmp_path_factory, payload):
    assert _exit_code(tmp_path_factory, ["decompose", "--form"], payload) in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(payload=_link)
def test_link_json_parser_never_crashes(tmp_path_factory, payload):
    assert _exit_code(tmp_path_factory, ["moduli-dim", "--nu=-1", "--link"], payload) in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(["d", "star", "dstar", "laplacian"]), payload=_cone)
def test_cone_json_parser_never_crashes(tmp_path_factory, op, payload):
    assert _exit_code(tmp_path_factory, ["cone-op", "--op", op, "--form"], payload) in (0, 2, 3)


# -- property test: fuzzed CLI flags exit 0, 2 or 3, and in bounded time ----

_CALL_SECONDS = 10.0  # per call; the slowest valid call here takes well under 1 s
_junk = st.text(max_size=8)
_rational_text = st.fractions().map(str) | st.integers().map(str) | st.floats().map(repr)
_surd_text = st.sampled_from(["sqrt5", "1+sqrt5", "2*sqrt(5)", "-1/2 - sqrt581", "√5", "1/sqrt5"])
_number_text = _rational_text | _surd_text | _junk


def _timed_exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        elapsed = time.perf_counter() - start
    assert elapsed < _CALL_SECONDS, (argv, elapsed)
    return code


@settings(max_examples=100, deadline=None)
@given(parity=st.sampled_from(["even", "odd", "none"]), rate=_number_text)
def test_rate_flag_fuzz(parity, rate):
    assert _timed_exit_code(["classify-rate", "--parity", parity, f"--rate={rate}"]) in (0, 2, 3)


@settings(max_examples=100, deadline=None)
@given(nu=_number_text)
def test_nu_flag_fuzz(nu):
    assert _timed_exit_code(["moduli-dim", f"--nu={nu}"]) in (0, 2, 3)


# Windows reach down to -200 but are at most two units wide, so that each
# call stays cheap; junk on either side is fuzzed as well.
_lo = st.fractions(min_value=-200, max_value=5, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(lo=_lo, width=st.fractions(-1, 2, max_denominator=1000), junk=st.none() | _junk,
       junk_side=st.booleans(), include_lo=st.booleans(), exclude_hi=st.booleans())
def test_window_flags_fuzz(lo, width, junk, junk_side, include_lo, exclude_hi):
    lo_text, hi_text = str(lo), str(lo + width)
    if junk is not None:
        lo_text, hi_text = (junk, hi_text) if junk_side else (lo_text, junk)
    argv = ["enumerate", f"--lo={lo_text}", f"--hi={hi_text}"]
    argv += ["--include-lo"] * include_lo + ["--exclude-hi"] * exclude_hi
    assert _timed_exit_code(argv) in (0, 2, 3)


@settings(max_examples=100, deadline=None)
@given(k1=st.integers().map(str) | st.integers(-(10**700), 10**700).map(str) | _junk,
       k2=st.integers(-1, 3), l=st.integers(-1, 3))
def test_k1_flag_fuzz(k1, k2, l):
    argv = ["casimir", f"--k1={k1}", "--k2", str(k2), "--l", str(l)]
    assert _timed_exit_code(argv) in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(tol=st.floats().map(repr) | st.sampled_from(["1e-300", "5e-324", "1e308", "-0.0"]) | _junk)
def test_tol_flag_fuzz(tmp_path_factory, tol):
    path = tmp_path_factory.getbasetemp() / "eta.json"
    path.write_text(json.dumps(_PIN_INPUTS["eta"]))
    assert _timed_exit_code(["pi-theta", "--form", str(path), f"--tol={tol}"]) in (0, 2, 3)
