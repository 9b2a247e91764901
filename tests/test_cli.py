from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7ac.cli import main


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
    from spin7ac.cli import data_path

    code, out, _ = run_cli(capsys, "decompose", "--form", str(data_path("psi0.json")))
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
    ],
    ids=[
        "n-not-an-integer", "float-term", "float-surd-part", "zero-denominator", "terms-list",
        "link-list", "cone-list", "tol-nan", "not-utf8", "nested-too-deep",
        "export-without-dim", "nu-huge-exponent", "rate-huge-exponent",
        "eigenvalue-huge-exponent", "term-huge-exponent", "json-int-past-digit-limit",
        "json-int-too-long", "float-and-bool-integer-fields", "bool-term",
        "float-link-dim", "bool-dim-E", "float-cone-degree", "float-atom-degree",
        "bool-expr-degree", "enumerate-too-deep", "casimir-label-too-long",
        "eta-beyond-float-range",
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
