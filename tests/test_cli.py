import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bdtk
from bdtk import bloch
from bdtk import serialize as ser
from bdtk.arith import Supernatural, INF
from bdtk.bd import bd_add, bd_v
from bdtk.bdt import bdt_u
from bdtk.cli import cli_dispatch
from bdtk.compact import k_units
from bdtk.derivations import derivation
from bdtk.verify import run_suite, report_to_json


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def vpv_file(tmp_path, S23):
    b = bd_add(bd_v(S23, 1), bd_v(S23, -1))
    return _write(tmp_path, "vpv.json", ser.encode_bd(b))


def test_gs_membership(capsys):
    assert cli_dispatch(["gs", "--S", "2:inf,3:1", "--q", "1/9"]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": False}
    assert cli_dispatch(["gs", "--S", "2:inf,3:1", "--q", "5/6"]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}


def test_gs_add(capsys):
    assert cli_dispatch(["gs", "--S", "2:inf", "--add", "1/4", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"sum": [1, 2]}
    assert cli_dispatch(["gs", "--S", "2:inf", "--add", "1/3", "1/2"]) == 1


def test_consecutive_requests_share_no_parse_state(tmp_path, capsys):
    out = tmp_path / "sum.json"
    assert cli_dispatch(["--out", str(out), "gs", "--S", "2:inf", "--add", "1/4", "1/4"]) == 0
    assert json.loads(out.read_text()) == {"sum": [1, 2]}
    assert capsys.readouterr().out == ""
    assert cli_dispatch(["gs", "--S", "2:inf", "--add", "1/8", "1/8"]) == 0
    assert json.loads(capsys.readouterr().out) == {"sum": [1, 4]}
    assert json.loads(out.read_text()) == {"sum": [1, 2]}


def test_norm_p1_of_shift(tmp_path, capsys, S23):
    path = _write(tmp_path, "v.json", ser.encode_bd(bd_v(S23, 1)))
    assert cli_dispatch(["norm", path, "--P", "1", "--tol", "1e-9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["norm"] - 2.0) <= 1e-6


def test_mul_and_tau(tmp_path, capsys, vpv_file):
    assert cli_dispatch(["mul", vpv_file, vpv_file]) == 0
    out = json.loads(capsys.readouterr().out)
    bands = {n for n, _ in out["bands"]}
    assert bands == {-2, 0, 2}
    assert cli_dispatch(["toeplitz", vpv_file]) == 0
    t = capsys.readouterr().out
    assert cli_dispatch(["index", "--k0-demo", "--S", "2:inf"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["index_of_shift_generator"] == -1


def test_index_of_shift_element(tmp_path, capsys, S23):
    path = _write(tmp_path, "u.json", ser.encode_bdt(bdt_u(S23, 1)))
    assert cli_dispatch(["index", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["index"] == -1 and out["stabilized"]


def test_invert_not_invertible_is_math_failure(tmp_path, capsys, S23):
    from bdtk.bd import bd_one, bd_sub

    path = _write(tmp_path, "bad.json", ser.encode_bd(bd_sub(bd_v(S23, 1), bd_one(S23))))
    assert cli_dispatch(["invert", path, "--tol", "1e-6"]) == 1


def test_malformed_input_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli_dispatch(["tau", str(p)]) == 2
    q = tmp_path / "wrong.json"
    q.write_text(json.dumps({"what": 1}))
    assert cli_dispatch(["tau", str(q)]) == 2


def test_fourier_roundtrip(tmp_path, capsys, vpv_file):
    assert cli_dispatch(["fourier", vpv_file, "-n", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == [[1, 1, 0, 1]]


def test_verify_cli_exit_codes(capsys):
    assert cli_dispatch(["verify", "gs-arithmetic", "--seed", "3", "--cases", "200"]) == 0
    capsys.readouterr()


def test_verify_reports_deterministic():
    r1 = report_to_json(run_suite("generator-relations", seed=11, cases=5))
    r2 = report_to_json(run_suite("generator-relations", seed=11, cases=5))
    assert r1 == r2
    r3 = report_to_json(run_suite("generator-relations", seed=12, cases=5))
    assert r3 != r1


def test_verify_report_float_format():
    rep = run_suite("prop34-chain", seed=5, cases=1)
    text = report_to_json(rep)
    json.loads(text)  # stays valid JSON
    assert '"lhs":' in text


def test_out_flag(tmp_path, capsys, vpv_file):
    dest = tmp_path / "result.json"
    assert cli_dispatch(["--out", str(dest), "adjoint", vpv_file]) == 0
    payload = json.loads(dest.read_text())
    assert {n for n, _ in payload["bands"]} == {-1, 1}


_S23_JSON = [[2, "inf"], [3, 1]]


@pytest.mark.parametrize("argv,value", [
    (["adjoint"], [1, 0, 0, 1]),
    (["adjoint"], [1, 1, 0, 0]),
    (["adjoint"], {"order": 3, "terms": [[1, 1, 0]]}),
    (["adjoint"], {"order": 0, "terms": [[0, 1, 1]]}),
    (["norm"], [1e308, 1e308]),
    (["adjoint"], [float("nan"), 0.0]),
    (["adjoint"], float("nan")),
    (["invert"], [float("inf"), 0.0]),
    (["adjoint"], [10 ** 400, 0]),
    (["gs", "--S", "2:inf", "--q", "1/0"], None),
    (["gs", "--S", "2:inf", "--add", "1/0", "1/2"], None),
    (["gs", "--S", f"{2 ** 61 - 1}:1", "--q", "1/2"], None),
    (["gs", "--S", str(2 ** 61 - 1), "--q", "1/2"], None),
], ids=["re-den-0", "im-den-0", "term-den-0", "order-0", "norm-overflow", "nan-pair",
        "nan-number", "inf-pair", "huge-int-pair", "gs-q-den-0", "gs-add-den-0",
        "gs-huge-prime", "gs-huge-int"])
def test_malformed_value_exit_code(tmp_path, capsys, argv, value):
    if value is not None:
        argv = argv + [_write(tmp_path, "bad.json",
                              {"S": _S23_JSON, "bands": [[1, {"period": 1, "values": [value]}]]})]
    assert cli_dispatch(argv) == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("cmd", ["norm", "invert"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_nonfinite_tol_exit_code(capsys, vpv_file, cmd, tol):
    assert cli_dispatch([cmd, vpv_file, "--tol", tol]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BAD_INPUT"


def _bd_json(bands):
    return {"S": _S23_JSON, "bands": bands}


def _bdt_json(entries):
    return {"symbol": _bd_json([[0, {"period": 1, "values": [[1, 1, 0, 1]]}]]),
            "compact": {"entries": entries}}


@pytest.mark.parametrize("payload", [
    _bd_json([[1, {"period": 1, "values": [{"order": ser.MAX_ORDER + 1, "terms": [[1, 1, 1]]}]}]]),
    _bd_json([[1, {"period": 2 * ser.MAX_PERIOD, "values": [[1, 1, 0, 1]] * (2 * ser.MAX_PERIOD)}]]),
    _bd_json([[ser.MAX_BAND + 1, {"period": 1, "values": [[1, 1, 0, 1]]}]]),
    _bd_json([[-ser.MAX_BAND - 1, {"period": 1, "values": [[1, 1, 0, 1]]}]]),
    _bdt_json([[10 ** 6, 0, [1, 64, 0, 1]]]),
    _bdt_json([[0, ser.MAX_INDEX + 1, [1, 64, 0, 1]]]),
    {"S": [[2 ** 61 - 1, 1]], "bands": []},
    _bd_json([[float("inf"), {"period": 1, "values": [[1, 1, 0, 1]]}]]),
], ids=["order", "period", "band", "negative-band", "entry-row", "entry-column", "prime",
        "infinite-band"])
def test_decode_cap_exit_code(tmp_path, capsys, payload):
    path = _write(tmp_path, "big.json", payload)
    assert cli_dispatch(["adjoint", path]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BAD_INPUT"


@pytest.mark.parametrize("argv", [
    ["mul", "bd", "bdt"],
    ["mul", "bdt", "bd"],
    ["adjoint", "compact"],
    ["fourier", "compact", "-n", "1"],
    ["invert", "compact"],
    ["toeplitz", "bdt"],
    ["correction", "bd", "bdt"],
    ["tau", "bd"],
    ["index", "bd"],
    ["calc", "bd", "--coeffs", "coeffs", "--L", "1"],
    ["derivation", "apply", "der", "bd"],
], ids=["mul-bd-bdt", "mul-bdt-bd", "adjoint-compact", "fourier-compact", "invert-compact",
        "toeplitz-bdt", "correction-bdt", "tau-bd", "index-bd", "calc-bd", "derivation-apply-bd"])
def test_wrong_element_type_exit_code(tmp_path, capsys, S23, argv):
    payloads = {"bd": ser.encode_bd(bd_v(S23, 1)), "bdt": ser.encode_bdt(bdt_u(S23, 1)),
                "compact": ser.encode_compact(k_units(0, 1)), "coeffs": {"1": [1.0, 0.0]},
                "der": ser.encode_derivation(derivation(S23, gamma=1))}
    argv = [_write(tmp_path, f"{a}.json", payloads[a]) if a in payloads else a for a in argv]
    assert cli_dispatch(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BAD_INPUT"


def test_uncertifiable_norm_is_json_error(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "b.json", {"S": _S23_JSON, "bands": [
        [1, {"period": 2, "values": [[1, 1, 0, 1], [2, 1, 0, 1]]}],
        [-1, {"period": 2, "values": [[3, 1, 0, 1], [1, 2, 0, 1]]}],
    ]})
    monkeypatch.setattr(bloch, "_level_root_angles", lambda *args: ([0.25], False))
    assert cli_dispatch(["norm", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TOLERANCE_UNREACHABLE"


def test_input_file_is_closed(capsys, vpv_file):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_dispatch(["adjoint", vpv_file]) == 0
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_module_entry_point():
    src = str(Path(bdtk.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "bdtk.cli", "gs", "--S", "2:inf,3:1", "--q", "5/6"]
    run = subprocess.run(argv, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"member": True}


_JSON_KEYS = ("S", "bands", "period", "values", "float", "order", "terms", "symbol", "compact",
              "entries", "gamma", "b", "c")
_EDGE_VALUES = (float("inf"), float("-inf"), float("nan"), 1e300, 0.5, 0, -1, 2, 10 ** 30,
                2 ** 61 - 1, "inf", "", True, None, [], {})
_json_leaves = st.sampled_from(_EDGE_VALUES) | st.integers() | st.floats() | st.text(max_size=4)
_json_values = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=3), kids,
                                    max_size=4)),
    max_leaves=12,
)
_SEED_PAYLOADS = (
    _bdt_json([[0, 1, [1, 2, -3, 4]], [2, 0, {"order": 9, "terms": [[1, 1, 2], [4, -2, 3]]}]]),
    {"gamma": [0, 1, 1, 1], "b": _bd_json([[1, {"period": 2, "values": [[0.5, 0], [1, 3, 0, 1]]}]]),
     "c": {"entries": [[1, 1, [2, 1, 0, 1]]]}},
    _bd_json([[-1, {"period": 3, "values": [[1, 1, 0, 1], {"order": 3, "terms": [[1, 1, 1]]},
                                            [0.25, -1.5]]}]]),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(v, path + (k,))


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


@st.composite
def _malformed(draw):
    """Arbitrary JSON, or a valid payload with one to three nodes replaced by
    arbitrary JSON."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_json_values)
    payload = draw(st.sampled_from(_SEED_PAYLOADS))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        payload = _replaced(payload, path, draw(_json_leaves | _json_values))
    return payload


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_malformed(), st.sampled_from([
    ["adjoint", "{p}"], ["mul", "{p}", "{p}"], ["tau", "{p}"], ["toeplitz", "{p}"],
    ["fourier", "{p}", "-n", "1"], ["derivation", "component", "{p}", "-n", "1"],
]))
def test_malformed_json_fuzz(tmp_path_factory, payload, argv):
    try:
        ser.decode_element(payload)
    except (ValueError, KeyError, TypeError):
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    assert cli_dispatch([a.format(p=path) for a in argv]) in (0, 1, 2)
