import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

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
], ids=["re-den-0", "im-den-0", "term-den-0", "order-0", "norm-overflow", "nan-pair",
        "nan-number", "inf-pair", "huge-int-pair", "gs-q-den-0", "gs-add-den-0"])
def test_malformed_value_exit_code(tmp_path, capsys, argv, value):
    if value is not None:
        argv = argv + [_write(tmp_path, "bad.json",
                              {"S": _S23_JSON, "bands": [[1, {"period": 1, "values": [value]}]]})]
    assert cli_dispatch(argv) == 2
    assert "error" in json.loads(capsys.readouterr().err)


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
