import hashlib
import json
import math
import re
import struct
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgst.cli import _csv_row, _json_floats, _round12, main
from lpgst.decision import MAX_LATTICE_N
from lpgst.pair_states import MAX_SWEEP_STEPS


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_csv_table(capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "9", "--a", "all"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "n,a,verdict,rule"
    assert len(lines) == 2 + 8
    for line in lines[2:]:
        n, a, verdict, rule = line.split(",")
        assert (verdict, rule) == ("no", "odd-composite-factor"), line


def test_classify_single_instance(capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "12", "--a", "2"])
    assert code == 0
    assert "12,2,yes,two-power-times-prime" in out


def test_classify_flags_same_pair_rows(capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "6", "--a", "all"])
    assert code == 0
    assert "6,3,same-pair," in out
    assert out.count("\n") == 2 + 5  # header lines plus a = 1..5


def test_classify_json_format(capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "4..5", "--a", "1",
                                 "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "classify"
    assert [r["verdict"] for r in record["results"]] == ["yes", "yes"]


def test_classify_output_is_byte_identical(capsys):
    _, first, _ = _run(capsys, ["classify", "--n", "2..16", "--a", "all"])
    _, second, _ = _run(capsys, ["classify", "--n", "2..16", "--a", "all"])
    assert first == second


def test_classify_bad_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--n", "0..3"], ["--n", "1"],
                                  ["--n", "5", "--a", "7..9"],
                                  ["--n", "4..6", "--a", "0"]])
def test_classify_bad_or_empty_selection_exits_2(capsys, argv):
    code, out, err = _run(capsys, ["classify", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_classify_partial_a_range_keeps_rows(capsys):
    # a = 4..6 exceeds n - 1 only for the smaller paths: those rows drop
    code, out, err = _run(capsys, ["classify", "--n", "5..7", "--a", "4..6"])
    assert code == 0
    assert out.strip().splitlines()[2:] == [
        "5,4,yes,odd-prime", "6,4,yes,two-power-times-prime",
        "6,5,yes,two-power-times-prime", "7,4,yes,odd-prime",
        "7,5,yes,odd-prime", "7,6,yes,odd-prime"]
    # ... and are named on stderr, once
    assert [line for line in err.splitlines() if line.startswith("note:")] == [
        "note: --a values outside 1..n-1 skipped: n=5 a=5..6; n=6 a=6"]
    _, _, err = _run(capsys, ["classify", "--n", "3..4", "--a", "0..4"])
    assert "note: --a values outside 1..n-1 skipped: n=3 a=0,3..4; n=4 a=0,4" in err
    _, _, err = _run(capsys, ["classify", "--n", "5..7", "--a", "all"])
    assert "note:" not in err


def test_decide_with_certificate(capsys):
    code, out, _ = _run(capsys, ["decide", "--n", "9", "--a", "1",
                                 "--certificate"])
    assert code == 0
    record = json.loads(out)
    assert record["closed_form"] == {"has_lpgst": False,
                                     "rule": "odd-composite-factor"}
    assert record["lattice"]["has_lpgst"] is False
    assert record["agree"] is True
    assert len(record["certificate"]) == 8
    assert record["sigma_sum"] % 2 == 1


def test_decide_agreeing_yes(capsys):
    code, out, _ = _run(capsys, ["decide", "--n", "4", "--a", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["closed_form"]["has_lpgst"] is True
    assert record["lattice"]["has_lpgst"] is True
    assert record["agree"] is True
    assert "certificate" not in record


def test_decide_same_pair_exits_2(capsys):
    code, out, err = _run(capsys, ["decide", "--n", "6", "--a", "3"])
    assert code == 2
    assert out == ""
    assert "coincide" in err


@pytest.mark.parametrize("n", [MAX_LATTICE_N + 1, 10 ** 9])
def test_decide_n_above_limit_exits_2(capsys, n):
    code, out, err = _run(capsys, ["decide", "--n", str(n), "--a", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: n must be at most {MAX_LATTICE_N}")


def test_sweep_path_json(capsys):
    code, out, _ = _run(capsys, ["sweep", "--path", "3", "--from", "1,2",
                                 "--to", "2,3", "--tmax", "10",
                                 "--steps", "10000"])
    assert code == 0
    record = json.loads(out)
    assert record["sup_estimate"] > 1 - 1e-8
    ratio = record["argmax_time"] / (math.pi / 2)
    assert abs(ratio - round(ratio)) < 1e-3
    assert len(record["times"]) == len(record["fidelities"])


def test_sweep_graph_file(tmp_path, capsys):
    graph_file = tmp_path / "p4.txt"
    graph_file.write_text("# four-vertex path\nn 4\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = _run(capsys, ["sweep", "--graph", str(graph_file),
                                 "--from", "1,2", "--to", "3,4",
                                 "--tmax", "10", "--steps", "5000",
                                 "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["sup_estimate"] > 1 - 1e-6


def test_sweep_csv_format(capsys):
    code, out, _ = _run(capsys, ["sweep", "--path", "4", "--from", "1,2",
                                 "--to", "3,4", "--tmax", "5",
                                 "--steps", "50", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("# sup_estimate=")
    assert lines[2].startswith("# argmax_time=")
    assert lines[3] == "time,fidelity"
    assert len(lines) >= 4 + 50


# sha256 of sweep stdout, taken before the trace writer was vectorized:
# an ordinary window, times in 1e12..1e16 (where %g and repr disagree) and
# fidelities in exponent form. The fidelities carry the last bits of the
# platform's libm and BLAS, so another platform may need fresh digests.
_GOLDEN_GRAPH = "# five-vertex path with the chord 2-4\nn 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 2 4\n"
_GOLDEN_SOURCES = {"path": ["--path", "15", "--from", "1,2", "--to", "14,15"],
                   "graph": ["--graph", "g.txt", "--from", "1,2", "--to", "4,5"]}
_GOLDEN_SWEEPS = {
    ("path", "317.123", "5000", "json"): "85b7e2b17899c8e0f81c3b2d554a90d274b594be2c0db2c976ecd83aba7db447",
    ("path", "317.123", "5000", "csv"): "ac001c493cb08c835267959d36912bc3b6507c39cb01826d301dab731b52a796",
    ("path", "5e12", "1000", "json"): "a1d8509dc2e84f5678f1fdad93f91cc1ab28b0c97b00d055e96602cef0ffe1ed",
    ("path", "5e12", "1000", "csv"): "fbe723eaf7f5ae93910f111451f20094ee5c28eb9ebad737f8c24cabf5e3341c",
    ("path", "1e-5", "1000", "json"): "ef297f879af6a014b49ba29dadd0b7ae2a185a7fd16768cc8c3ab1fcee0e0677",
    ("path", "1e-5", "1000", "csv"): "4d443d5e39e202728fd2eee6284aba69a44ddaaebee3d24fdcde7eace056efd2",
    ("graph", "317.123", "5000", "json"): "3960c72c1958d6c841f72e767f96c889a69e0f23f30a0686aa8f7c43aa207c73",
    ("graph", "317.123", "5000", "csv"): "3f032478fb9e99cece9d7a31cff481361eee7b9b6098aaa0c642d34c65be5be9",
    ("graph", "5e12", "1000", "json"): "a7fd21c3611dbb55e21fd9460609fc93719cf0573e9763af5bfa0515f8a591e9",
    ("graph", "5e12", "1000", "csv"): "139d56bff5e7f7bfa879c724795ce8f85aa52c4d9b47cb7fdc8f7aa8e0fe544c",
    ("graph", "1e-5", "1000", "json"): "9a02981b4deb8ebb6c3ae9ced5b588f4c572351c0cda3660565dc590e8f99cb7",
    ("graph", "1e-5", "1000", "csv"): "5f51d32335b75269179828b2b51df3d74d43bcac51b23aff4645c397cf8dda95",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_SWEEPS), ids="-".join)
def test_sweep_stdout_matches_golden_digest(tmp_path, monkeypatch, capsys, case):
    source, tmax, steps, fmt = case
    monkeypatch.chdir(tmp_path)  # the JSON record names the graph file
    (tmp_path / "g.txt").write_text(_GOLDEN_GRAPH)
    code, out, _ = _run(capsys, ["sweep", *_GOLDEN_SOURCES[source],
                                 "--tmax", tmax, "--steps", steps,
                                 "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_SWEEPS[case]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_finite_doubles = st.integers(0, 2 ** 64 - 1).map(_double).filter(math.isfinite)


# edges: signed zero, the 1e12..1e16 band where %g writes an exponent and
# repr does not, values that round up into the next decade, the smallest
# subnormal and the 1e-4/1e-5 switch to exponent form
@example([0.0, -0.0, 1.0, 1e12, 999999999999.5, 999999999999.4, 123456789012.0,
          9.99999999999995e15, 1e15, 1e16, 5e-324, 1e-4, 1e-5,
          9.99999999999995e-5, 0.1 + 0.2, 2.0 ** 53 + 2])
@settings(max_examples=300, deadline=None)
@given(st.lists(_finite_doubles | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_trace_formatters_match_per_float_formatting(xs):
    values = np.array(xs)
    assert f"[{_json_floats(values)}]" == json.dumps([_round12(x) for x in xs])
    rows = list(map(_csv_row, memoryview(values), memoryview(values[::-1])))
    assert rows == [f"{t:.12g},{f:.12g}" for t, f in zip(values, values[::-1])]


def test_sweep_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["sweep", "--graph", "/nonexistent/g.txt",
                                 "--from", "1,2", "--to", "2,3",
                                 "--tmax", "1"])
    assert code == 2
    assert "error" in err


def test_sweep_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\ne 1 3\n")
    code, _, err = _run(capsys, ["sweep", "--graph", str(bad),
                                 "--from", "1,2", "--to", "1,2",
                                 "--tmax", "1"])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("tmax", ["nan", "inf"])
def test_sweep_non_finite_tmax_exits_2(capsys, tmax):
    code, out, err = _run(capsys, ["sweep", "--path", "5", "--from", "1,2",
                                   "--to", "4,5", "--tmax", tmax])
    assert code == 2
    assert out == ""
    assert "error: t_max" in err


@pytest.mark.parametrize("steps", [MAX_SWEEP_STEPS + 1, 10 ** 13])
def test_sweep_steps_above_limit_exits_2(capsys, steps):
    code, out, err = _run(capsys, ["sweep", "--path", "4", "--from", "1,2",
                                   "--to", "3,4", "--tmax", "10",
                                   "--steps", str(steps)])
    assert code == 2
    assert out == ""
    assert f"error: steps must lie in 2..{MAX_SWEEP_STEPS}" in err


def test_sweep_bad_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--path", "3", "--from", "1-2", "--to", "2,3",
              "--tmax", "1"])
    assert exc.value.code == 2


def test_decide_disagreement_exits_3(capsys, monkeypatch):
    # Never expected from the real engine; force it to cover the alarm path.
    import lpgst.cli as cli
    from lpgst.decision import CrossCheck, Verdict

    def fake_cross_check(n, a):
        yes = Verdict(True, (1, 2), (3, 4), "closed-form", rule="power-of-two")
        no = Verdict(False, (1, 2), (3, 4), "lattice-parity",
                     certificate=(1, 0, -1), sigma_sum=1)
        return CrossCheck(closed_form=yes, lattice=no)

    monkeypatch.setattr(cli, "cross_check", fake_cross_check)
    code, out, err = _run(capsys, ["decide", "--n", "4", "--a", "1"])
    assert code == 3
    assert json.loads(out)["agree"] is False
    assert "disagree" in err


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = _run(capsys, ["classify", "--n", "5", "--a", "1"])
    assert "elapsed" in err
    assert "elapsed" not in out


def _documented_schemas():
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "output-schemas.md").read_text()
    schemas = {}
    for block in re.findall(r"```json\n(.*?)```", doc, flags=re.S):
        schema = json.loads(block)
        schemas[schema["properties"]["command"]["const"]] = schema
    return schemas


def test_json_records_match_documented_schemas(capsys):
    schemas = _documented_schemas()
    assert set(schemas) == {"classify", "decide", "sweep"}

    _, out, _ = _run(capsys, ["classify", "--n", "8..12", "--a", "all",
                              "--format", "json"])
    jsonschema.validate(json.loads(out), schemas["classify"])

    for argv in (["decide", "--n", "9", "--a", "1", "--certificate"],
                 ["decide", "--n", "4", "--a", "1"]):
        _, out, _ = _run(capsys, argv)
        jsonschema.validate(json.loads(out), schemas["decide"])

    _, out, _ = _run(capsys, ["sweep", "--path", "5", "--from", "1,2",
                              "--to", "4,5", "--tmax", "20", "--steps", "500"])
    jsonschema.validate(json.loads(out), schemas["sweep"])
