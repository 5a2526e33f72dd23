import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from lpgst.cli import main


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
    code, out, _ = _run(capsys, ["classify", "--n", "5..7", "--a", "4..6"])
    assert code == 0
    assert out.strip().splitlines()[2:] == [
        "5,4,yes,odd-prime", "6,4,yes,two-power-times-prime",
        "6,5,yes,two-power-times-prime", "7,4,yes,odd-prime",
        "7,5,yes,odd-prime", "7,6,yes,odd-prime"]


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
