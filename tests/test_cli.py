import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgst import _kernels, cli, cyclotomic, decision, spectra
from lpgst.cli import (_PIECE, MAX_CLASSIFY_WORK, _classify_work, _round12,
                       _trace_text, main)
from lpgst.cyclotomic import MAX_TABLE_N, IntPolynomial, theta_table
from lpgst.decision import classify_path, verify_witness
from lpgst.graphs import laplacian
from lpgst.pair_states import MAX_SWEEP_STEPS, fidelity_sweep
from lpgst.spectra import MAX_SPECTRUM_N, path_spectrum

_SRC = str(Path(__file__).resolve().parents[1] / "src")


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


# sha256 of classify stdout, taken while each row still built its witness
# vector and support partition through classify_path
_GOLDEN_CLASSIFY = {
    ("--n", "2..300"): "e50021da016231540bbd10dbba3adca664cd42209148596b4cce7dca5f8ff463",
    ("--n", "2..300", "--format", "json"): "240f67360971ada271638656e99e3c0ccee8c3b73ea28bb8ac06a1cad4fb7978",
    ("--n", "5..300", "--a", "4..9"): "10fc7dd4db4e4534575870407b6fa489e907fd11ccdc55df0b8eeb79c81b4a2e",
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_CLASSIFY), ids=" ".join)
def test_classify_stdout_matches_golden_digest(capsys, argv):
    code, out, _ = _run(capsys, ["classify", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_CLASSIFY[argv]


def test_classify_rows_match_classify_path(capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "2..200"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == sum(n - 1 for n in range(2, 201))
    for n, a, verdict, rule in rows:
        n, a = int(n), int(a)
        if 2 * a == n:
            assert (verdict, rule) == ("same-pair", "")
            continue
        expected = classify_path(n, a)
        assert (verdict == "yes", rule) == (expected.has_lpgst, expected.rule)


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


def test_classify_empty_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "5..3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty range '5..3'" in captured.err


def test_classify_work_counts_rows_times_n():
    assert _classify_work(range(2, 101), "all") == sum(
        n * (n - 1) for n in range(2, 101))
    # a = 6 is a row only at n = 7; the n without rows count as one row
    assert _classify_work(range(5, 8), range(6, 7)) == 5 + 6 + 7


def test_classify_work_limit_both_sides(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CLASSIFY_WORK",
                        _classify_work(range(2, 21), "all"))
    code, out, _ = _run(capsys, ["classify", "--n", "2..20"])
    assert code == 0
    assert len(out.splitlines()) == 2 + sum(n - 1 for n in range(2, 21))
    code, out, err = _run(capsys, ["classify", "--n", "2..21"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n 2..21 --a all needs more than")


@pytest.mark.parametrize("argv", [["--n", f"2..{10 ** 12}"],
                                  ["--n", f"2..{10 ** 12}", "--a", str(10 ** 13)],
                                  ["--n", str(10 ** 6), "--a", "1..20"]])
def test_classify_above_work_limit_exits_2(capsys, argv):
    code, out, err = _run(capsys, ["classify", *argv])
    assert code == 2
    assert out == ""
    assert f"needs more than {MAX_CLASSIFY_WORK} units of work" in err


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


@pytest.mark.parametrize("n", [MAX_TABLE_N + 1, 10 ** 9])
def test_decide_n_above_limit_exits_2(capsys, n):
    code, out, err = _run(capsys, ["decide", "--n", str(n), "--a", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: n must be at most {MAX_TABLE_N}")


# sha256 of decide --certificate stdout. (15,4), (105,2) and (105,52) were
# re-pinned once when the kernel began clearing its sparsest rows first,
# which picks another odd-parity kernel vector; the other eleven kept the
# bytes they had under the natural row order.
_GOLDEN_DECIDE = {
    (9, 1): "9a8779e4cd38768f483d45bd0a160a5a824223f9b89abf6826583bac0aa7d1de",
    (15, 4): "96d76479614fcf9661b4cf656ab0b43520ba7c3c7170dcad67549fa90b69b9d4",
    (24, 4): "f691ad02ceaa9dae0ddb92b9dbc942f7c2d0c70a8a60a8c27ac6c818b20a77d6",
    (60, 7): "c11266301d461ee84318d94b07bc8bbe8dfa49e94857a3c7086632aa0f79576f",
    (77, 10): "8f079025202d7d831abf33eb038ad0e340dd6c70cbd718cebfbda08652c8de1b",
    (96, 5): "9fb04ceadf3e520513607f3c9e312c7a8cf09f40e514e87955625efdda8a5314",
    (96, 16): "cb33217c9e32e6eadb0913bb169954dc50d7cdcbcbd1152f6752f67dd5b04b09",
    (105, 2): "a5cc52f3e8f39692a21b3935d4cbdccf78c0bc2765db1a17787da227e28db0d5",
    (105, 52): "2c2ad7ddf25e0a732fff174a8074aab1a9f6a906935810bc0f7090522279853f",
    (112, 8): "259c35d6b44756c50cdc24d7b1ced7cc226b7e718dd840df3751cb66c65493f8",
    (121, 3): "2b35818b028274fbe74e5ab41e900e0312749090927473ebfc74cb22c1452f08",
    (127, 40): "8786c514653a86e3cc724728a505029f7e7d046b299d0ddf8aaf132f926d38d5",
    (128, 1): "d23c4d7324c99725e850fcf91e540dec364b38ef776ff42bcd2ab76e0ad8a177",
    (128, 63): "cc81d6f2fba60adf863c9023d1e26e72665dcd8a02f7268188e124288f8358ee",
}


@pytest.mark.parametrize("n, a", sorted(_GOLDEN_DECIDE))
def test_decide_certificate_stdout_matches_golden_digest(capsys, n, a):
    code, out, _ = _run(capsys, ["decide", "--n", str(n), "--a", str(a),
                                 "--certificate"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_DECIDE[n, a]
    cert = json.loads(out)["certificate"]
    if cert is not None:
        checks = verify_witness(n, a, tuple(cert))
        assert checks.sum_zero and checks.relation_zero
        assert checks.parity_odd and checks.off_support_zero


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


# sha256 of sweep stdout, taken when the grid became one table of phase
# factors, the same with one BLAS thread and with two: an ordinary window,
# times in 1e12..1e16 (where %g and repr disagree) and fidelities in
# exponent form. The fidelities carry the last bits of the platform's
# libm, so another platform may need fresh digests. The two graph 5e12
# digests were re-taken when the refined point came to need a gain above
# the phase-rounding bound: there it gained 7.4e-4 against a bound of
# 0.031, and it is no longer inserted.
_GOLDEN_GRAPH = "# five-vertex path with the chord 2-4\nn 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 2 4\n"
_GOLDEN_SOURCES = {"path": ["--path", "15", "--from", "1,2", "--to", "14,15"],
                   "graph": ["--graph", "g.txt", "--from", "1,2", "--to", "4,5"]}
_GOLDEN_SWEEPS = {
    ("path", "317.123", "5000", "json"): "fb2d3328114f444380319221f063db7f6bce74869dd7d9a5c0a1cc0e0629c3e9",
    ("path", "317.123", "5000", "csv"): "b7b208753e64d0220a2cfbc7306f5b5a995ea3ef2fcfc9390a800eac46f32163",
    ("path", "5e12", "1000", "json"): "55c4f45da0244f684b77dbb6fcf84b66867c2b3e79cb2555e5dc665ea5920192",
    ("path", "5e12", "1000", "csv"): "c2c58c6426b90b2c3691d6891cea1cdd18a1a65764e5987f73d14ee848bf3a6e",
    ("path", "1e-5", "1000", "json"): "d77a42d55c6665f57e441f3e009ed0af879fb50f8832a4d36d064189ac2240ab",
    ("path", "1e-5", "1000", "csv"): "069ed2d3d6a7cf262291c3d66f791b1b85cb3f876db03fe17acc0e9de0035c57",
    ("graph", "317.123", "5000", "json"): "214755f005b985087fa5c5ab8e99cd58f702b2d0d1921dab8f62c9a48d1cfc7a",
    ("graph", "317.123", "5000", "csv"): "42e870470ea8623342e4f853847c49acb076e762b75121c01a2ccac82fde777a",
    ("graph", "5e12", "1000", "json"): "2b594061a910115dca6ac497fe5b6077c2e6042aea744b845e5c2c86aa28a883",
    ("graph", "5e12", "1000", "csv"): "65b57bfbcfd11d7b624e7fb11f75089aa4aac9eedbbfe7ea14d93c5cdc8ade52",
    ("graph", "1e-5", "1000", "json"): "6780cac21fbb0a03050ecbfcf6aa71ad73dcd465e1c879a819cec07f2a58664a",
    ("graph", "1e-5", "1000", "csv"): "823c7a2f28f7ce9b63b311a45b9d937160624e12eb43aebb55b6a689b76ae3e6",
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


# The same digests for two graphs with repeated Laplacian eigenvalues.
# Each pair has weight on a repeated eigenvalue, which the simple-spectrum
# digests above never reach.
_REPEATED_GRAPHS = {
    "C8": ("n 8\n" + "".join(f"e {k} {k + 1}\n" for k in range(1, 8))
           + "e 1 8\n", ["--from", "1,2", "--to", "5,6"]),
    "K1,6": ("n 7\n" + "".join(f"e 1 {v}\n" for v in range(2, 8)),
             ["--from", "2,3", "--to", "4,5"]),
}
_REPEATED_SWEEPS = {
    ("C8", "json"): "71f410c86b19acc373db3fdb4d6aefe50dd264669e00bb0f898ed8e82d5bfaaa",
    ("C8", "csv"): "c43e1142d1bb87062ac82b8b60f0f769d913ff5fd6df6d8bee24db5ccd3d3afb",
    ("K1,6", "json"): "1407fac9a4f0503a83a9f14529bdd0260389b2f5f97f9a2ec6a584eafe6e861d",
    ("K1,6", "csv"): "e4ac423cb2d4369367e01c875ed9f8e8cdc54d40cf23ba718e6e3ba7e2636d10",
}


@pytest.mark.parametrize("case", sorted(_REPEATED_SWEEPS), ids="-".join)
def test_repeated_eigenvalue_sweep_matches_golden_digest(tmp_path, monkeypatch,
                                                        capsys, case):
    name, fmt = case
    text, pairs = _REPEATED_GRAPHS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(text)
    code, out, _ = _run(capsys, ["sweep", "--graph", "g.txt", *pairs,
                                 "--tmax", "317.123", "--steps", "5000",
                                 "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _REPEATED_SWEEPS[case]


@pytest.mark.parametrize("argv", [
    ["sweep", "--path", "15", "--from", "1,2", "--to", "14,15", "--tmax", "50",
     "--steps", "1000000", "--format", "csv"],
    ["classify", "--n", "2..300"]], ids=["sweep", "classify"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader stops after the first line, as `| head -1` does, while
    # most of the output is still to be written
    child = subprocess.Popen([sys.executable, "-m", "lpgst.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=_SRC),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait() == 1
    assert "Traceback" not in err and "Error" not in err


def test_path_sweep_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS splits a matrix-vector product between threads at a row that
    # depends on the row count, and rows next to the split round otherwise;
    # this sweep's bytes differed so while the grid ran through BLAS
    argv = [sys.executable, "-m", "lpgst.cli", "sweep", "--path", "300",
            "--from", "1,2", "--to", "299,300", "--tmax", "50",
            "--steps", "10001"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outputs.append(subprocess.run(argv, env=env, capture_output=True,
                                      check=True).stdout)
    assert outputs[0].startswith(b'{"schema_version": "1"')
    assert outputs[0] == outputs[1]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_finite_doubles = st.integers(0, 2 ** 64 - 1).map(_double).filter(math.isfinite)


def _written(columns, separators, json_items) -> list[str]:
    """The texts the trace writer passes to write, one per call."""
    pieces = []
    _trace_text(pieces.append, columns, separators, json_items)
    return pieces


def _json_items(values: np.ndarray) -> str:
    return "".join(_written([values], [", "], json_items=True))


def _csv_rows(times: np.ndarray, fidelities: np.ndarray) -> str:
    return "".join(_written([times, fidelities], [",", "\n"], json_items=False))


# edges: signed zero, the 1e12..1e16 band where %g writes an exponent and
# repr does not, values that round up into the next decade, the smallest
# subnormal and the 1e-4/1e-5 switch to exponent form
@example([0.0, -0.0, 1.0, 1e12, 999999999999.5, 999999999999.4, 123456789012.0,
          9.99999999999995e15, 1e15, 1e16, 5e-324, 1e-4, 1e-5,
          9.99999999999995e-5, 0.1 + 0.2, 2.0 ** 53 + 2])
# the array-built band 1e-4 <= x < 1e11: mantissas next to a tie, a mantissa
# that rounds to 10^12, values just below a power of ten (where log10 may
# round up), both ends of the band, integers (JSON ".0", CSV no point) and
# zeros in every fraction word
@example([0.1234567890125, 2.0000000000005, 123456.7890125, 98765432109.5,
          0.99999999999996, 9999.99999999995, math.nextafter(1e-3, 0),
          math.nextafter(1.0, 0), math.nextafter(1000.0, 0),
          math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), 1e-4,
          math.nextafter(1e11, 0), 99999999999.4, 99999999999.5, 1e11,
          2.0, 300.0, 12345678901.0, 0.5, 10.000000001, 0.000100000000001])
# a block no value of which is array-built
@example([0.0, -1.5, 1e-5, 5e-324, 1e11, 1e300, 0.1234567890125])
@settings(max_examples=300, deadline=None)
@given(st.lists(_finite_doubles | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_trace_formatters_match_per_float_formatting(xs):
    values = np.array(xs)
    assert f"[{_json_items(values)}]" == json.dumps([_round12(x) for x in xs])
    rows = _csv_rows(values, values[::-1]).split("\n")
    assert rows == [f"{t:.12g},{f:.12g}" for t, f in zip(values, values[::-1])]


def _decade_scan() -> np.ndarray:
    """The neighbours of every power of ten from 1e-320 to 1e17, and in
    each of those decades seeded values: full and short mantissas, ties
    in the twelfth digit and their neighbours, and integers."""
    powers = 10.0 ** np.arange(-320, 18)
    rng = np.random.default_rng(20)
    decades = np.repeat(powers, 12)
    mantissas = rng.uniform(1.0, 10.0, decades.size)
    places = 10.0 ** rng.integers(0, 11, decades.size)
    short = np.rint(mantissas * places) / places
    ties = (rng.integers(10 ** 11, 10 ** 12, decades.size) + 0.5) / 1e11
    scan = [np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
            mantissas * decades, short * decades, ties * decades,
            np.nextafter(ties * decades, 0), np.nextafter(ties * decades, np.inf),
            np.floor(mantissas * decades[::-1])]
    return np.concatenate(scan)


def test_trace_formatters_match_per_float_formatting_on_decade_scan():
    values = _decade_scan()
    xs = values.tolist()
    assert f"[{_json_items(values)}]" == json.dumps([_round12(x) for x in xs])
    pieces = _written([values, values[::-1]], [",", "\n"], json_items=False)
    assert "".join(pieces) == "\n".join(
        "%.12g,%.12g" % pair for pair in zip(xs, xs[::-1]))
    # one write per piece of _PIECE rows, each written as it is built: no
    # call carries more than one piece's rows
    full, last = divmod(values.size - 1, _PIECE)
    assert len(pieces) == math.ceil(values.size / _PIECE) > 2
    assert [p.count("\n") for p in pieces] == [_PIECE] * full + [last]


def _one_shot_sweep_stdout(trace, n, frm, to, tmax, steps, fmt):
    """sweep --path stdout as the whole text was built before the trace was
    streamed: the reference for the piece writer."""
    fmt12 = "{:.12g}".format
    if fmt == "csv":
        lines = ["# schema_version=1",
                 f"# sup_estimate={fmt12(trace.sup_estimate)}",
                 f"# argmax_time={fmt12(trace.argmax_time)}",
                 "time,fidelity"]
        lines.extend(map("{:.12g},{:.12g}".format, memoryview(trace.times),
                         memoryview(trace.fidelities)))
        return "\n".join(lines) + "\n"

    def items(values):
        return ", ".join([tok if "." in tok and "e" not in tok else repr(float(tok))
                          for tok in map(fmt12, memoryview(values))])

    record = {"schema_version": "1", "command": "sweep",
              "inputs": {"source": f"path:{n}", "from": list(frm), "to": list(to),
                         "t_max": float(fmt12(float(tmax))), "steps": steps},
              "sup_estimate": float(fmt12(trace.sup_estimate)),
              "argmax_time": float(fmt12(trace.argmax_time))}
    return (f'{json.dumps(record)[:-1]}, "times": [{items(trace.times)}], '
            f'"fidelities": [{items(trace.fidelities)}]}}\n')


def _boundary_tmax(steps):
    """A --tmax for the 3-path sweep 1,2 -> 2,3 that puts the transfer time
    pi/2 halfway between the last two grid points, so the refined point is
    inserted at index steps - 1."""
    return repr(math.pi / 2 * (steps - 1) / (steps - 1.5))


# steps around the boundaries of the trace writer's pieces, after the first
# piece and after the eighth: the trace is one value longer than the grid
# when the refined point is inserted, and the 3-path cases insert it as the
# last row of a piece and as the first row of the next
_BLOCK_SWEEPS = [(15, "317.123", steps) for m in (1, 8) for steps in
                 (m * _PIECE - 1, m * _PIECE, m * _PIECE + 1, 2 * m * _PIECE + 1)]
_BLOCK_SWEEPS += [(3, _boundary_tmax(steps), steps)
                  for m in (1, 8) for steps in (m * _PIECE, m * _PIECE + 1)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n,tmax,steps", _BLOCK_SWEEPS,
                         ids=[f"{n}-{steps}" for n, _, steps in _BLOCK_SWEEPS])
def test_block_streamed_sweep_matches_one_shot_text(capsys, n, tmax, steps, fmt):
    frm, to = (1, 2), (n - 1, n)
    code, out, _ = _run(capsys, ["sweep", "--path", str(n),
                                 "--from", "1,2", "--to", f"{n - 1},{n}",
                                 "--tmax", tmax, "--steps", str(steps),
                                 "--format", fmt])
    assert code == 0
    trace = fidelity_sweep(path_spectrum(n), frm, to, float(tmax), steps)
    want = _one_shot_sweep_stdout(trace, n, frm, to, tmax, steps, fmt)
    if out != want:     # pytest's own diff of megabytes of text takes minutes
        i = len(os.path.commonprefix([out, want]))
        pytest.fail(f"stdout differs at offset {i} of {len(want)}: "
                    f"{out[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}")
    if n == 3:
        assert trace.times.size == steps + 1
        assert trace.times[steps - 1] == trace.argmax_time


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_inserts_no_refined_point_that_only_rounding_raised(capsys, fmt):
    # the golden-section point read higher than the grid's fidelity 1 at
    # t = 0 by rounding alone, and a fourth row at t = 5.5e-14 was printed
    code, out, _ = _run(capsys, ["sweep", "--path", "5", "--from", "1,2",
                                 "--to", "1,2", "--tmax", "1", "--steps", "3",
                                 "--format", fmt])
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["times"] == [0.0, 0.5, 1.0]
    else:
        assert out.splitlines()[4:] == ["0,1", "0.5,0.827389495126",
                                        "1,0.457139795938"]


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_tmax_overflow_exits_2(capsys, fmt):
    # finite, but t_max * theta_max overflows to inf and every phase to NaN
    code, out, err = _run(capsys, ["sweep", "--path", "5", "--from", "1,2",
                                   "--to", "4,5", "--tmax", "1e308",
                                   "--steps", "3", "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith("error: t_max times the largest eigenvalue must be finite")


@pytest.mark.parametrize("steps", [MAX_SWEEP_STEPS + 1, 10 ** 13])
def test_sweep_steps_above_limit_exits_2(capsys, steps):
    code, out, err = _run(capsys, ["sweep", "--path", "4", "--from", "1,2",
                                   "--to", "3,4", "--tmax", "10",
                                   "--steps", str(steps)])
    assert code == 2
    assert out == ""
    assert f"error: steps must lie in 2..{MAX_SWEEP_STEPS}" in err


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_above_work_limit_exits_2(capsys, monkeypatch, fmt):
    # steps times eigenvalues has no bound of its own: MAX_SWEEP_STEPS on the
    # largest path reaches the grid, and one step more exits 2
    def grid(*args):
        raise _GridBuilt
    monkeypatch.setattr(_kernels, "fidelity_grid", grid)
    argv = ["sweep", "--path", str(MAX_SPECTRUM_N), "--from", "1,2",
            "--to", f"{MAX_SPECTRUM_N - 1},{MAX_SPECTRUM_N}", "--tmax", "10",
            "--format", fmt, "--steps"]
    with pytest.raises(_GridBuilt):
        main(argv + [str(MAX_SWEEP_STEPS)])
    capsys.readouterr()
    code, out, err = _run(capsys, argv + [str(MAX_SWEEP_STEPS + 1)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: steps must lie in 2..{MAX_SWEEP_STEPS}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_subnormal_step_exits_2(capsys, fmt):
    # linspace would print the times 0, 0, 4.94065645841e-324
    code, out, err = _run(capsys, ["sweep", "--path", "2", "--from", "1,2",
                                   "--to", "2,1", "--tmax", "5e-324",
                                   "--steps", "3", "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith("error: t_max / (steps - 1) must be at least")


def test_sweep_vertex_limit_both_sides(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_N", 6)
    built = []
    monkeypatch.setattr(cli, "laplacian",
                        lambda g: built.append(g.n) or laplacian(g))
    for n, expected in ((6, 0), (7, 2)):
        (tmp_path / "g.txt").write_text(
            f"n {n}\n" + "".join(f"e {k} {k + 1}\n" for k in range(1, n)))
        for source in (["--path", str(n)], ["--graph", str(tmp_path / "g.txt")]):
            code, out, err = _run(capsys, ["sweep", *source, "--from", "1,2",
                                           "--to", "2,3", "--tmax", "10",
                                           "--steps", "50"])
            assert code == expected, source
            if expected:
                assert out == ""
                assert err.startswith("error: n must be at most 6 for a spectrum")
    assert built == [6]     # the refused graph never reached laplacian


def test_sweep_graph_vertex_count_refused_at_its_header(tmp_path, capsys):
    # the malformed line after the header is never parsed
    (tmp_path / "g.txt").write_text("n 3000\ne 1\n" + "e 1 2\n" * 1000)
    code, out, err = _run(capsys, ["sweep", "--graph", str(tmp_path / "g.txt"),
                                   "--from", "1,2", "--to", "2,3",
                                   "--tmax", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: n must be at most {MAX_SPECTRUM_N} "
                          "for a spectrum, got 3000")


@pytest.mark.parametrize("source", ["path", "graph"])
def test_sweep_above_vertex_limit_exits_2(tmp_path, capsys, source):
    # 10**9 vertices: an n x n float64 array would need 8 EB
    (tmp_path / "g.txt").write_text(f"n {10 ** 9}\ne 1 2\ne 2 3\n")
    argv = (["--path", str(10 ** 9)] if source == "path"
            else ["--graph", str(tmp_path / "g.txt")])
    code, out, err = _run(capsys, ["sweep", *argv, "--from", "1,2",
                                   "--to", "2,3", "--tmax", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: n must be at most {MAX_SPECTRUM_N} "
                          f"for a spectrum, got {10 ** 9}")


def test_sweep_bad_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--path", "3", "--from", "1-2", "--to", "2,3",
              "--tmax", "1"])
    assert exc.value.code == 2


def test_sweep_non_integer_label_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--path", "3", "--from", "1,x", "--to", "2,3",
              "--tmax", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-integer label in pair '1,x'" in captured.err


class _Reached(Exception):
    pass


def _fail_if_reached(monkeypatch, *names):
    def reached(*args):
        raise _Reached
    for name in names:
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("grid,message", [
    (["--tmax", "5e-324", "--steps", "3"], "t_max / (steps - 1) must be at least"),
    (["--tmax", "10", "--steps", "1"], f"steps must lie in 2..{MAX_SWEEP_STEPS}"),
    (["--tmax", "nan", "--steps", "3"], "t_max must be finite and positive"),
], ids=["subnormal-step", "one-step", "nan-tmax"])
def test_sweep_bad_grid_exits_2_before_the_graph_is_read(tmp_path, capsys,
                                                         monkeypatch, grid,
                                                         message):
    _fail_if_reached(monkeypatch, "parse_graph", "laplacian", "eigendecompose")
    (tmp_path / "g.txt").write_text("n 3\ne 1 2\ne 2 3\n")
    code, out, err = _run(capsys, ["sweep", "--graph", str(tmp_path / "g.txt"),
                                   "--from", "1,2", "--to", "2,3", *grid])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("frm,to,message", [
    ("1,2000", "2,3", "pair (1, 2000) out of range for n=3"),
    ("1,2", "0,1", "pair (0, 1) out of range for n=3"),
    ("2,2", "2,3", "pair vertices must differ"),
], ids=["label-past-n", "label-0", "same-vertex"])
def test_sweep_graph_bad_pair_exits_2_before_laplacian(tmp_path, capsys,
                                                       monkeypatch, frm, to,
                                                       message):
    _fail_if_reached(monkeypatch, "laplacian", "eigendecompose")
    (tmp_path / "g.txt").write_text("n 3\ne 1 2\ne 2 3\n")
    code, out, err = _run(capsys, ["sweep", "--graph", str(tmp_path / "g.txt"),
                                   "--from", frm, "--to", to, "--tmax", "10",
                                   "--steps", "50"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("path", ["1024", "5", "1"])
def test_sweep_path_bad_pair_exits_2_before_path_spectrum(capsys, monkeypatch, path):
    _fail_if_reached(monkeypatch, "path_spectrum")
    code, out, err = _run(capsys, ["sweep", "--path", path, "--from", "1,2000",
                                   "--to", "3,4", "--tmax", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: pair (1, 2000) out of range for n={path}")


def test_decide_disagreement_exits_3(capsys, monkeypatch):
    # Never expected from the real engine; force it to cover the alarm path.
    import lpgst.cli as cli
    from lpgst.decision import CrossCheck, Verdict

    def fake_cross_check(n, a):
        yes = Verdict(True, (1, 2), (3, 4), rule="power-of-two")
        no = Verdict(False, (1, 2), (3, 4), certificate=(1, 0, -1))
        return CrossCheck(closed_form=yes, lattice=no)

    monkeypatch.setattr(cli, "cross_check", fake_cross_check)
    code, out, err = _run(capsys, ["decide", "--n", "4", "--a", "1"])
    assert code == 3
    assert json.loads(out)["agree"] is False
    assert "disagree" in err


def test_decide_certificate_failing_reverification_exits_3(capsys, monkeypatch):
    # Never expected from the real engine: (1, 0, -1) is no relation among
    # the eigenvalues of the 4-path, yet both routes are made to carry it.
    from lpgst.decision import CrossCheck, Verdict

    def fake_cross_check(n, a):
        no = Verdict(False, (1, 2), (3, 4), certificate=(1, 0, -1))
        return CrossCheck(closed_form=no, lattice=no)

    monkeypatch.setattr(cli, "cross_check", fake_cross_check)
    code, out, err = _run(capsys, ["decide", "--n", "4", "--a", "1", "--certificate"])
    assert code == 3
    assert out == ""
    [line] = [x for x in err.splitlines() if x.startswith("error:")]
    assert "relation_zero" in line


def _flipped_theta_rows(n, phi):
    """Rows 2 - x^k - x^(n-k) mod phi: cyclotomic._theta_rows with the sign
    of its x^(n-k) term flipped, so every eigenvalue image is wrong."""
    modulus = IntPolynomial(tuple(phi.tolist()))
    rows = np.zeros((n - 1, len(phi) - 1), dtype=np.int64)
    for k in range(1, n):
        poly = (IntPolynomial((2,)) + IntPolynomial((0,) * k + (-1,))
                + IntPolynomial((0,) * (n - k) + (-1,)))
        coeffs = divmod(poly, modulus)[1].coefficients
        rows[k - 1, :len(coeffs)] = coeffs
    return rows


def test_decide_certificate_from_a_wrong_table_exits_3(capsys, monkeypatch):
    # the lattice route eliminates the wrong table and finds a "relation";
    # the certificate check reads no table, so it is not fooled. Both
    # caches are cleared, so no verdict from the right table is served and
    # none from the wrong one outlives the test.
    monkeypatch.setattr(cyclotomic, "_theta_rows", _flipped_theta_rows)
    theta_table.cache_clear()
    decision._lattice_verdict.cache_clear()
    try:
        code, out, err = _run(capsys, ["decide", "--n", "9", "--a", "1",
                                       "--certificate"])
    finally:
        theta_table.cache_clear()
        decision._lattice_verdict.cache_clear()
    assert code == 3
    assert out == ""
    [line] = [x for x in err.splitlines() if x.startswith("error:")]
    assert "relation_zero" in line


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


# The child is started from a small Python process rather than from
# pytest: Linux carries the RSS high-water mark of a process across fork
# and exec, so a sweep started from the test process would report at
# least the test process's own peak.
_PEAK_SCRIPT = """
import hashlib, resource, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "lpgst.cli", *sys.argv[1:]],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
digest = hashlib.sha256()
for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
    digest.update(chunk)
code = child.wait()
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(code, peak_mb, digest.hexdigest())
"""

# stdout digests, the same with one BLAS thread and with two; the first two
# taken when the grid became one table of phase factors. The two 1024-path
# digests were re-taken when the refined point came to need a gain above
# the phase-rounding bound: their fidelities are about 3e-29, rounding
# noise under a 6.8e-13 bound, and the refined row is no longer inserted.
_LARGE_SWEEPS = [
    (["--path", "1024", "--from", "100,101", "--to", "924,925",
      "--tmax", "50", "--steps", "100000"], 150,
     "61eae61ef23072c755efed1021a4f1faa6620a62b1fccf6134c2095eaeadb0a0"),
    (["--path", "20", "--from", "3,4", "--to", "17,18", "--tmax", "100",
      "--steps", "10000000", "--format", "csv"], 400,
     "7d86016fff0dd38aa315872162e43616f0d285092bc967e8fa5c298a8a6d09f4"),
    # the largest sweep accepted, both bounds at their limit
    (["--path", "1024", "--from", "1,2", "--to", "1023,1024", "--tmax", "50",
      "--steps", "10000000", "--format", "csv"], 400,
     "461144d4e078292a891094688a22703a7e1a12ab4b6e4c26e7a46a2a53892899"),
]


@pytest.mark.slow
@pytest.mark.parametrize("argv,limit_mb,digest", _LARGE_SWEEPS,
                         ids=["path1024-json", "path20-10M-csv",
                              "path1024-10M-csv"])
def test_large_sweep_peak_memory_and_bytes(argv, limit_mb, digest):
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, "sweep", *argv],
                          env=env, capture_output=True, text=True, check=True)
    code, peak_mb, sha = done.stdout.split()
    assert code == "0"
    assert float(peak_mb) < limit_mb
    assert sha == digest
