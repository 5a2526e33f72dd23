"""Command-line front end: classification tables, single-instance decisions
with certificates, and fidelity sweeps.

Exit codes: 0 success, 1 stdout closed by its reader (as by `| head`),
2 usage or input error, 3 internal cross-check failure (the two decision
routes disagree, or a certificate about to be printed fails
re-verification; never expected). Output on
stdout is deterministic: records are sorted and floats are formatted at
12 significant digits. Timing goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .decision import cross_check, path_class, verify_witness
from .graphs import laplacian, parse_graph
from .pair_states import check_sweep_grid, fidelity_sweep, pair_vector
from .spectra import check_vertex_count, eigendecompose, path_spectrum

SCHEMA_VERSION = "1"

# Largest classify selection, in rows * n summed over n (an n without rows
# counts as one row), checked before any row is computed. A row costs one
# factorization of n, so the limit bounds the table printed more than the
# time: on a 2-core x86-64 VM, --n 4000 (16.0M) takes 0.3 s end to end and
# --n 2..360 (15.6M) 0.5 s.
MAX_CLASSIFY_WORK = 16_000_000


# 12 significant digits: every float on stdout goes through one of these
_fmt = "{:.12g}".format

# Below the smallest normal double a 12-digit token may carry more digits
# than the float does, and repr writes fewer (5e-324 is 4.94065645841e-324).
_TINY = sys.float_info.min


def _round12(x: float) -> float:
    return float(_fmt(x))


# no token holds a space, so only the padding turns into NULs
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _fields(values: np.ndarray, json_items: bool) -> np.ndarray:
    """The token of each value by the per-value rule, one row of eight
    uint32 words (NUL-padded) per value.

    The rule is %.12g, and in JSON the item json.dumps writes for
    _round12(x), repr(float("%.12g" % x)). %.12g writes the bytes repr
    writes for the rounded value, except for bare integers, which lack
    ".0" and come only from values within 1e-11 (relative) of an integer;
    exponent forms for exponents 12..15, which repr writes positionally
    and which need a magnitude of 1e11 or more; and subnormals. In JSON
    those values go through "%s" as repr(_round12(x)). A token has at most
    19 bytes ("-1.23456789012e-308", "-1234567890120000.0"), so it is
    formatted left-justified in 32, and the spaces become NULs.
    """
    items = values.tolist()
    fmt = [b"%-32.12g"] * len(items)
    if json_items:
        mag = np.abs(values)
        special = ((np.abs(values - np.rint(values)) <= 1e-11 * mag)
                   | (mag >= 1e11) | (mag < _TINY))
        for i in np.flatnonzero(special).tolist():
            fmt[i] = b"%-32s"
            items[i] = repr(_round12(items[i])).encode("ascii")
    text = (b"".join(fmt) % tuple(items)).translate(_SPACE_TO_NUL)
    return np.frombuffer(text, dtype=np.uint32).reshape(-1, 8)


def _words(texts: list[str]) -> np.ndarray:
    """Each ASCII text of at most 4 bytes as one uint32 word, NUL-padded
    on the right; the padding is deleted from the finished text."""
    return np.array(texts, dtype="S4").view(np.uint32)


# Four digits per word, from 10,000-entry tables: index d is d as "%04d";
# index 10000 + d is the same word when a digit of the number lies beyond
# it on the side the zeros would be stripped from, so they are kept.
_DIGITS = ["%04d" % d for d in range(10000)]
_PLAIN = _words(_DIGITS)
_LEADING = np.concatenate([_words([d.lstrip("0").rjust(4, "\0")
                                   for d in _DIGITS]), _PLAIN])
_TRAILING = np.concatenate([_words([d.rstrip("0") for d in _DIGITS]), _PLAIN])
# the units word of an integer part below 1 is "0"; the point word of an
# integer-valued JSON item is ".0" (it writes "2.0")
_UNITS = _LEADING.copy()
_UNITS[0] = _words(["0".rjust(4, "\0")])[0]
_POINT, _JSON_END = _words([".", ".0"])
_POW10 = 10.0 ** np.arange(16)
_POW10_INT = 10 ** np.arange(16, dtype=np.int64)

# Values formatted and written at a time, so the trace text held at once
# is one piece's: _digit_words's temporaries of 64 KB are reused from the
# heap, where 65,536-value ones were mapped afresh (page faults) on every
# call, and the piece's words stay in cache.
_PIECE = 8192


def _digit_words(values: np.ndarray, out: np.ndarray, json_items: bool) -> np.ndarray:
    """Write the token of each value with 1e-4 <= x < 1e11 into its row of
    out, eight uint32 words (integer part, point, fraction; NUL-padded),
    and return the mask of the rows written. The other rows are left to
    the per-value rule.

    %.12g writes these values positionally, and repr the rounded ones, so
    a token is the correctly rounded 12-digit mantissa M = round(x *
    10^(11-e)), e the decimal exponent, with the point after e + 1 digits
    and trailing fraction zeros stripped; JSON keeps ".0" and CSV drops
    the point of an integer. s = x * 10^(11-e) < 2^40 is one multiply by
    an exact power, off by at most 2^-14, so its nearest integer is M
    unless it lies within 1e-3 of a tie; those rows are left out. A log10
    one off in either direction puts s below 1e11 or its nearest integer
    at 1e12 or above, which leaves the row out too (an s rounded up to
    1e11 exactly comes from an x that rounds to 10^e, whose token it gives).
    """
    fits = (values >= 1e-4) & (values < 1e11)
    if not fits.any():
        return fits
    x = np.where(fits, values, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)
    np.clip(e, -4, 10, out=e)       # table indices, should log10 round at an end
    scale = _POW10.take(11 - e)
    s = x * scale
    mantissa = np.rint(s)
    fits &= (np.abs(s - mantissa) < 0.499) & (s >= 1e11) & (mantissa < 1e12)
    # the integer part (below 1e11) and the fraction's digits left-aligned
    # to 16 places, both exact: mantissa and scale are integers below 2^53
    whole = np.floor(mantissa / scale)
    frac = (mantissa - whole * scale).astype(np.int64) * _POW10_INT.take(5 + e)
    whole = whole.astype(np.int64)
    w0 = whole // 10 ** 8
    w12 = whole - w0 * 10 ** 8
    w1 = w12 // 10000
    w2 = w12 - w1 * 10000
    out[:, 0] = _LEADING.take(w0)
    out[:, 1] = _LEADING.take(w1 + 10000 * (w0 != 0))
    out[:, 2] = _UNITS.take(w2 + 10000 * (whole >= 10000))
    f01 = frac // 10 ** 8
    f23 = frac - f01 * 10 ** 8
    f0 = f01 // 10000
    f1 = f01 - f0 * 10000
    f2 = f23 // 10000
    f3 = f23 - f2 * 10000
    out[:, 7] = _TRAILING.take(f3)
    out[:, 6] = _TRAILING.take(f2 + 10000 * (f3 != 0))
    out[:, 5] = _TRAILING.take(f1 + 10000 * (f23 != 0))
    out[:, 4] = _TRAILING.take(f0 + 10000 * ((f1 != 0) | (f23 != 0)))
    out[:, 3] = np.where(frac != 0, _POINT, _JSON_END if json_items else 0)
    return fits


def _trace_text(write, columns: list[np.ndarray], separators: list[str],
                json_items: bool) -> None:
    """Write the rows of the trace text, _PIECE rows per call of write:
    row i holds the token of columns[j][i] followed by separators[j] for
    each j, and the last row has no last separator.

    In each piece _digit_words writes the tokens it can as uint32 words
    and _fields the others, spliced in by one assignment; deleting the
    NUL padding leaves the piece's text.
    """
    n = columns[0].size
    buffer = np.empty((min(n, _PIECE), len(columns), 9), dtype=np.uint32)
    buffer[:, :, 8] = _words(separators)
    for s in range(0, n, _PIECE):
        words = buffer[:n - s]
        part = [values[s:s + _PIECE] for values in columns]
        built = np.stack([_digit_words(values, words[:, j, :8], json_items)
                          for j, values in enumerate(part)], axis=1)
        rest = np.flatnonzero(~built)
        if rest.size:
            tokens = words.reshape(-1, 9)               # in text order
            tokens[rest, :8] = _fields(np.stack(part, axis=1).ravel()[rest], json_items)
        if s + _PIECE >= n:
            words[-1, -1, 8] = 0
        write(words.tobytes().translate(None, b"\0").decode("ascii"))


def _parse_span(text: str) -> range:
    """Parse "12" or "2..16" (inclusive) into a range."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}; expected N or LO..HI") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_span_or_all(text: str):
    return "all" if text == "all" else _parse_span(text)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"bad pair {text!r}; expected two comma-separated labels")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer label in pair {text!r}") from None


def _a_values(n: int, a) -> range:
    """The --a values that lie in 1..n-1."""
    return range(1, n) if a == "all" else range(max(a.start, 1), min(a.stop, n))


def _classify_work(ns: range, a) -> int:
    """Sum over n of n * max(rows at n, 1), stopping once it passes
    MAX_CLASSIFY_WORK.

    Every n counts at least n >= 2, so the loop ends within about
    sqrt(2 * MAX_CLASSIFY_WORK) values of n, however long the range.
    """
    work = 0
    for n in ns:
        rows = _a_values(n, a)      # len() refuses a range past sys.maxsize
        work += n * max(rows.stop - rows.start, 1)
        if work > MAX_CLASSIFY_WORK:
            break
    return work


def cmd_classify(args: argparse.Namespace) -> int:
    if args.n.start < 2:
        print(f"error: path needs at least 2 vertices, got n={args.n.start}",
              file=sys.stderr)
        return 2
    if _classify_work(args.n, args.a) > MAX_CLASSIFY_WORK:
        print(f"error: --n {_span_text(args.n)} --a {_span_text(args.a)} needs "
              f"more than {MAX_CLASSIFY_WORK} units of work (rows times n, "
              f"summed over n); split the range", file=sys.stderr)
        return 2
    rows = []
    skipped = []
    for n in args.n:
        a_values = _a_values(n, args.a)
        if args.a != "all":
            lo, stop = args.a.start, args.a.stop
            outside = [r for r in (range(lo, min(stop, 1)),
                                   range(max(lo, n), stop)) if r]
            if outside:
                skipped.append(f"n={n} a={','.join(map(_span_text, outside))}")
        for a in a_values:
            if 2 * a == n:
                rows.append({"n": n, "a": a, "verdict": "same-pair", "rule": ""})
                continue
            cls = path_class(n, a)
            rows.append({"n": n, "a": a,
                         "verdict": "yes" if cls.has_lpgst else "no",
                         "rule": cls.kind})
    if not rows:
        print(f"error: --a {_span_text(args.a)} selects no a in 1..n-1 "
              f"for --n {_span_text(args.n)}", file=sys.stderr)
        return 2
    if skipped:
        print(f"note: --a values outside 1..n-1 skipped: {'; '.join(skipped)}",
              file=sys.stderr)
    if args.format == "csv":
        lines = [f"# schema_version={SCHEMA_VERSION}", "n,a,verdict,rule"]
        lines.extend(f"{r['n']},{r['a']},{r['verdict']},{r['rule']}" for r in rows)
        print("\n".join(lines))
    else:
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": "classify",
            "inputs": {"n": _span_text(args.n), "a": _span_text(args.a)},
            "results": rows,
        }
        print(json.dumps(record))
    return 0


def _span_text(span) -> str:
    if span == "all":
        return "all"
    if span.stop - span.start == 1:
        return str(span.start)
    return f"{span.start}..{span.stop - 1}"


def cmd_decide(args: argparse.Namespace) -> int:
    try:
        check = cross_check(args.n, args.a)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    closed, lattice = check.closed_form, check.lattice
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "decide",
        "inputs": {"n": args.n, "a": args.a},
        "from_pair": list(closed.from_pair),
        "to_pair": list(closed.to_pair),
        "closed_form": {"has_lpgst": closed.has_lpgst, "rule": closed.rule},
        "lattice": {"has_lpgst": lattice.has_lpgst},
        "agree": check.agree,
    }
    if args.certificate:
        cert = lattice.certificate if lattice.certificate is not None else closed.certificate
        record["certificate"] = record["sigma_sum"] = None
        if cert is not None:
            witness = verify_witness(args.n, args.a, cert)
            failed = [f for f, ok in zip(witness._fields[:4], witness) if not ok]
            if failed:
                print(f"error: certificate fails re-verification: {', '.join(failed)}",
                      file=sys.stderr)
                return 3
            record["certificate"], record["sigma_sum"] = list(cert), witness.sigma_sum
    print(json.dumps(record))
    if not check.agree:
        print("error: closed-form and lattice verdicts disagree", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        check_sweep_grid(args.tmax, args.steps)     # before any file or spectrum
        if args.path is not None:
            n, source = args.path, f"path:{args.path}"
        else:
            with open(args.graph, encoding="utf-8") as fh:
                graph = parse_graph(fh)
            n, source = graph.n, args.graph
        check_vertex_count(n)       # before either spectrum allocates n x n
        for pair in (args.from_pair, args.to_pair):
            pair_vector(n, pair)
        spectrum = (path_spectrum(n) if args.path is not None
                    else eigendecompose(laplacian(graph)))
        trace = fidelity_sweep(spectrum, args.from_pair, args.to_pair,
                               args.tmax, args.steps)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the trace is written a piece at a time; no text of it is built whole
    out = sys.stdout.write
    if args.format == "csv":
        out(f"# schema_version={SCHEMA_VERSION}\n"
            f"# sup_estimate={_fmt(trace.sup_estimate)}\n"
            f"# argmax_time={_fmt(trace.argmax_time)}\n"
            "time,fidelity\n")
        _trace_text(out, [trace.times, trace.fidelities], [",", "\n"],
                    json_items=False)
        out("\n")
    else:
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "inputs": {
                "source": source,
                "from": list(args.from_pair),
                "to": list(args.to_pair),
                "t_max": _round12(args.tmax),
                "steps": args.steps,
            },
            "sup_estimate": _round12(trace.sup_estimate),
            "argmax_time": _round12(trace.argmax_time),
        }
        # the trace arrays close the record: their items are spliced in
        # as text rather than handed to json.dumps as Python floats
        out(json.dumps(record)[:-1])
        for key, values in (("times", trace.times),
                            ("fidelities", trace.fidelities)):
            out(f', "{key}": [')
            _trace_text(out, [values], [", "], json_items=True)
            out("]")
        out("}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpgst",
        description="Decide pretty good pair/edge state transfer under the "
                    "graph Laplacian: exact verdicts on paths, numeric "
                    "fidelity sweeps on arbitrary graphs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_classify = sub.add_parser(
        "classify", help="closed-form verdict table over ranges of (n, a)",
        description="Closed-form verdicts for mirror edge pairs on paths. "
                    "CSV columns: n,a,verdict,rule where verdict is "
                    "yes/no/same-pair. JSON schema: docs/output-schemas.md.")
    p_classify.add_argument("--n", required=True, type=_parse_span,
                            help="path size or inclusive range, e.g. 12 or "
                                 "2..16; write --n=LO..HI when LO < 0")
    p_classify.add_argument("--a", default="all", type=_parse_span_or_all,
                            help="edge offset, range, or 'all' (default); "
                                 "write --a=LO..HI when LO < 0")
    p_classify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_classify.set_defaults(func=cmd_classify)

    p_decide = sub.add_parser(
        "decide", help="single instance through both decision routes")
    p_decide.add_argument("--n", type=int, required=True)
    p_decide.add_argument("--a", type=int, required=True)
    p_decide.add_argument("--certificate", action="store_true",
                          help="include the integer witness vector when present")
    p_decide.set_defaults(func=cmd_decide)

    p_sweep = sub.add_parser(
        "sweep", help="numeric fidelity sweep over a time window",
        description="Sample the transfer fidelity on a uniform grid with "
                    "golden-section refinement of the best point. CSV "
                    "columns: time,fidelity (sup_estimate and argmax_time "
                    "in leading # lines). JSON schema: docs/output-schemas.md.")
    src = p_sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--path", type=int, help="use the n-vertex path")
    src.add_argument("--graph", help="edge-list file (see README)")
    p_sweep.add_argument("--from", dest="from_pair", type=_parse_pair,
                         required=True, metavar="A,B")
    p_sweep.add_argument("--to", dest="to_pair", type=_parse_pair,
                         required=True, metavar="C,D")
    p_sweep.add_argument("--tmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=10000)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
