"""Command-line front end: classification tables, single-instance decisions
with certificates, and fidelity sweeps.

Exit codes: 0 success, 2 usage or input error, 3 internal cross-check
failure (the two decision routes disagree, or a certificate about to be
printed fails re-verification; never expected). Output on
stdout is deterministic: records are sorted and floats are formatted at
12 significant digits. Timing goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .decision import SamePairError, cross_check, path_class, verify_witness
from .graphs import GraphParseError, laplacian, parse_graph
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

# Values per block of a streamed trace: the text held at once is one block's.
TRACE_BLOCK = 65536

# Below the smallest normal double a 12-digit token may carry more digits
# than the float does, and repr writes fewer (5e-324 is 4.94065645841e-324).
_TINY = float(np.finfo(np.float64).tiny)


def _round12(x: float) -> float:
    return float(_fmt(x))


def _json_block(values: np.ndarray) -> str:
    """The items of json.dumps([_round12(x) for x in values]), formatted in
    one call.

    %.12g writes the bytes repr writes for the rounded value, except for
    bare integers, which lack ".0" and come only from values within 1e-11
    (relative) of an integer; exponent forms for exponents 12..15, which
    repr writes positionally and which need a magnitude of 1e11 or more;
    and subnormals. Those values go through "%s" as repr(_round12(x)).
    """
    items = values.tolist()
    fmt = ["%.12g"] * len(items)
    mag = np.abs(values)
    special = ((np.abs(values - np.rint(values)) <= 1e-11 * mag)
               | (mag >= 1e11) | (mag < _TINY))
    for i in np.flatnonzero(special).tolist():
        fmt[i] = "%s"
        items[i] = repr(_round12(items[i]))
    return ", ".join(fmt) % tuple(items)


def _csv_block(times: np.ndarray, fidelities: np.ndarray) -> str:
    """CSV rows "%.12g,%.12g" of times and fidelities, joined by newlines."""
    pairs = np.empty(2 * times.size)
    pairs[0::2] = times
    pairs[1::2] = fidelities
    return "\n".join(["%.12g,%.12g"] * times.size) % tuple(pairs.tolist())


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
        work += n * max(len(_a_values(n, a)), 1)
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
    if len(span) == 1:
        return str(span.start)
    return f"{span.start}..{span.stop - 1}"


def cmd_decide(args: argparse.Namespace) -> int:
    try:
        check = cross_check(args.n, args.a)
    except (SamePairError, ValueError) as exc:
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
                graph = parse_graph(fh.read())
            n, source = graph.n, args.graph
        check_vertex_count(n)       # before either spectrum allocates n x n
        for pair in (args.from_pair, args.to_pair):
            pair_vector(n, pair)
        spectrum = (path_spectrum(n) if args.path is not None
                    else eigendecompose(laplacian(graph)))
        trace = fidelity_sweep(spectrum, args.from_pair, args.to_pair,
                               args.tmax, args.steps)
    except (OSError, GraphParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the trace is written one block at a time; no text of it is built whole
    out = sys.stdout.write
    blocks = range(0, trace.times.size, TRACE_BLOCK)
    if args.format == "csv":
        out(f"# schema_version={SCHEMA_VERSION}\n"
            f"# sup_estimate={_fmt(trace.sup_estimate)}\n"
            f"# argmax_time={_fmt(trace.argmax_time)}\n"
            "time,fidelity")
        for s in blocks:
            out("\n")
            out(_csv_block(trace.times[s:s + TRACE_BLOCK],
                           trace.fidelities[s:s + TRACE_BLOCK]))
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
            for s in blocks:
                if s:
                    out(", ")
                out(_json_block(values[s:s + TRACE_BLOCK]))
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
                            help="path size or inclusive range, e.g. 12 or 2..16")
    p_classify.add_argument("--a", default="all", type=_parse_span_or_all,
                            help="edge offset, range, or 'all' (default)")
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
    code = args.func(args)
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
