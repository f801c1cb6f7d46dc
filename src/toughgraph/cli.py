"""Command line front end.

Subcommands: synth (build a graph of prescribed toughness plus its
certificate), verify (check a graph/certificate pair), tau / hamilton /
alpha (run the exact oracles on a graph file), and block (emit one of
the named building blocks).  A graph file is read once, as bytes, by
one unbuffered read, and kept whole: surrounding whitespace is skipped
by its bounds, and graph6 is validated and compared with the rebuilt
graph inside that one buffer, so no stripped copy is made.  The first
byte past the whitespace names the format: a digit the plain "n m" +
edge-per-line text, "{" the JSON edge schema when the bytes parse as
JSON, anything else graph6; no graph file is decoded as text.  A
certificate file is read the same way and decoded as UTF-8.  Output
format is chosen with --format (default g6).  Every output, graph or
certificate, is a sequence of byte pieces that one writer sends to a
file or to stdout's byte stream as they come, so no graph's whole text
is held.  A file is overwritten in place, without O_TRUNC, and a
regular one is cut to length when the writing ends: ext4 and XFS flush
a file to disk when it is closed after a truncation to zero, and a
temporary file renamed over the old one costs the same.  A crash
partway leaves new bytes over old ones, which verify refuses by their
bytes.  "-" means stdin for graph arguments and stdout for
--out/--cert, so subcommands compose in pipes.
The argument parser is built once per process, on the first call of
main, and reused: parsing writes only a fresh namespace, and help and
usage text take their width (COLUMNS) when they are printed.  argv is
parsed once: when it opens with a command, that command's own parser
takes the rest, as the full parser would hand it over, and only argv
of any other shape, or with arguments left over, goes through the
full parser.

Exit codes: 0 success or accepted, 1 verification rejected, 2
operational errors (unreadable input, out-of-range targets, oracle size
limits, sizes past memory or past the index range).  verify reads only
the certificate's "t" before it compares the whole certificate with the
canonical one, so a certificate file is unreadable (2) only when it is
not a JSON object with a rational "t"; any other bad field is a
rejection (1).  Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import stat
import sys
from typing import Iterable, Iterator

from .blocks import BlockKind, block, inflate_triangles, petersen, unit_toughness_graph
from .graphs import (
    Graph,
    GraphFormatError,
    _G6_VALID,
    _edge_json_graph,
    _graph6_span,
    _iter_dot,
    _iter_edge_json,
    _iter_edge_list,
    _strip_bounds,
    decode_graph6,
    iter_graph6,
    make_graph,
)
from .oracles import (
    DEFAULT_ALPHA_LIMIT,
    DEFAULT_NODE_LIMIT,
    DEFAULT_TOUGHNESS_LIMIT,
    SizeLimitError,
    has_hamilton_path,
    independence_number,
    is_hamiltonian,
    toughness_exact,
    toughness_upper_search,
)
from .synth import certificate_from_json, certificate_to_json, parse_rational, synthesize
from .verify import _check_certificate

__all__ = ["main"]

# the --format names, in help order, and each one's writer of (graph, highlight)
_WRITERS = {
    "g6": lambda g, highlight: itertools.chain(iter_graph6(g), (b"\n",)),
    "dot": _iter_dot,
    "edges": lambda g, highlight: _iter_edge_list(g),
    "json": lambda g, highlight: itertools.chain(_iter_edge_json(g), (b"\n",)),
}


def _render(g: Graph, fmt: str, highlight=()) -> Iterator[bytes]:
    """The graph in a format, as byte pieces of at most a row's edges or
    a graph6 chunk each.  A graph that graph6 cannot encode is refused
    here, before anything is written."""
    return _WRITERS[fmt](g, highlight)


def _read_file(path: str) -> bytes:
    """A file's bytes, from one unbuffered read."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def _read_graph(path: str, decode: bool = True) -> Graph | tuple[int, bytes, int, int]:
    """The graph in a file, or stdin for "-".  The file is read once, as
    bytes, and kept whole: surrounding whitespace is skipped by bounds,
    not stripped off a copy.  The first byte past it names the format:
    a digit starts an edge list (no graph6 byte, 63-126, is a digit),
    "{" starts JSON when the bytes parse as UTF-8 JSON (graph6 for
    n = 60 also starts with "{"), and anything else is graph6.  A "{"
    file that is neither is reported by its JSON fault when it holds a
    byte that graph6 never does, a line break aside.  With decode=False
    a graph6 file is only validated and comes back as (n, bytes, start,
    end), the graph6 string's order and its bounds in the file's bytes."""
    data = sys.stdin.buffer.read() if path == "-" else _read_file(path)
    start, end = _strip_bounds(data)
    if start == end:
        raise GraphFormatError(f"{path}: empty graph file")
    first = data[start : start + 1]
    if first.isdigit():
        return _read_edge_list(path, data, start, end)
    json_fault = None
    if first == b"{":
        try:
            # JSON text is UTF-8; json.loads would guess UTF-16 or -32 from bytes
            payload = json.loads(str(memoryview(data)[start:end], "utf-8"))
        except (ValueError, RecursionError) as exc:
            json_fault = exc
        else:
            return _edge_json_graph(payload)
    try:
        if decode:
            return decode_graph6(data)
        return _graph6_span(data, start, end)
    except GraphFormatError:
        if json_fault is not None and data[start:end].translate(None, _G6_VALID + b"\r\n"):
            raise GraphFormatError(f"{path}: bad JSON: {json_fault}") from None
        # a line break fails validation, and only then are breaks counted
        breaks = (data.count(b"\n", start, end) + data.count(b"\r", start, end)
                  - data.count(b"\r\n", start, end))
        if breaks:
            raise GraphFormatError(
                f'{path}: not a graph6, JSON or "n m" edge-list file '
                f"(graph6 is one line; this file holds {breaks + 1})"
            ) from None
        raise


def _read_edge_list(path: str, data: bytes, start: int, end: int) -> Graph:
    """The "n m" header line, then one "u v" line per edge, in
    data[start:end]; the edges are parsed a chunk of lines at a time as
    make_graph takes them.  A line ends where bytes.splitlines ends it:
    at LF, CR LF or CR.  Lines are found at LF, and the CR of a CR LF is
    whitespace to a split, so only a file with a lone CR is read from a
    copy with its line ends made LF."""
    if data.find(b"\r", start, end) >= 0 and (
        data.count(b"\r", start, end) != data.count(b"\r\n", start, end)
    ):
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        start, end = _strip_bounds(data)
    pos = data.find(b"\n", start, end) + 1 or end
    try:
        n, m = _pair(data[start:pos])
        return make_graph(n, _edge_pairs(data, pos, end, m))
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


# an LF not followed by an edge line: two digit runs in the whitespace
# of bytes.split, LF aside, up to the next LF or the end
_NOT_AN_EDGE = re.compile(rb"\n(?![ \t\v\f\r]*[0-9]+[ \t\v\f\r]+[0-9]+[ \t\v\f\r]*(?:\n|\Z))")
# the bytes of an edge list parsed per call, then up to the next LF
_EDGE_CHUNK = 1 << 13


def _edge_pairs(data: bytes, pos: int, end: int, m: int) -> Iterator[tuple[int, int]]:
    """The edges of the lines in data[pos:end], which follow an LF at
    pos - 1, a chunk of whole lines at a time; past the last line, a
    count other than the header's m is refused.  Each chunk's lines up
    to the first one without an edge line's shape are split once and
    their numbers converted by map; that line is then refused, after
    make_graph has taken every edge before it."""
    found = 0
    while pos < end:
        stop = data.find(b"\n", pos + _EDGE_CHUNK, end)
        if stop < 0:
            stop = end
        bad = _NOT_AN_EDGE.search(data, pos - 1, stop)
        numbers = data[pos : bad.start() if bad else stop].split()
        found += len(numbers) // 2
        numbers = map(int, numbers)
        yield from zip(numbers, numbers)
        if bad:
            raise _bad_line(data[bad.end() : stop].partition(b"\n")[0], "edge")
        pos = stop + 1
    if found != m:
        raise ValueError(f"header says {m} edges, found {found}")


def _pair(line: bytes) -> tuple[int, int]:
    """The two numbers of an edge list's header line."""
    uv = line.split()
    if len(uv) != 2 or not (uv[0].isdigit() and uv[1].isdigit()):
        raise _bad_line(line, "header")
    return int(uv[0]), int(uv[1])


def _bad_line(line: bytes, kind: str) -> ValueError:
    text = line.rstrip(b"\r\n").decode(errors="backslashreplace")
    return ValueError(f"bad {kind} line {text!r}")


def _open_in_place(path: str, flags: int) -> int:
    """open's own flags and creation mode, less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(pieces: Iterable[bytes], out: str | None) -> None:
    """Write byte pieces as they come to a file, or to stdout for None
    or "-".  A file is overwritten in place and, when it is a regular
    file, cut at the write position however the writing ends: it then
    holds exactly the pieces written, as after O_TRUNC, and keeps its
    inode, links and mode.  O_TRUNC is left out because ext4
    (auto_da_alloc) and XFS flush a file truncated to zero to disk when
    it is closed: rewriting 100 bytes took 0.14-1.0 ms that way against
    0.03-0.19 ms in place, and the 1.28 MB graph6 of 1301/701 0.6-3.1 ms
    against 0.2-0.64 ms (ext4, 2 cores, perf_counter medians; the spread
    is the disk's load).  Writing a temporary file and renaming it over
    the old one costs as much as O_TRUNC.  A crash partway, or a write
    the disk refuses, leaves new bytes over old ones; verify refuses
    such a file by its bytes, as it does a file cut short.  /dev/null cannot be truncated and a FIFO
    cannot seek, so only a regular file is cut."""
    if out and out != "-":
        with open(out, "wb", opener=_open_in_place) as f:
            try:
                f.writelines(pieces)
            finally:
                if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                    f.truncate()
    else:
        sys.stdout.flush()  # after any text already written
        sys.stdout.buffer.writelines(pieces)


def _cmd_synth(args) -> int:
    t = parse_rational(args.t)
    g, cert = synthesize(t)
    if args.out:
        _emit(_render(g, args.format), args.out)
    if args.cert:
        _emit((certificate_to_json(cert).encode(),), args.cert)
    # keep stdout clean for piping when the graph itself goes there
    stream = sys.stderr if args.out == "-" or args.cert == "-" else sys.stdout
    print(
        f"case={cert.plan.case_id} q={cert.plan.q} n={g.n} tau={cert.plan.t}",
        file=stream,
    )
    return 0


def _cmd_verify(args) -> int:
    # the verifier matches graph6 to the rebuilt graph by its bytes,
    # which _read_graph has validated
    g = _read_graph(args.graph, decode=False)
    cert = certificate_from_json(_read_file(args.cert).decode())
    report = _check_certificate(g, cert, args.max_oracle_n)
    sys.stdout.write(report.to_json())
    return 0 if report.accepted else 1


def _cmd_tau(args) -> int:
    g = _read_graph(args.graph)
    try:
        exact, key, w = True, "tau", toughness_exact(g, max_n=args.max_n).witness
    except SizeLimitError:
        exact, key = False, "tau_upper_bound"
        w = toughness_upper_search(g, budget=args.budget)
        if w is None:
            print(
                f"error: n={g.n} exceeds the exact limit {args.max_n} and the "
                "heuristic found no cutset",
                file=sys.stderr,
            )
            return 2
    if w is None:  # a complete graph has no cutset
        payload = {"exact": True, "tau": "infinite", "cutset": None, "components": None}
    else:
        payload = {
            "exact": exact,
            key: f"{w.ratio.numerator}/{w.ratio.denominator}",
            "cutset": sorted(w.cutset),
            "components": w.component_count,
        }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_hamilton(args) -> int:
    g = _read_graph(args.graph)
    if args.path is not None:
        x, y = args.path
        r = has_hamilton_path(g, x, y, node_limit=args.budget)
        names = ("spanning path found", "no spanning path (exhaustive)")
        mode = "path"
    else:
        r = is_hamiltonian(g, node_limit=args.budget)
        names = ("hamiltonian", "nonhamiltonian (exhaustive)")
        mode = "cycle"
    if r.verdict is None:
        summary = "unknown (budget exhausted)"
    else:
        summary = names[0] if r.verdict else names[1]
    payload = {
        "mode": mode,
        "verdict": r.verdict,
        "summary": summary,
        "method": r.method,
        "nodes": r.nodes,
        "witness": list(r.witness) if r.witness else None,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_alpha(args) -> int:
    g = _read_graph(args.graph)
    alpha = independence_number(g, max_n=args.max_n)
    print(json.dumps({"alpha": alpha}, sort_keys=True))
    return 0


def _terminal_block(kind: BlockKind) -> tuple[Graph, tuple[int, ...]]:
    b = block(kind)
    return b.graph, (b.x, b.y)


# the block names, in help order, and each one's (graph, highlight)
_BLOCKS = {
    **{kind.lower(): functools.partial(_terminal_block, kind) for kind in BlockKind},
    "unit": lambda: (unit_toughness_graph(), ()),
    "petersen": lambda: (petersen(), ()),
    "inflated-petersen": lambda: (inflate_triangles(petersen()), ()),
}


def _cmd_block(args) -> int:
    g, highlight = _BLOCKS[args.kind]()
    _emit(_render(g, args.format, highlight=highlight), args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The toughgraph parser with all six subcommands, built on first use.
    It keeps the subcommands' own parsers, by name, as .commands."""
    parser = argparse.ArgumentParser(
        prog="toughgraph",
        description=(
            "Construct nonhamiltonian graphs of exact rational toughness "
            "t in (0, 9/4), with certificates, verification, and exact oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, help: str) -> argparse.ArgumentParser:
        parser.commands[name] = sub.add_parser(name, help=help)
        return parser.commands[name]

    p = command("synth", "build a graph with toughness exactly t")
    p.add_argument("t", help="target toughness, written a/b or a")
    p.add_argument("--out", help="write the graph to this file")
    p.add_argument("--cert", help="write the certificate JSON to this file")
    p.add_argument("--format", choices=_WRITERS, default="g6")
    p.set_defaults(func=_cmd_synth)

    p = command("verify", "check a graph/certificate pair")
    p.add_argument("graph")
    p.add_argument("cert")
    p.add_argument("--max-oracle-n", type=int, default=DEFAULT_TOUGHNESS_LIMIT,
                   help="largest n for the exact toughness check: one "
                        "lambda-decision at t on a rebuilt graph, a min-plus "
                        "product over the plan's gadgets for cases 3 and "
                        "5.1-7.2, a pruned depth-first cutset search over "
                        "the non-universal vertices for cases 1 and 2, and "
                        "for case 4 (n = 30) at a limit of 30 or more")
    p.set_defaults(func=_cmd_verify)

    p = command("tau", "exact toughness (heuristic bound past --max-n)")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=DEFAULT_TOUGHNESS_LIMIT,
                   help="largest n for exact toughness: one pruned depth-"
                        "first cutset search that tightens its bound in place")
    p.add_argument("--budget", type=int, default=2000,
                   help="evaluations for the heuristic fallback")
    p.set_defaults(func=_cmd_tau)

    p = command("hamilton", "Hamilton cycle or spanning path search")
    p.add_argument("graph")
    p.add_argument("--path", nargs=2, type=int, metavar=("X", "Y"),
                   help="look for a spanning path between these vertices")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_hamilton)

    p = command("alpha", "independence number")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=DEFAULT_ALPHA_LIMIT)
    p.set_defaults(func=_cmd_alpha)

    p = command("block", "emit a named building block")
    p.add_argument("kind", choices=_BLOCKS)
    p.add_argument("--out")
    p.add_argument("--format", choices=_WRITERS, default="g6")
    p.set_defaults(func=_cmd_block)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, in one pass when argv
    opens with a command: its parser takes the rest, by the
    parse_known_args call the subparsers action makes.  Any other argv,
    and any with arguments left over, goes to the full parser, so every
    help, usage and error byte is argparse's."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    # GraphFormatError, CertificateError and SizeLimitError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a size past the index range (n = 10**20) overflows before it is allocated
    except (MemoryError, OverflowError):
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
