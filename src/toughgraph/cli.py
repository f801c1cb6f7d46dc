"""Command line front end.

Subcommands: synth (build a graph of prescribed toughness plus its
certificate), verify (check a graph/certificate pair), tau / hamilton /
alpha (run the exact oracles on a graph file), and block (emit one of
the named building blocks).  A graph file, or stdin, is read once, as
bytes, by one unbuffered read, and graphs.read_graph takes those bytes
and decides their format; verify's reader, the same but for keeping a
graph6 file as its validated span, hands that span to check_certificate
as it is.  The graph goes out in a --format (default g6) by
graphs.WRITERS.  A certificate file is read the same way and decoded
as UTF-8.  Every output, graph or certificate, is a sequence
of byte pieces that one writer sends to a file or to stdout's byte
stream as they come, so no graph's whole text is held.  A file is
overwritten in place, without O_TRUNC, and a regular one is cut to
length when the writing ends: ext4 and XFS flush a file to disk when
it is closed after a truncation to zero, and a temporary file renamed
over the old one costs the same.  A crash partway leaves new bytes
over old ones, which verify refuses by their bytes.  "-" means stdin
for graph arguments and stdout for --out/--cert, so subcommands
compose in pipes.
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
import json
import os
import stat
import sys
from typing import Iterable

from .blocks import BlockKind, block, inflate_triangles, petersen, unit_toughness_graph
from .graphs import WRITERS, Graph, read_graph
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
from .verify import _read_in_place, check_certificate

__all__ = ["main"]


def _read_file(path: str) -> bytes:
    """A file's bytes, from one unbuffered read."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def _read_graph(path: str, read=read_graph):
    """The graph in a file, or stdin for "-", by read (read_graph or
    verify's in-place reader) on its bytes, named by path."""
    return read(sys.stdin.buffer.read() if path == "-" else _read_file(path), path)


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
        _emit(WRITERS[args.format](g), args.out)
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
    # check_certificate matches graph6 to the rebuilt graph by its
    # bytes, which _read_in_place has validated
    g = _read_graph(args.graph, _read_in_place)
    cert = certificate_from_json(_read_file(args.cert).decode())
    report = check_certificate(g, cert, args.max_oracle_n)
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
    _emit(WRITERS[args.format](g, highlight), args.out)
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
    p.add_argument("--format", choices=WRITERS, default="g6")
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
    p.add_argument("--format", choices=WRITERS, default="g6")
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
