"""Immutable simple graphs on dense integer vertices.

Vertices are always 0..n-1.  A graph is stored as one bitmask per
vertex (bit u of row v set iff uv is an edge) and nothing else: the
order and the edge count are derived from the rows.  The exponential
oracles sweep components with a handful of big-int operations per
candidate cutset instead of touching Python-level adjacency structures.

Besides construction and the union/join combinators this module owns the
interchange formats: graph6, DOT, a small JSON edge-list schema and the
"n m" edge list.  Each format has one writer that yields its bytes a
piece at a time, for the CLI to write and the verifier to compare as
they come; the string forms (encode_graph6, to_dot, to_edge_json) join
the pieces.  graph6 is dense text, about n^2/12 bytes, so iter_graph6
cuts it into fixed-size chunks, and validate_graph6 scans the body for
invalid bytes one chunk at a time, in place: _graph6_in_place finds
the string's bounds past whitespace and the header, so neither a file's
bytes nor the verifier's input needs a stripped copy.  The text formats
draw the edges from one row iterator, _later_rows, a piece per vertex
with its later neighbors, whose decimal labels are made once per graph,
not once per edge.  No transient buffer grows with the graph's text.
WRITERS is the table of the writers by format name.

The read side is read_graph, which takes a file's bytes and keeps them
whole: the first byte past the whitespace names the format, an edge
list is parsed a chunk of lines at a time as make_graph takes the
edges, and a graph6 file is validated once, in place, to its span: its
order and its bounds in the bytes.  decode_graph6 takes that span as
it takes a string, and every decode goes through it: read_graph's, and
that of _differs, the one comparison of an input with a rebuilt graph.
The verifier keeps the span, and _differs matches it with the graph's
iter_graph6 pieces in place and decodes it only when they differ.
JSON, there and in from_edge_json, is parsed once, from text or from
bytes decoded as strict UTF-8, and make_graph takes each edge entry as
it is checked.
"""

from __future__ import annotations

import binascii
import json
import re
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Graph",
    "GraphFormatError",
    "make_graph",
    "components",
    "disjoint_union",
    "join",
    "iter_graph6",
    "encode_graph6",
    "decode_graph6",
    "validate_graph6",
    "to_dot",
    "to_edge_json",
    "from_edge_json",
    "WRITERS",
    "read_graph",
]

# graph6 cannot address more vertices than this (36-bit size field)
GRAPH6_MAX_N = 2**36 - 1

_G6_HEADER = b">>graph6<<"
# the bytes bytes.strip() removes
_WHITESPACE = b" \t\n\r\x0b\x0c"
_G6_VALID = bytes(range(63, 127))

# graph6 writes a 6-bit group as the byte 63 + value, base64 as its alphabet
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, _G6_VALID)
_G6_TO_B64 = bytes.maketrans(_G6_VALID, _B64)

# each byte with its bit order reversed: MSB-first base64 bytes <-> LSB-first
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# the encoder moves whole bytes out of its accumulator past this many bits
_G6_FLUSH_BITS = 4096
# packed stream bytes per body piece; a multiple of 3, so each piece is
# whole base64 groups, and the stride of validate_graph6's byte scan
_G6_CHUNK = 3 * 16384

# the digits of a binary string as the byte values 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class GraphFormatError(ValueError):
    """Malformed graph6 or JSON graph input."""


@dataclass(frozen=True, slots=True)
class Graph:
    """An immutable simple undirected graph on vertices 0..n-1.

    The neighbor rows are the whole graph: n is their number, stored
    once here, and edge_count half their total popcount, counted each
    time it is read.
    Construct through make_graph, the combinators, or from rows that
    are already symmetric and loop-free; the constructor trusts them.
    Equality and hashing are labeled: two graphs compare equal only
    when they have the same rows.
    """

    neighbor_masks: tuple[int, ...]  # row v has bit u set iff uv is an edge
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.neighbor_masks))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.neighbor_masks) // 2

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.neighbor_masks[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.neighbor_masks[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out: list[tuple[int, int]] = []
        for v, later in _later_rows(self, range(self.n)):
            out.extend(zip(repeat(v), later))
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        full = (1 << self.n) - 1
        return _reach(self.neighbor_masks, 1, full) == full

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _later_rows(g: Graph, labels: Sequence) -> Iterator[tuple[int, Iterator]]:
    """Each vertex v with its neighbors u > v, ascending, as labels[u]:
    the edges row by row, so a writer holds one row of them at a time."""
    n = g.n
    for v, row in enumerate(g.neighbor_masks):
        # one byte per later vertex u, 1 iff uv is an edge
        flags = format(row >> v + 1, f"0{n - v - 1}b")[::-1].encode()
        yield v, compress(labels[v + 1 :], flags.translate(_BIT_BYTES))


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(nbr: Sequence[int], seed: int, alive: int, need: int = -1) -> int:
    """Vertices reachable from the seed bits inside the alive mask.

    The search stops once it has reached every alive bit of need (by
    default every alive bit), so only the result's need bits are
    certain: `_reach(nbr, seed, alive, need) & need == need` iff the
    seed reaches all of need."""
    rest = alive & ~seed  # alive, not reached yet
    frontier = alive ^ rest
    while frontier and need & rest:
        acc = 0
        while frontier:
            low = frontier & -frontier
            acc |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = acc & rest
        rest ^= frontier
    return alive ^ rest


def count_components_masked(nbr: Sequence[int], alive: int) -> int:
    """Number of connected components induced on the alive bitmask.

    Each component is found from its lowest remaining vertex v.  When v
    has no neighbor left, it is a component of its own and is cleared
    without a search; otherwise its remaining neighbors seed the search,
    which then reaches v's whole component, v included."""
    count = 0
    rem = alive
    while rem:
        count += 1
        low = rem & -rem
        rem ^= low
        row = nbr[low.bit_length() - 1] & rem
        if row:
            rem &= ~_reach(nbr, row, rem)
    return count


def _bipartition(g: Graph) -> Optional[tuple[int, int]]:
    """Two-coloring as a pair of vertex masks, or None if an odd cycle
    exists.  Breadth-first layers from each component's lowest vertex
    alternate sides, isolated vertices on the first; no edge skips a
    layer, so an odd cycle shows as a layer's neighbor on its own side."""
    nbr = g.neighbor_masks
    side = [0, 0]
    rem = (1 << g.n) - 1
    while rem:
        layer = seen = rem & -rem
        s = 0
        while layer:
            side[s] |= layer
            reach = 0
            for v in _bits(layer):
                reach |= nbr[v]
            if reach & side[s]:
                return None
            layer = reach & ~seen
            seen |= layer
            s ^= 1
        rem &= ~seen
    return side[0], side[1]


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Loops are rejected; duplicate edges (in either order) collapse.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


def components(g: Graph, removed: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of g minus the removed vertices.

    Returns sorted vertex lists, ordered by smallest member.  The count
    is just len() of the result.
    """
    rm = 0
    for v in removed:
        if not (0 <= v < g.n):
            raise ValueError(f"removed vertex {v} out of range for n={g.n}")
        rm |= 1 << v
    alive = ((1 << g.n) - 1) & ~rm
    nbr = g.neighbor_masks
    parts = []
    rem = alive
    while rem:
        comp = _reach(nbr, rem & -rem, rem)
        parts.append(list(_bits(comp)))
        rem &= ~comp
    return parts


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; graph i occupies ids starting at sum of earlier orders."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    n = 0
    rows: list[int] = []
    for g in graphs:
        rows.extend(r << n for r in g.neighbor_masks)
        n += g.n
    return Graph(tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Join: g, then h shifted by g.n, plus all edges between the two."""
    low = (1 << g.n) - 1
    high = ((1 << h.n) - 1) << g.n
    rows = [r | high for r in g.neighbor_masks]
    rows.extend((r << g.n) | low for r in h.neighbor_masks)
    return Graph(tuple(rows))


# -- graph6 ------------------------------------------------------------


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes(
        [126, 126]
        + [((n >> sh) & 63) + 63 for sh in (30, 24, 18, 12, 6, 0)]
    )


def iter_graph6(g: Graph) -> Iterator[bytes]:
    """Encode in graph6, piece by piece: the size field, then the upper
    triangle column by column ((0,1),(0,2),(1,2),(0,3),...), six bits
    per byte, offset 63.  Joined, the pieces are encode_graph6(g).

    Column j is the low j bits of row j.  The columns are packed end to
    end into little-endian bytes, so byte i bit b holds stream bit
    8i + b; whole bytes are flushed every few thousand bits.  Reversing
    the bits of each byte puts the stream in the big-endian order that
    base64 cuts into the 6-bit groups.  Every _G6_CHUNK bytes of the
    stream are cut off and yielded as one body piece, whole base64
    groups each, so no buffer grows with the body.  A graph too large
    for the size field is refused here, before the first piece."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 cannot encode n={g.n}")
    return _graph6_pieces(g.neighbor_masks)


def _graph6_pieces(nbr: Sequence[int]) -> Iterator[bytes]:
    n = len(nbr)
    yield _g6_size_bytes(n)
    left = (n * (n - 1) // 2 + 5) // 6  # body bytes not yielded yet
    chunk = _G6_CHUNK
    stream = bytearray()
    acc = pending = 0
    for j in range(1, n):
        acc |= (nbr[j] & ((1 << j) - 1)) << pending
        pending += j
        if pending >= _G6_FLUSH_BITS:
            whole = pending >> 3
            stream += acc.to_bytes(whole + 1, "little")[:whole]
            acc >>= 8 * whole
            pending &= 7
            if len(stream) >= chunk:
                cut = len(stream) - len(stream) % chunk
                for i in range(0, cut, chunk):
                    yield _g6_body(stream[i : i + chunk])
                del stream[:cut]
                left -= cut // 3 * 4
    if left:
        stream += acc.to_bytes((pending + 7) >> 3, "little")
        stream += bytes(-len(stream) % 3)  # whole 3-byte groups: no "=" from base64
        yield _g6_body(stream)[:left]


def _g6_body(raw: bytes | bytearray) -> bytes:
    """graph6 body bytes of whole 3-byte groups of the packed stream."""
    b64 = binascii.b2a_base64(raw.translate(_REVERSE_BITS), newline=False)
    return b64.translate(_B64_TO_G6)


def encode_graph6(g: Graph) -> bytes:
    """Encode in graph6: iter_graph6's pieces joined."""
    return b"".join(iter_graph6(g))


def validate_graph6(data: bytes | str) -> tuple[int, bytes]:
    """Check one graph6 string without decoding it; returns its order n
    and its bytes with surrounding whitespace and the optional
    >>graph6<< header removed.  Raises GraphFormatError otherwise.

    The body must be exactly ceil(n(n-1)/2 / 6) bytes.  Its last
    6 * need - n(n-1)/2 bits (0 to 5) are padding after the last matrix
    bit, and since each byte holds its 6-bit group most significant bit
    first, they are the low bits of the last byte: checking them needs
    no base64 decode."""
    n, data, start, end = _graph6_in_place(data)
    return n, data[start:end]


def _ascii(data: bytes | str) -> bytes:
    if isinstance(data, str):
        if not data.isascii():
            bad = next(c for c in data if not c.isascii())
            raise GraphFormatError(f"invalid graph6 character {bad!r}")
        return data.encode("ascii")
    return data


def _strip_bounds(data: bytes) -> tuple[int, int]:
    """(start, end) with data[start:end] == data.strip(), found without
    a copy of data: only pieces of at most _G6_CHUNK bytes at either end
    are stripped, and none when no whitespace is there."""
    start, end = 0, len(data)
    while start < end and data[start] in _WHITESPACE:
        piece = data[start : start + _G6_CHUNK]
        start += len(piece) - len(piece.lstrip())
    while end > start and data[end - 1] in _WHITESPACE:
        piece = data[max(start, end - _G6_CHUNK) : end]
        end -= len(piece) - len(piece.rstrip())
    return start, end


def _graph6_in_place(data: bytes | str) -> tuple[int, bytes, int, int]:
    """validate_graph6 in place: returns n, data as bytes, and the
    bounds of the graph6 string in them, past surrounding whitespace and
    the optional header, and copies no more than a chunk of the bytes."""
    data = _ascii(data)
    return _graph6_span(data, *_strip_bounds(data))


def _graph6_span(data: bytes, start: int, end: int) -> tuple[int, bytes, int, int]:
    """_graph6_in_place on data[start:end], bounds that hold no
    surrounding whitespace, for a caller that has found them already."""
    if data.startswith(_G6_HEADER, start, end):
        start += len(_G6_HEADER)
    if start == end:
        raise GraphFormatError("empty graph6 input")
    # deleting the valid bytes leaves the invalid ones, a chunk at a time
    for i in range(start, end, _G6_CHUNK):
        bad = data[i : min(i + _G6_CHUNK, end)].translate(None, _G6_VALID)
        if bad:
            raise GraphFormatError(f"invalid graph6 byte {bad[0]}")
    if data[start] != 126:
        n, pos = data[start] - 63, 1
    else:
        first, pos = (2, 8) if data.startswith(b"~", start + 1, end) else (1, 4)
        if end - start < pos:
            raise GraphFormatError("truncated graph6 size field")
        n = 0
        for b in data[start + first : start + pos]:
            n = (n << 6) | (b - 63)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = end - start - pos
    if got < need:
        raise GraphFormatError(
            f"truncated graph6 body: need {need} bytes for n={n}, got {got}"
        )
    if got > need:
        raise GraphFormatError("trailing bytes after graph6 body")
    if need and (data[end - 1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise GraphFormatError("nonzero padding bits in graph6 body")
    return n, data, start, end


def decode_graph6(data: bytes | str | tuple[int, bytes, int, int]) -> Graph:
    """Decode one graph6 string; the optional >>graph6<< header is
    allowed.  validate_graph6 checks the input first, unless it is given
    as the validated span (n, data, start, end) that _graph6_span
    returns: a graph6 string of order n in data[start:end].

    The body is base64-decoded and each byte bit-reversed, so byte i
    bit b holds stream bit 8i + b and column j (row j's neighbors below
    j) is read from the few bytes it spans.  The columns are then packed
    as an n x n bit matrix, nb = ceil(n/8) bytes per row, and every 8x8
    bit block is transposed in place.  In the result the neighbors of v
    above v, one byte per 8-row block, sit nb * 8 bytes apart from byte
    (v & 7) * nb + (v >> 3): a single stride slice."""
    n, data, _, end = data if isinstance(data, tuple) else _graph6_in_place(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if not need:
        return Graph((0,) * n)
    body = data[end - need : end]
    raw = binascii.a2b_base64(body.translate(_G6_TO_B64) + b"A" * (-need % 4))
    xb = raw.translate(_REVERSE_BITS)
    cols = []
    for j in range(n):
        first = j * (j - 1) // 2  # column j's first stream bit
        chunk = int.from_bytes(xb[first >> 3 : (first + j + 7) >> 3], "little")
        cols.append((chunk >> (first & 7)) & ((1 << j) - 1))
    # row j of the matrix is column j.  Round b swaps each in-block bit
    # (r, c) with r & b clear and c & b set with (r + b, c - b), which
    # sits b * (stride - 1) bits higher; after the three rounds bit i of
    # row j is bit j & 7 of row (j & ~7) | (i & 7), in byte column i >> 3
    nb = (n + 7) >> 3
    stride = 8 * nb
    up = int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in cols), "little")
    for b, pattern in ((1, 0xAA), (2, 0xCC), (4, 0xF0)):
        mask = int.from_bytes(
            b"".join(bytes([0 if r & b else pattern]) * nb for r in range(8)) * nb,
            "little",
        )
        shift = b * (stride - 1)
        t = ((up >> shift) ^ up) & mask
        up ^= t ^ (t << shift)
    upper = up.to_bytes(stride * nb, "little")
    rows = tuple(
        int.from_bytes(upper[(v & 7) * nb + (v >> 3) :: stride], "little") | cols[v]
        for v in range(n)
    )
    return Graph(rows)


def _differs(given: Graph | tuple[int, bytes, int, int], g: Graph) -> Optional[Graph]:
    """None when given, a Graph or a validated graph6 span (n, data,
    start, end) as _graph6_span returns it, is the graph g; otherwise
    given as a Graph.  A span is compared with g's encoding in place,
    one iter_graph6 piece at a time, so no copy of either is ever whole.
    Equal bytes are the same graph, since graph6 is injective; only
    differing bytes (a different graph, or a noncanonical size field)
    are decoded, from the span, to tell which."""
    if isinstance(given, Graph):
        return None if given == g else given
    _, data, pos, end = given
    for piece in iter_graph6(g):
        if not data.startswith(piece, pos, end):
            given = decode_graph6(given)
            return None if given == g else given
        pos += len(piece)
    # every piece matched, so the size fields agree and so do the lengths
    return None


# -- DOT, JSON and the edge list ---------------------------------------


def _edge_lines(g: Graph, head: str, tail: str, sep: str = "") -> Iterator[bytes]:
    """The edges u < v as text, one piece per row: each edge is
    head.format(u) + str(v) + tail, and sep goes between edges."""
    before = ""
    # each vertex's decimal text is made once, not once per edge it is on
    labels = [str(v) for v in range(g.n)]
    for u, later in _later_rows(g, labels):
        start = head.format(u)
        text = (tail + sep + start).join(later)
        if text:
            yield f"{before}{start}{text}{tail}".encode()
            before = sep


def _iter_dot(g: Graph, highlight: Iterable[int] = ()) -> Iterator[bytes]:
    """Undirected DOT in pieces: one per vertex line, one per edge row."""
    hi = set(highlight)
    for v in hi:
        if not (0 <= v < g.n):
            raise ValueError(f"highlight vertex {v} out of range")
    yield b"graph {\n  node [shape=circle];\n"
    for v in range(g.n):
        style = " [style=filled, fillcolor=gold]" if v in hi else ""
        yield f"  {v}{style};\n".encode()
    yield from _edge_lines(g, "  {} -- ", ";\n")
    yield b"}\n"


def _iter_edge_json(g: Graph) -> Iterator[bytes]:
    """to_edge_json's text in pieces, one per edge row."""
    yield b'{"edges": ['
    yield from _edge_lines(g, "[{}, ", "]", ", ")
    yield f'], "n": {g.n}}}'.encode()


def _iter_edge_list(g: Graph) -> Iterator[bytes]:
    """The "n m" line, then one "u v" line per edge, in pieces."""
    yield f"{g.n} {g.edge_count}\n".encode()
    yield from _edge_lines(g, "{} ", "\n")


def to_dot(g: Graph, highlight: Iterable[int] = ()) -> str:
    """Render as undirected DOT; highlighted vertices are drawn filled."""
    return b"".join(_iter_dot(g, highlight)).decode()


def to_edge_json(g: Graph) -> str:
    """Serialize as {"n": ..., "edges": [[u, v], ...]} with sorted edges."""
    return b"".join(_iter_edge_json(g)).decode()


# each format's writer of (graph, highlight) as byte pieces of at most a
# row's edges or a graph6 chunk each, by name, in help order; graph6 and
# JSON end with a line break, and only DOT draws the highlight.  A graph
# that graph6 cannot encode is refused on the call, before any piece
WRITERS = {
    "g6": lambda g, highlight=(): chain(iter_graph6(g), (b"\n",)),
    "dot": _iter_dot,
    "edges": lambda g, highlight=(): _iter_edge_list(g),
    "json": lambda g, highlight=(): chain(_iter_edge_json(g), (b"\n",)),
}


# -- reading -----------------------------------------------------------


def read_graph(data: bytes, source: str) -> Graph:
    """The graph in a file's bytes, whose faults are reported as
    "{source}: ..." (graph6 and JSON schema faults as they are).  The
    bytes are kept whole: surrounding whitespace is skipped by bounds,
    not stripped off a copy.  The first byte past it names the format:
    a digit starts an edge list (no graph6 byte, 63-126, is a digit),
    "{" starts JSON when the bytes parse as UTF-8 JSON (graph6 for
    n = 60 also starts with "{"), and anything else is graph6.  A "{"
    file that is neither is reported by its JSON fault when it holds a
    byte that graph6 never does, a line break aside."""
    g = _read_graph(data, source)
    return g if isinstance(g, Graph) else decode_graph6(g)


def _read_graph(data: bytes, source: str) -> Graph | tuple[int, bytes, int, int]:
    """read_graph, save that a graph6 file is only validated and comes
    back as its span (n, data, start, end), which read_graph decodes and
    _differs compares in place."""
    start, end = _strip_bounds(data)
    if start == end:
        raise GraphFormatError(f"{source}: empty graph file")
    first = data[start : start + 1]
    if first.isdigit():
        try:
            return _read_edge_list(data, start, end)
        except ValueError as exc:
            raise GraphFormatError(f"{source}: {exc}") from None
    json_fault = None
    if first == b"{":
        try:
            payload = _loads(memoryview(data)[start:end])
        except (ValueError, RecursionError) as exc:
            json_fault = exc
        else:
            return _edge_json_graph(payload)
    try:
        return _graph6_span(data, start, end)
    except GraphFormatError:
        if json_fault is not None and data[start:end].translate(None, _G6_VALID + b"\r\n"):
            raise GraphFormatError(f"{source}: bad JSON: {json_fault}") from None
        # a line break fails validation, and only then are breaks counted
        breaks = (data.count(b"\n", start, end) + data.count(b"\r", start, end)
                  - data.count(b"\r\n", start, end))
        if breaks:
            raise GraphFormatError(
                f'{source}: not a graph6, JSON or "n m" edge-list file '
                f"(graph6 is one line; this file holds {breaks + 1})"
            ) from None
        raise


def _read_edge_list(data: bytes, start: int, end: int) -> Graph:
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
    header = data[start:pos].split()
    if len(header) != 2 or not (header[0].isdigit() and header[1].isdigit()):
        raise _bad_line(data[start:pos], "header")
    return make_graph(int(header[0]), _edge_pairs(data, pos, end, int(header[1])))


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


def _bad_line(line: bytes, kind: str) -> ValueError:
    text = line.rstrip(b"\r\n").decode(errors="backslashreplace")
    return ValueError(f"bad {kind} line {text!r}")


def _loads(text: str | bytes | memoryview):
    """JSON text parsed once.  Bytes are decoded as strict UTF-8 first,
    as RFC 8259 asks of JSON exchanged between systems: json.loads would
    guess UTF-16 or -32 from them.  A decode fault is a ValueError."""
    return json.loads(text if isinstance(text, str) else str(text, "utf-8"))


def from_edge_json(text: str | bytes) -> Graph:
    """The graph of to_edge_json's schema, from its text or its UTF-8
    bytes; anything else is a GraphFormatError."""
    try:
        payload = _loads(text)
    # a JSONDecodeError, bytes that are not UTF-8, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"bad JSON: {exc}") from None
    return _edge_json_graph(payload)


def _edge_json_graph(payload) -> Graph:
    """The graph of a parsed JSON edge schema; make_graph takes each
    edge entry as it is checked."""
    if not isinstance(payload, dict) or set(payload) != {"n", "edges"}:
        raise GraphFormatError('JSON graph must have exactly the keys "n" and "edges"')
    n = payload["n"]
    edges = payload["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphFormatError('"n" must be an integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list')
    try:
        return make_graph(n, map(_edge_entry, edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _edge_entry(e) -> tuple[int, int]:
    if (
        not isinstance(e, list)
        or len(e) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
    ):
        raise GraphFormatError(f"bad edge entry {e!r}")
    return e[0], e[1]
