"""Graph core: construction, combinators, and the three exchange formats."""

from __future__ import annotations

import random
from time import perf_counter

import pytest
from naive import (
    naive_complete_graph,
    naive_component_count,
    naive_decode_graph6,
    naive_disjoint_union,
    naive_encode_graph6,
    naive_graph6_size_field,
    naive_join,
)

from toughgraph import (
    Graph,
    GraphFormatError,
    complete_bipartite,
    complete_graph,
    components,
    cutset_witness,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    from_edge_json,
    iter_graph6,
    join,
    make_graph,
    petersen,
    synthesize,
    to_dot,
    to_edge_json,
    unit_toughness_graph,
    validate_graph6,
)
from toughgraph import graphs
from toughgraph.graphs import _reach, count_components_masked

# frozen encodings, derived once by hand from the format definition
K3_G6 = b"Bw"
K23_G6 = b"D]o"
C5_G6 = b"Dhc"
PETERSEN_G6 = b"IheA@GUAo"


def _random_graph(rng: random.Random, n: int, p: float):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


# -- construction --------------------------------------------------------


def test_make_graph_basics():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.has_edge(1, 0) and g.has_edge(2, 3)
    assert not g.has_edge(0, 3)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_edges_match_the_edge_list_at_every_density():
    rng = random.Random(5150)
    for n in (0, 1, 2, 7, 63, 64, 65, 130):
        for p in (0.0, 0.05, 0.3, 0.7, 1.0):
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            # hand make_graph the pairs shuffled and half reversed
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(shuffled)
            assert make_graph(n, shuffled).edges() == pairs, (n, p)


def test_make_graph_dedupes_and_ignores_order():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_make_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(-1, [])


def test_graph_derives_its_order_and_size_from_the_rows():
    # the path 1 - 0 - 2
    g = Graph((0b110, 0b001, 0b001))
    assert g.n == 3 and g.edge_count == 2
    assert g == make_graph(3, [(0, 1), (0, 2)])
    assert repr(g) == "Graph(n=3, m=2)"
    assert Graph(()).n == 0


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_is_labeled():
    a = make_graph(3, [(0, 1)])
    b = make_graph(3, [(0, 1)])
    c = make_graph(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != make_graph(4, [(0, 1)])


def test_connectivity_and_completeness():
    assert complete_graph(5).is_complete()
    assert complete_graph(5).is_connected()
    assert make_graph(0, []).is_connected()
    assert make_graph(1, []).is_connected()
    assert not make_graph(2, []).is_connected()
    assert not petersen().is_complete()


# -- components ----------------------------------------------------------


def test_components_whole_graph():
    g = make_graph(5, [(0, 1), (2, 3)])
    assert components(g) == [[0, 1], [2, 3], [4]]


def test_components_after_removal():
    g = complete_bipartite(2, 3)
    assert components(g, [0, 1]) == [[2], [3], [4]]
    assert components(g, range(5)) == []
    with pytest.raises(ValueError):
        components(g, [5])


def test_component_count_of_the_large_witnesses():
    # nearly every vertex these cutsets leave is isolated
    for target, c in (("449/200", 600), ("1199/700", 700), ("1301/701", 701)):
        g, cert = synthesize(target)
        assert cutset_witness(g, cert.cutset).component_count == c == cert.components


def test_components_are_sorted_by_smallest_member():
    g = make_graph(6, [(5, 4), (1, 0), (3, 2)])
    assert components(g) == [[0, 1], [2, 3], [4, 5]]


def test_reach_and_component_count_match_the_naive_count():
    # R = _reach from one alive vertex s is s's component of the alive
    # graph iff R induces one component and the alive set less R has one
    # component fewer; with need, the search may stop early but must
    # still tell whether it reaches all of need.  Besides random masks:
    # nothing alive, an independent set (every vertex counted without a
    # search) and one whole component
    rng = random.Random(2626)
    for i in range(300):
        n = 1 + i % 40
        g = make_graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < rng.uniform(0.5, 3.5) / n
        ])
        nbr = g.neighbor_masks
        full = (1 << n) - 1

        def count(mask):
            return naive_component_count(g, {v for v in range(n) if not mask >> v & 1})

        independent = 0
        for v in rng.sample(range(n), n):
            if not nbr[v] & independent:
                independent |= 1 << v
        one = _reach(nbr, 1 << rng.randrange(n), full)
        assert count(independent) == independent.bit_count() and count(one) == 1
        randoms = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(4)]
        for alive in [0, independent, one] + randoms:
            c = count(alive)
            assert count_components_masked(nbr, alive) == c
            if not alive:
                assert _reach(nbr, 1, alive) == 0
                continue
            s = rng.choice([v for v in range(n) if alive >> v & 1])
            comp = _reach(nbr, 1 << s, alive)
            assert comp & ~alive == 0 and comp >> s & 1
            assert count(comp) == 1 and count(alive ^ comp) == c - 1
            # a seed bit outside alive adds nothing
            assert _reach(nbr, 1 << s | full & ~alive, alive) == comp
            need = rng.getrandbits(n) & alive
            part = _reach(nbr, 1 << s, alive, need)
            assert part & ~comp == 0
            assert (part & need == need) == (comp & need == need)


# -- combinators ----------------------------------------------------------


def test_disjoint_union_offsets():
    g = disjoint_union([complete_graph(3), complete_graph(2)])
    assert g.n == 5
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]
    with pytest.raises(ValueError):
        disjoint_union([])


def test_join_of_complete_parts_is_complete():
    g = join(complete_graph(2), complete_graph(3))
    assert g == complete_graph(5)


def test_join_edge_count():
    a = make_graph(3, [(0, 1)])
    b = make_graph(4, [(0, 1), (2, 3)])
    g = join(a, b)
    assert g.n == 7
    assert g.edge_count == 1 + 2 + 3 * 4
    # all cross edges present
    assert all(g.has_edge(u, 3 + v) for u in range(3) for v in range(4))


def _same(g, ref):
    # Graph equality compares the rows only; the count is derived
    assert g == ref
    assert g.edge_count == ref.edge_count


def test_combinators_match_edge_tuple_reference():
    rng = random.Random(4242)
    for n in range(13):
        _same(complete_graph(n), naive_complete_graph(n))
    for trial in range(150):
        parts = [
            _random_graph(rng, rng.randrange(0, 13), rng.random())
            for _ in range(rng.randrange(1, 5))
        ]
        _same(disjoint_union(parts), naive_disjoint_union(parts))
        _same(join(parts[0], parts[-1]), naive_join(parts[0], parts[-1]))


# -- graph6 ----------------------------------------------------------------


def test_graph6_frozen_values():
    assert encode_graph6(complete_graph(3)) == K3_G6
    assert encode_graph6(complete_bipartite(2, 3)) == K23_G6
    assert encode_graph6(petersen()) == PETERSEN_G6
    assert encode_graph6(make_graph(0, [])) == b"?"
    assert encode_graph6(make_graph(1, [])) == b"@"


def test_graph6_decode_frozen_values():
    assert decode_graph6(K3_G6) == complete_graph(3)
    assert decode_graph6(K23_G6) == complete_bipartite(2, 3)
    assert decode_graph6(C5_G6).edges() == [
        (0, 1),
        (0, 4),
        (1, 2),
        (2, 3),
        (3, 4),
    ]


def test_graph6_accepts_header_and_str():
    assert decode_graph6(b">>graph6<<Bw") == complete_graph(3)
    assert decode_graph6("Bw") == complete_graph(3)
    assert decode_graph6(b"Bw\n") == complete_graph(3)


def test_graph6_roundtrip_random():
    rng = random.Random(1001)
    for trial in range(60):
        n = rng.randrange(0, 21)
        g = _random_graph(rng, n, rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_long_size_field():
    # n = 63 is the smallest order that needs the 4-byte size form
    g = make_graph(63, [(0, 62), (13, 40)])
    data = encode_graph6(g)
    assert data[0] == 126 and data[1] != 126
    assert decode_graph6(data) == g


def test_graph6_rejects_garbage():
    with pytest.raises(GraphFormatError):
        decode_graph6(b"")
    with pytest.raises(GraphFormatError):
        decode_graph6(b"D]o\x00")
    with pytest.raises(GraphFormatError, match="truncated graph6 body"):
        decode_graph6(b"D]")
    with pytest.raises(GraphFormatError, match="trailing bytes"):
        decode_graph6(b"D]oo")
    with pytest.raises(GraphFormatError, match="padding"):
        # flip a padding bit of K_{2,3}: 'o' (48 + 63) -> 'p' (49 + 63)
        decode_graph6(b"D]p")
    with pytest.raises(GraphFormatError, match="truncated graph6 size"):
        decode_graph6(b"~?")
    with pytest.raises(GraphFormatError):
        decode_graph6(b"~~???")


def test_graph6_matches_reference_encoder_at_every_order():
    # n = 0..70 covers every padding residue n(n-1)/2 mod 6 and the
    # switch from the 1-byte to the 4-byte size field at n = 63
    rng = random.Random(2718)
    for n in range(71):
        for p in (0.0, rng.random(), 1.0):
            g = _random_graph(rng, n, p)
            data = encode_graph6(g)
            assert data == naive_encode_graph6(g), n
            back = decode_graph6(data)
            assert back == g and back.edge_count == g.edge_count, n


def _assert_graph6_pieces(g, chunk):
    """iter_graph6's pieces: the size field, then nonempty body pieces,
    4 * chunk / 3 bytes each but the last; joined, the reference
    encoding."""
    pieces = list(iter_graph6(g))
    assert pieces[0] == naive_graph6_size_field(g.n)
    assert all(len(p) == chunk // 3 * 4 for p in pieces[1:-1])
    assert all(pieces[1:])
    assert b"".join(pieces) == naive_encode_graph6(g) == encode_graph6(g)
    return pieces


@pytest.mark.parametrize("flush_bits", [1, 8, 4096])
@pytest.mark.parametrize("chunk", [3, 6])
def test_graph6_pieces_join_to_the_reference_at_every_chunk_boundary(
    monkeypatch, chunk, flush_bits
):
    # n = 0..70 takes every padding residue and both size-field forms; a
    # small flush threshold makes the packing loop cut pieces at these
    # orders too, where the real one would flush only at the end
    monkeypatch.setattr(graphs, "_G6_CHUNK", chunk)
    monkeypatch.setattr(graphs, "_G6_FLUSH_BITS", flush_bits)
    rng = random.Random(1414 + chunk)
    for n in range(71):
        for p in (0.0, rng.random(), 1.0):
            _assert_graph6_pieces(_random_graph(rng, n, p), chunk)


def test_graph6_pieces_of_a_body_over_three_chunks():
    rng = random.Random(1732)
    pieces = _assert_graph6_pieces(_random_graph(rng, 1600, 0.5), graphs._G6_CHUNK)
    assert len(pieces) - 1 >= 3


def test_graph6_refuses_an_oversized_graph_before_the_first_piece(monkeypatch):
    monkeypatch.setattr(graphs, "GRAPH6_MAX_N", 4)
    for encode in (iter_graph6, encode_graph6):
        with pytest.raises(ValueError, match="graph6 cannot encode n=5"):
            encode(complete_graph(5))
    assert encode_graph6(complete_graph(4)) == b"C~"


def test_graph6_rejects_every_padding_bit():
    rng = random.Random(314)
    checked = 0
    for n in range(71):
        pad = -(n * (n - 1) // 2) % 6
        if not pad:
            continue
        data = encode_graph6(_random_graph(rng, n, 0.5))
        for bit in range(pad):
            value = (data[-1] - 63) ^ (1 << bit)
            flipped = data[:-1] + bytes([value + 63])
            with pytest.raises(GraphFormatError, match="padding"):
                decode_graph6(flipped)
            checked += 1
    assert checked == 151


def test_graph6_names_the_first_invalid_byte():
    with pytest.raises(GraphFormatError, match=r"invalid graph6 byte 127$"):
        decode_graph6(b"D]\x7fo\x00")
    with pytest.raises(GraphFormatError, match=r"invalid graph6 byte 62$"):
        decode_graph6(b"D>\x00\xff")
    with pytest.raises(GraphFormatError, match=r"invalid graph6 byte 255$"):
        decode_graph6(b"\xff")
    # a str is not replaced character by character: "?" is a valid byte
    with pytest.raises(GraphFormatError, match=r"invalid graph6 character 'é'$"):
        decode_graph6("Cé")


def test_graph6_huge_size_field_fails_before_allocation():
    # a 2^36-ish size field must error on the missing body, not hang
    data = bytes([126, 126]) + bytes([126] * 6)
    with pytest.raises(GraphFormatError, match="truncated graph6 body"):
        decode_graph6(data)


def test_graph6_decode_matches_reference_decoder():
    # bodies drawn directly, not encoded: n mod 8 takes every residue
    # (the decoder's 8-row blocks) and 257 spans 33 bytes per row
    rng = random.Random(1618)
    for n in [*range(71), *range(120, 137), 257]:
        nbits = n * (n - 1) // 2
        need = (nbits + 5) // 6
        keep = 63 << (6 * need - nbits) & 63
        for draw in (lambda: 0, lambda: rng.randrange(64), lambda: 63):
            groups = [draw() for _ in range(need)]
            if groups:
                groups[-1] &= keep
            data = naive_graph6_size_field(n) + bytes(v + 63 for v in groups)
            g = decode_graph6(data)
            ref = naive_decode_graph6(data)
            assert g == ref and g.edge_count == ref.edge_count, n
            assert encode_graph6(g) == data == naive_encode_graph6(ref), n


def test_graph6_single_bit_flip_moves_one_edge():
    rng = random.Random(1729)
    for n in (9, 16, 23, 64, 131):
        g = _random_graph(rng, n, 0.5)
        data = encode_graph6(g)
        pos = len(data) - (n * (n - 1) // 2 + 5) // 6
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for k, (i, j) in enumerate(pairs):
            at = pos + k // 6
            flipped = bytearray(data)
            flipped[at] = ((data[at] - 63) ^ (32 >> k % 6)) + 63
            h = decode_graph6(bytes(flipped))
            diff = [a ^ b for a, b in zip(g.neighbor_masks, h.neighbor_masks)]
            want = [0] * n
            want[i], want[j] = 1 << j, 1 << i
            assert diff == want, (n, k)
            assert abs(h.edge_count - g.edge_count) == 1, (n, k)


def test_graph6_size_field_forms_and_checks_before_allocation():
    # K_{2,3} with its order written in the 4-byte and the 8-byte form
    assert decode_graph6(b"~??D]o") == complete_bipartite(2, 3)
    assert decode_graph6(b"~~?????D]o") == complete_bipartite(2, 3)
    # n = 2^36 - 1 and n = 258047, the largest of each long form, with
    # a short body: refused on length before any row is built
    for header in (b"~~" + b"~" * 6, b"~}~~"):
        start = perf_counter()
        with pytest.raises(GraphFormatError, match="truncated graph6 body"):
            decode_graph6(header + b"?" * 100)
        assert perf_counter() - start < 0.5


def test_the_size_field_writer_and_reader_agree_at_each_forms_bounds():
    # the last order of each form and the first of the next: the parser
    # reads back the order the writer wrote, and refuses the missing body
    for n in (62, 63, 258047, 258048, 2**36 - 1):
        need = (n * (n - 1) // 2 + 5) // 6
        with pytest.raises(GraphFormatError) as err:
            validate_graph6(graphs._g6_size_bytes(n))
        assert str(err.value) == f"truncated graph6 body: need {need} bytes for n={n}, got 0"


# every malformed input the decoder tests above use, with its message;
# the earliest failing check names the error
_G6_ERRORS = [
    (b"", "empty graph6 input"),
    (b" \n", "empty graph6 input"),
    (b">>graph6<<\n", "empty graph6 input"),
    (b"D]o\x00", "invalid graph6 byte 0"),
    (b"D]\x7fo\x00", "invalid graph6 byte 127"),
    (b"D>\x00\xff", "invalid graph6 byte 62"),
    (b"\xff", "invalid graph6 byte 255"),
    (b"~\x00", "invalid graph6 byte 0"),
    ("Cé", "invalid graph6 character 'é'"),
    (b"~", "truncated graph6 size field"),
    (b"~?", "truncated graph6 size field"),
    (b"~~???", "truncated graph6 size field"),
    (b"D]", "truncated graph6 body: need 2 bytes for n=5, got 1"),
    (b"~??D]", "truncated graph6 body: need 2 bytes for n=5, got 1"),
    (
        b"~~" + b"~" * 6,
        f"truncated graph6 body: need {((2**36 - 1) * (2**36 - 2) // 2 + 5) // 6} "
        f"bytes for n={2**36 - 1}, got 0",
    ),
    (
        b"~}~~" + b"?" * 100,
        f"truncated graph6 body: need {(258047 * 258046 // 2 + 5) // 6} "
        f"bytes for n=258047, got 100",
    ),
    (b"D]oo", "trailing bytes after graph6 body"),
    (b"@?", "trailing bytes after graph6 body"),
    (b"D]p", "nonzero padding bits in graph6 body"),
    (b">>graph6<<D]p\n", "nonzero padding bits in graph6 body"),
]


def _padding_flips():
    # each of the 151 padding bits of n <= 70 set alone
    rng = random.Random(314)
    for n in range(71):
        data = encode_graph6(_random_graph(rng, n, 0.5))
        for bit in range(-(n * (n - 1) // 2) % 6):
            yield data[:-1] + bytes([((data[-1] - 63) ^ (1 << bit)) + 63])


def test_validate_graph6_raises_the_decoders_messages():
    cases = [*_G6_ERRORS]
    cases += [(data, "nonzero padding bits in graph6 body") for data in _padding_flips()]
    assert len(cases) == len(_G6_ERRORS) + 151
    for data, message in cases:
        for check in (validate_graph6, decode_graph6):
            with pytest.raises(GraphFormatError) as exc:
                check(data)
            assert str(exc.value) == message, (check.__name__, data)


@pytest.mark.parametrize("chunk", [3, 6, None])
def test_validate_graph6_names_the_first_invalid_byte_in_any_chunk(monkeypatch, chunk):
    # the byte scan goes a chunk at a time; its messages are those of
    # one whole-body scan, also for a bad byte past the first chunk
    if chunk:
        monkeypatch.setattr(graphs, "_G6_CHUNK", chunk)
    for data, message in _G6_ERRORS:
        with pytest.raises(GraphFormatError) as exc:
            validate_graph6(data)
        assert str(exc.value) == message, data
    n = 1000
    data = bytearray(naive_graph6_size_field(n) + b"?" * ((n * (n - 1) // 2 + 5) // 6))
    assert validate_graph6(bytes(data)) == (n, data)
    for at, value in ((70000, 0), (60000, 127), (graphs._G6_CHUNK + 1, 62)):
        data[at] = value
        with pytest.raises(GraphFormatError, match=f"invalid graph6 byte {value}$"):
            validate_graph6(bytes(data))


@pytest.mark.parametrize("chunk", [3, None])
def test_strip_bounds_are_those_of_strip(monkeypatch, chunk):
    # the bounds are found a chunk at a time from either end, also when
    # the whitespace spans several chunks or is all there is
    if chunk:
        monkeypatch.setattr(graphs, "_G6_CHUNK", chunk)
    rng = random.Random(5)
    space = b" \t\n\r\x0b\x0c"
    for _ in range(300):
        pad = [bytes(rng.choices(space, k=rng.randrange(12))) for _ in range(2)]
        body = bytes(rng.choices(b"ab \n", k=rng.randrange(6))).strip()
        data = pad[0] + body + pad[1]
        start, end = graphs._strip_bounds(data)
        assert data[start:end] == data.strip(), data
        assert start == end or data[start:start + 1] == body[:1], data


def test_validate_graph6_returns_the_order_and_the_stripped_bytes():
    assert validate_graph6(b"?") == (0, b"?")
    assert validate_graph6(b"@") == (1, b"@")
    for raw in (b"D]o", "D]o", b"D]o\n", b">>graph6<<D]o", b">>graph6<<D]o\n", " D]o "):
        assert validate_graph6(raw) == (5, b"D]o"), raw
    # the long size forms are kept as written, not rewritten canonically
    assert validate_graph6(b"~??D]o\n") == (5, b"~??D]o")
    assert validate_graph6(b">>graph6<<~~?????D]o") == (5, b"~~?????D]o")
    rng = random.Random(2719)
    for n in range(71):
        data = encode_graph6(_random_graph(rng, n, rng.random()))
        assert validate_graph6(data) == (n, data)
        assert validate_graph6(b">>graph6<<" + data + b"\n") == (n, data)


# -- DOT -------------------------------------------------------------------


def test_to_dot_shape():
    g = make_graph(3, [(0, 1), (1, 2)])
    dot = to_dot(g, highlight=[1])
    assert dot.startswith("graph {")
    assert dot.endswith("}\n")
    assert "  1 [style=filled, fillcolor=gold];" in dot
    assert "  0 -- 1;" in dot and "  1 -- 2;" in dot
    assert "0 -- 2" not in dot


def test_to_dot_rejects_bad_highlight():
    with pytest.raises(ValueError):
        to_dot(complete_graph(2), highlight=[2])


# -- edge JSON ---------------------------------------------------------------


def test_edge_json_roundtrip():
    rng = random.Random(77)
    for trial in range(30):
        g = _random_graph(rng, rng.randrange(0, 15), 0.4)
        assert from_edge_json(to_edge_json(g)) == g


def test_edge_json_frozen_shape():
    g = make_graph(3, [(2, 0)])
    assert to_edge_json(g) == '{"edges": [[0, 2]], "n": 3}'


def test_edge_json_rejects_bad_payloads():
    with pytest.raises(GraphFormatError):
        from_edge_json("not json")
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": 3}')
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": 3, "edges": [], "extra": 1}')
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": "3", "edges": []}')
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": 3, "edges": [[0, 1, 2]]}')
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": 3, "edges": [[0, true]]}')
    with pytest.raises(GraphFormatError):
        from_edge_json('{"n": 2, "edges": [[0, 5]]}')
    with pytest.raises(GraphFormatError, match="^bad JSON: .*recursion"):
        from_edge_json('{"a":' + "[" * 100_000)


def test_unit_graph_shape(unit_graph):
    # 6-cycle with one long chord and a degree-2 apex on opposite sides
    assert unit_graph.n == 7
    assert unit_graph.edge_count == 9
    assert unit_graph.degree(6) == 2
    assert unit_graph.neighbors(6) == (0, 3)
