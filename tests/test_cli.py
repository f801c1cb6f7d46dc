"""Command line interface, exercised through real subprocesses; the
parser tests at the end run in-process."""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from toughgraph import (
    WRITERS,
    GraphFormatError,
    decode_graph6,
    encode_graph6,
    from_edge_json,
    inflate_triangles,
    make_graph,
    petersen,
    read_graph,
    to_edge_json,
    unit_toughness_graph,
)
from toughgraph.cli import _emit, _parser, main
from toughgraph.graphs import _EDGE_CHUNK
from toughgraph.verify import _read_in_place


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "toughgraph", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=600,
    )


# -- synth -----------------------------------------------------------------


def test_synth_writes_graph_and_certificate(tmp_path):
    gpath = tmp_path / "g.g6"
    cpath = tmp_path / "cert.json"
    r = run_cli("synth", "6/5", "--out", str(gpath), "--cert", str(cpath))
    assert r.returncode == 0
    assert r.stdout.strip() == "case=3 q=1 n=12 tau=6/5"
    g = decode_graph6(gpath.read_bytes())
    assert g.n == 12
    cert = json.loads(cpath.read_text())
    assert cert["case"] == "3" and cert["t"] == "6/5"


def test_synth_stdout_formats():
    # --out - sends the graph to stdout and the summary to stderr
    g6 = run_cli("synth", "2/3", "--out", "-", "--format", "g6")
    assert g6.returncode == 0
    assert g6.stdout.strip() == "D]o"
    assert "case=1" in g6.stderr

    dot = run_cli("synth", "2/3", "--out", "-", "--format", "dot")
    assert dot.stdout.count(" -- ") == 6

    edges = run_cli("synth", "2/3", "--out", "-", "--format", "edges")
    lines = edges.stdout.strip().splitlines()
    assert lines[0] == "5 6"
    assert len(lines) == 7

    js = run_cli("synth", "2/3", "--out", "-", "--format", "json")
    payload = json.loads(js.stdout)
    assert payload["n"] == 5 and len(payload["edges"]) == 6


def test_synth_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        r = run_cli(
            "synth", "9/5", "--out", str(d / "g.g6"), "--cert", str(d / "c.json")
        )
        assert r.returncode == 0
    assert (a / "g.g6").read_bytes() == (b / "g.g6").read_bytes()
    assert (a / "c.json").read_bytes() == (b / "c.json").read_bytes()


def test_synth_rejects_out_of_range():
    r = run_cli("synth", "9/4")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "0 < t < 9/4" in r.stderr


def test_a_graph_graph6_cannot_encode_leaves_the_out_file_as_it_was(
    tmp_path, monkeypatch, capsys
):
    # the order is refused when the encoder is made, before --out is
    # opened, so an existing file keeps its bytes
    from toughgraph import graphs

    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    gpath.write_bytes(b"old graph\n")
    cpath.write_bytes(b"old certificate\n")
    monkeypatch.setattr(graphs, "GRAPH6_MAX_N", 4)
    for argv, n in (
        (["synth", "2/3", "--out", str(gpath), "--cert", str(cpath)], 5),
        (["block", "petersen", "--out", str(gpath)], 10),
        (["block", "petersen", "--out", "-"], 10),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: graph6 cannot encode n={n}\n")
        assert gpath.read_bytes() == b"old graph\n"
    assert cpath.read_bytes() == b"old certificate\n"


def test_output_files_are_opened_without_o_trunc(tmp_path, monkeypatch, capsys):
    # a file truncated to zero and rewritten is flushed when it is
    # closed (ext4's auto_da_alloc, XFS alike), so outputs are opened
    # in place, with open's own flags less O_TRUNC and its mode 0o666
    calls = []
    real_open = os.open

    def recording_open(path, flags, mode=0o777, **kwargs):
        calls.append((path, flags, mode))
        return real_open(path, flags, mode, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    gpath, cpath = str(tmp_path / "g.g6"), str(tmp_path / "cert.json")
    assert main(["synth", "2/3", "--out", gpath, "--cert", cpath]) == 0
    assert [path for path, _, _ in calls] == [gpath, cpath]
    for _, flags, mode in calls:
        assert not flags & os.O_TRUNC and flags & os.O_CREAT and flags & os.O_WRONLY
        assert mode == 0o666
    assert capsys.readouterr() == ("case=1 q=1 n=5 tau=2/3\n", "")


def test_a_short_output_over_a_longer_file_leaves_exactly_the_fresh_bytes(tmp_path):
    # the file is cut at the write position, and keeps its inode, so a
    # hard link sees the fresh bytes and the mode set on it stays
    gpath, link = tmp_path / "g", tmp_path / "link"
    assert main(["synth", "449/200", "--format", "edges", "--out", str(gpath)]) == 0
    os.chmod(gpath, 0o600)
    os.link(gpath, link)
    before = os.stat(gpath)
    assert main(["block", "petersen", "--format", "g6", "--out", str(gpath)]) == 0
    after = os.stat(gpath)
    assert gpath.read_bytes() == link.read_bytes() == encode_graph6(petersen()) + b"\n"
    assert after.st_ino == before.st_ino and after.st_nlink == 2
    assert stat.S_IMODE(after.st_mode) == 0o600


def test_a_new_output_file_gets_opens_default_mode(tmp_path):
    old = os.umask(0o027)
    try:
        assert main(["block", "petersen", "--out", str(tmp_path / "g.g6")]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "g.g6").st_mode) == 0o666 & ~0o027


def test_a_write_that_fails_partway_leaves_the_pieces_written(tmp_path):
    path = tmp_path / "g"
    path.write_bytes(b"an older and much longer file\n" * 100)

    def pieces():
        yield b"first piece"
        raise ValueError("the second piece fails")

    with pytest.raises(ValueError, match="second piece"):
        _emit(pieces(), str(path))
    assert path.read_bytes() == b"first piece"


def test_special_outputs_are_written_as_before(tmp_path, capsys):
    # /dev/null cannot be truncated and a FIFO cannot seek: only a
    # regular file is cut to length
    summary = "case=1 q=1 n=5 tau=2/3\n"
    assert main(["synth", "2/3", "--out", os.devnull, "--cert", os.devnull]) == 0
    assert capsys.readouterr() == (summary, "")

    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(Path(fifo).read_bytes()), daemon=True
    )
    reader.start()
    try:
        code = main(["synth", "2/3", "--out", fifo])
    finally:
        reader.join(timeout=60)
    assert code == 0 and got == [b"D]o\n"]
    assert capsys.readouterr() == (summary, "")

    (tmp_path / "dir").mkdir()
    for out, err in (
        (tmp_path / "dir", errno.EISDIR),
        (tmp_path / "missing" / "g.g6", errno.ENOENT),
    ):
        for flag in ("--out", "--cert"):
            assert main(["synth", "2/3", flag, str(out)]) == 2
            message = f"error: [Errno {err}] {os.strerror(err)}: {str(out)!r}\n"
            assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "missing").exists()


def test_large_synth_and_verify_peak_in_bounded_memory(tmp_path, capsys):
    # graph6 is written, validated and compared in fixed-size pieces, so
    # the traced peak of either command stays under the graph's rows, two
    # copies of its graph6 bytes and 256 KiB.  The graph file itself is
    # held once: verify against a certificate of another order stops
    # before any build, at one copy and 256 KiB
    import tracemalloc

    from toughgraph import synthesize

    g, _ = synthesize("449/200")
    rows = sum(sys.getsizeof(r) for r in g.neighbor_masks)
    size = len(encode_graph6(g))
    gpath, cpath = str(tmp_path / "g.g6"), str(tmp_path / "cert.json")
    other = str(tmp_path / "other.json")
    assert main(["synth", "2/3", "--cert", other]) == 0
    for argv, code, bound in (
        (["synth", "449/200", "--out", gpath, "--cert", cpath], 0, rows + 2 * size),
        (["verify", gpath, cpath], 0, rows + 2 * size),
        (["verify", gpath, other], 1, size),
    ):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound + 256 * 1024, (argv, peak, bound)
        report = capsys.readouterr().out
        if argv[0] == "verify":
            assert json.loads(report)["accepted"] is (code == 0)


# -- verify ----------------------------------------------------------------


def test_verify_roundtrip_accepts(tmp_path):
    gpath = tmp_path / "g.g6"
    cpath = tmp_path / "cert.json"
    run_cli("synth", "6/5", "--out", str(gpath), "--cert", str(cpath))
    r = run_cli("verify", str(gpath), str(cpath))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["accepted"] is True
    assert report["toughness_status"] == "ORACLE_EXACT"


def test_verify_rejects_tampered_certificate(tmp_path):
    gpath = tmp_path / "g.g6"
    cpath = tmp_path / "cert.json"
    run_cli("synth", "6/5", "--out", str(gpath), "--cert", str(cpath))
    payload = json.loads(cpath.read_text())
    payload["predicted_tau"] = "7/5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    r = run_cli("verify", str(gpath), str(bad))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["accepted"] is False


def test_verify_structural_tier(tmp_path):
    gpath = tmp_path / "g.g6"
    cpath = tmp_path / "cert.json"
    run_cli("synth", "7/4", "--out", str(gpath), "--cert", str(cpath))
    r = run_cli("verify", str(gpath), str(cpath))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["toughness_status"] == "WITNESS_UPPER_BOUND_ONLY"
    assert report["nonhamiltonicity_status"] == "STRUCTURAL"


@pytest.mark.parametrize("fmt", ["g6", "edges", "json"])
@pytest.mark.parametrize("t", ["2/3", "7/6", "9/5"])
def test_verify_prints_the_apis_report_for_every_graph_format(tmp_path, capsys, t, fmt):
    # in-process: verify's stdout is check_certificate's report on the
    # file's graph and the certificate object, whatever the format
    from toughgraph import certificate_from_json, check_certificate

    gpath, cpath = tmp_path / f"g.{fmt}", tmp_path / "c.json"
    assert main(["synth", t, "--out", str(gpath), "--format", fmt, "--cert", str(cpath)]) == 0
    capsys.readouterr()
    assert main(["verify", str(gpath), str(cpath)]) == 0
    data, cert = gpath.read_bytes(), certificate_from_json(cpath.read_text())
    want = check_certificate(read_graph(data, str(gpath)), cert).to_json()
    assert capsys.readouterr().out == want
    if fmt == "g6":
        assert check_certificate(data, cert).to_json() == want


def test_verify_rejects_a_nine_digit_forgery_in_bounded_memory(tmp_path):
    # the 2/3 certificate with t = 174999999/100000000 plans 150M blocks;
    # under a 1.5 GB address-space limit it must still get a JSON report
    import resource

    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    run_cli("synth", "2/3", "--out", str(gpath), "--cert", str(cpath))
    cert = json.loads(cpath.read_text())
    cert["t"] = "174999999/100000000"
    cpath.write_text(json.dumps(cert))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_536_000_000, 1_536_000_000))

    r = subprocess.run(
        [sys.executable, "-m", "toughgraph", "verify", str(gpath), str(cpath)],
        capture_output=True, text=True, timeout=600, preexec_fn=limit_memory,
    )
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["accepted"] is False
    assert [c["detail"] for c in report["checks"]] == [
        "plan builds n=1124999994 vertices but the graph has n=5"
    ]


def test_huge_vertex_count_is_refused_in_bounded_memory(tmp_path):
    # ten billion isolated vertices cannot fit in 1.5 GB; the readers run
    # out of memory, and the CLI must say so with exit 2, not a traceback
    import resource

    edges = tmp_path / "huge.txt"
    edges.write_text("10000000000 0\n")
    data = tmp_path / "huge.json"
    data.write_text('{"n": 10000000000, "edges": []}')

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_536_000_000, 1_536_000_000))

    for cmd, path in (("alpha", edges), ("tau", data)):
        r = subprocess.run(
            [sys.executable, "-m", "toughgraph", cmd, str(path)],
            capture_output=True, text=True, timeout=600, preexec_fn=limit_memory,
        )
        assert r.returncode == 2, (cmd, r.stderr)
        assert r.stderr == "error: out of memory\n"


def test_verify_bad_inputs_exit_2(tmp_path):
    junk = tmp_path / "junk.g6"
    junk.write_text("garbage here")
    cpath = tmp_path / "cert.json"
    run_cli("synth", "6/5", "--cert", str(cpath))
    r = run_cli("verify", str(junk), str(cpath))
    assert r.returncode == 2
    assert r.stderr.startswith("error:")

    r2 = run_cli("verify", str(tmp_path / "missing.g6"), str(cpath))
    assert r2.returncode == 2

    notjson = tmp_path / "cert2.json"
    notjson.write_text("{]")
    gpath = tmp_path / "g.g6"
    run_cli("synth", "6/5", "--out", str(gpath))
    r3 = run_cli("verify", str(gpath), str(notjson))
    assert r3.returncode == 2


def test_verify_rejects_a_malformed_field_with_exit_1(tmp_path, capsys):
    # a certificate is an input error (exit 2) only when it is not a JSON
    # object with a rational "t"; any other bad field is a rejection
    # whose one-check report names its key
    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    run_cli("synth", "6/5", "--out", str(gpath), "--cert", str(cpath))
    good = json.loads(cpath.read_text())
    bad = tmp_path / "bad.json"
    capsys.readouterr()
    for key, value in (
        ("extra", 1),
        ("q", True),
        ("cutset", good["cutset"][::-1]),
        ("case", "99"),
        ("blocks", ["L9"]),
        ("nonhamiltonicity", "edge_count"),
    ):
        bad.write_text(json.dumps(dict(good, **{key: value})))
        assert main(["verify", str(gpath), str(bad)]) == 1, key
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] is False
        assert [c["detail"] for c in report["checks"]] == [
            f"certificate is not the canonical output of its plan: {key} differ"
        ]
    bad.write_text(json.dumps(dict(good, t="3/")))
    assert main(["verify", str(gpath), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: rational must look like a/b")


def test_verify_has_no_budget_option(capsys):
    # verify's one exhaustive search runs on a rebuilt graph of its plan,
    # where a budget could only fail a genuine certificate
    with pytest.raises(SystemExit) as exc:
        main(["verify", "g", "c", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_verify_reads_a_graph6_header_and_trailing_newline(tmp_path):
    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    run_cli("synth", "2/3", "--cert", str(cpath))
    gpath.write_text(">>graph6<<D]o\n")
    r = run_cli("verify", str(gpath), str(cpath))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["accepted"] is True


def test_verify_reports_a_malformed_graph6_file_before_the_certificate(tmp_path):
    cpath = tmp_path / "cert.json"
    run_cli("synth", "2/3", "--cert", str(cpath))
    missing = tmp_path / "missing.json"
    for text, message in (
        ("D]p\n", "nonzero padding bits in graph6 body"),
        ("D]", "truncated graph6 body: need 2 bytes for n=5, got 1"),
        (">>graph6<<D]oo", "trailing bytes after graph6 body"),
        ("~?", "truncated graph6 size field"),
        ("Cé", "invalid graph6 byte 195"),
    ):
        gpath = tmp_path / "g.g6"
        gpath.write_text(text)
        for cert in (cpath, missing):
            r = run_cli("verify", str(gpath), str(cert))
            assert (r.returncode, r.stdout) == (2, ""), text
            assert r.stderr == f"error: {message}\n", text


def test_graph6_file_with_a_second_line_is_refused(tmp_path, capsys):
    # a trailing line is not silently ignored: the file is not one graph
    cpath, gpath = tmp_path / "cert.json", tmp_path / "g.g6"
    run_cli("synth", "2/3", "--cert", str(cpath))
    gpath.write_text("D]o\nGARBAGE LINE\n")
    lines = (f'{gpath}: not a graph6, JSON or "n m" edge-list file '
             "(graph6 is one line; this file holds {})")
    for args in (("tau", str(gpath)), ("verify", str(gpath), str(cpath))):
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr == f"error: {lines.format(2)}\n"
    # in-process from here: the first byte names the format (a digit an
    # edge list, "{" JSON when it parses, anything else graph6), and a
    # graph6 file's line breaks are counted only once it fails validation
    path60 = encode_graph6(make_graph(60, [(i, i + 1) for i in range(59)])).decode()
    assert path60[0] == "{"
    cases = [("D]o" + sep + "GARBAGE LINE\n", lines.format(2)) for sep in ("\r\n", "\r")]
    # no other byte breaks a line, and nothing is decoded: a separator
    # is the graph6 byte (the first of its UTF-8 bytes) that it is
    cases += [("D]o" + sep + "GARBAGE LINE\n", f"invalid graph6 byte {byte}")
              for sep, byte in (("\x0c", 12), ("\x1c", 28), ("\u2028", 226),
                                ("\x85", 194), ("\x0b", 11))]
    cases += [
        ("D]o D]o\n", "invalid graph6 byte 32"),
        ("D]o\tD]o\n", "invalid graph6 byte 9"),
        ("x 3\n0 1\n1 2\n", lines.format(3)),
        ("D] 1\n", "invalid graph6 byte 32"),
        (path60[:-1] + "\n", "truncated graph6 body: need 295 bytes for n=60, got 294"),
        (path60 + "\n" + path60 + "\n", lines.format(2)),
        ("{bad json\n", f"{gpath}: bad JSON: Expecting property name enclosed in "
                         "double quotes: line 1 column 2 (char 1)"),
        ("3 x\n", f"{gpath}: bad header line '3 x'"),
        ("3 x\n0 1\n", f"{gpath}: bad header line '3 x'"),
        ("3 1 0 1", f"{gpath}: bad header line '3 1 0 1'"),
        ("3 2\n0 1\n", f"{gpath}: header says 2 edges, found 1"),
        ("\u00b2\n", "invalid graph6 byte 194"),
    ]
    capsys.readouterr()
    for text, message in cases:
        gpath.write_text(text)
        for args in (["tau", str(gpath)], ["verify", str(gpath), str(cpath)]):
            assert main(args) == 2, (text, args)
            assert capsys.readouterr() == ("", f"error: {message}\n"), (text, args)
    # the whole 60-vertex graph6 is read as graph6, not JSON
    gpath.write_text(path60 + "\n")
    assert main(["alpha", str(gpath)]) == 2
    assert capsys.readouterr() == ("", "error: independence oracle capped at n=48, got n=60\n")
    assert main(["verify", str(gpath), str(cpath)]) == 1


def test_a_graph_file_and_stdin_are_read_alike(tmp_path):
    # one byte reader for both: the same bytes give the same exit code,
    # stdout and stderr, apart from the path the message names
    k23 = "5 6\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n"
    table = [
        b"D]o\n",
        b">>graph6<<D]o\n",
        k23.encode(),
        k23.replace("\n", "\r\n").encode(),
        b'{"n": 5, "edges": [[0, 3], [0, 4], [1, 3], [1, 4], [2, 3], [2, 4]]}\n',
        b"",
        b"D]o\nGARBAGE LINE\n",
        b"D]o\x0cGARBAGE LINE\n",
        "C\u00e9\n".encode(),
        b"C\xe9\n",
        b'{"n": 2, "edges": [], "\xff": 1}\n',
        b"{bad json\n",
        b"3 x\n0 1\n",
        b"3 2\n0 1\n",
        b"3 1\n0 x\n",
        b'{"n": 3}\n',
    ]
    gpath = tmp_path / "g"
    for data in table:
        gpath.write_bytes(data)
        runs = []
        for arg, stdin in ((str(gpath), None), ("-", data)):
            r = subprocess.run([sys.executable, "-m", "toughgraph", "tau", arg],
                               input=stdin, capture_output=True, timeout=600)
            err = r.stderr.replace(f"error: {arg}:".encode(), b"error: <path>:")
            runs.append((r.returncode, r.stdout, err))
        assert runs[0] == runs[1], data
        assert runs[0][0] in (0, 2) and (runs[0][0] == 0) == bool(runs[0][1]), (data, runs[0])
    assert runs[0] == (2, b"", b'error: JSON graph must have exactly the keys "n" and "edges"\n')


def test_an_edge_list_reads_alike_with_any_line_end(tmp_path):
    gpath = tmp_path / "g.edges"
    g = unit_toughness_graph()
    assert main(["block", "unit", "--format", "edges", "--out", str(gpath)]) == 0
    lf = gpath.read_bytes()
    assert lf.count(b"\n") == g.edge_count + 1
    for end in (b"\r\n", b"\r"):
        gpath.write_bytes(lf.replace(b"\n", end))
        assert read_graph(gpath.read_bytes(), str(gpath)) == g, end
    # a bad line is named without its line end
    gpath.write_bytes(b"3 1\r\n0 x\r\n")
    with pytest.raises(ValueError) as info:
        read_graph(gpath.read_bytes(), str(gpath))
    assert str(info.value) == f"{gpath}: bad edge line '0 x'"


def test_an_edge_list_is_read_in_bounded_memory(tmp_path):
    # the edge list is parsed a chunk of lines at a time as make_graph
    # takes it, in the file's bytes as read, so past them and the
    # graph's rows little is held; the CR of a CR LF needs no
    # normalized copy
    import tracemalloc

    from toughgraph import synthesize

    gpath = tmp_path / "g.edges"
    assert main(["synth", "449/200", "--format", "edges", "--out", str(gpath)]) == 0
    lf = gpath.read_bytes()
    want = synthesize("449/200")[0]
    rows = sum(sys.getsizeof(r) for r in want.neighbor_masks)
    for end in (b"\n", b"\r\n"):
        gpath.write_bytes(lf.replace(b"\n", end))
        tracemalloc.start()
        try:
            g = read_graph(gpath.read_bytes(), str(gpath))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = os.path.getsize(gpath) + rows + 256 * 1024
        assert peak < bound, (end, peak, bound)
        assert g == want, end


def test_an_edge_list_is_parsed_a_chunk_of_lines_at_a_time(tmp_path):
    # a chunk of whole lines is split at once up to its first line without
    # an edge line's shape (two digit runs, any whitespace of bytes.split
    # around them), which is then refused; the message is the one a
    # line-at-a-time reader gives, so an out-of-range edge before a bad
    # line in the same chunk is the fault reported
    n = 250
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (7 * u + 3 * v) % 5 == 0]
    want = make_graph(n, edges)
    seps = (b" ", b"\t", b" \x0b ", b"\x0c", b"  ")
    lines = [b" " * (i % 3) + b"%d%s%d" % (u, seps[i % 5], v) for i, (u, v) in enumerate(edges)]
    assert sum(map(len, lines)) > 4 * _EDGE_CHUNK
    gpath = tmp_path / "g.edges"

    def read(end: bytes, body: list[bytes], header: bytes = b"%d %d" % (n, len(edges))):
        gpath.write_bytes(end.join([header] + body) + end)
        try:
            return read_graph(gpath.read_bytes(), str(gpath))
        except ValueError as exc:
            return str(exc)

    for end in (b"\n", b"\r\n", b"\r"):
        assert read(end, lines) == want, end
        for at in [*range(0, len(lines), 331), len(lines) - 1]:
            for bad, message in ((b"0 x", "bad edge line '0 x'"),
                                 (b"1 2 3", "bad edge line '1 2 3'"),
                                 (b"", "bad edge line ''"),
                                 (b"%d 0" % n, f"edge ({n}, 0) out of range for n={n}")):
                if at == len(lines) - 1 and not bad:
                    # a blank last line is whitespace after the edges
                    message = f"header says {len(edges)} edges, found {len(edges) - 1}"
                assert read(end, lines[:at] + [bad] + lines[at + 1:]) == f"{gpath}: {message}"
            faults = [b"%d 0" % n, b"0 x"]
            message = f"edge ({n}, 0) out of range for n={n}"
            assert read(end, lines[:at] + faults + lines[at + 2:]) == f"{gpath}: {message}"


def test_a_json_graph_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    gpath = tmp_path / "g.json"
    g = petersen()
    assert main(["block", "petersen", "--format", "json", "--out", str(gpath)]) == 0
    assert read_graph(gpath.read_bytes(), str(gpath)) == g
    assert calls == [len(gpath.read_bytes().strip())]


def test_json_nested_too_deep_exits_2(tmp_path, capsys):
    # nesting past the parser's recursion limit is a JSON fault like any
    # other: one error line and exit 2, for a graph file and a certificate
    deep = b'{"a":' + b"[" * 100_000
    gpath, cpath, deep_cert = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "d.json"
    gpath.write_bytes(deep)
    deep_cert.write_bytes(deep)
    assert main(["synth", "2/3", "--out", str(tmp_path / "k.g6"), "--cert", str(cpath)]) == 0
    capsys.readouterr()
    for argv, head in (
        (["tau", str(gpath)], f"error: {gpath}: bad JSON: "),
        (["alpha", str(gpath)], f"error: {gpath}: bad JSON: "),
        (["verify", str(gpath), str(cpath)], f"error: {gpath}: bad JSON: "),
        (["verify", str(tmp_path / "k.g6"), str(deep_cert)], "error: bad JSON: "),
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(head) and err.count("\n") == 1, (argv, err)
        assert "recursion" in err, err


def test_a_certificate_nested_near_the_parser_limit_never_raises(tmp_path, capsys):
    # a certificate nested just below the depth json.loads refuses parses,
    # and its value must then be compared at a deeper stack: every depth
    # around that boundary exits 1 (rejected) or 2 (bad JSON), never raises
    gpath, cpath = tmp_path / "g.g6", tmp_path / "c.json"
    assert main(["synth", "2/3", "--out", str(gpath)]) == 0

    def verify(depth):
        cpath.write_text('{"t": "2/3", "x": ' + "[" * depth + "]" * depth + "}")
        try:
            return main(["verify", str(gpath), str(cpath)])
        except RecursionError as exc:
            return exc
        finally:
            capsys.readouterr()

    lo, hi = 1, 100_000  # verify exits 1 at lo and 2 at hi
    assert verify(lo) == 1 and verify(hi) == 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if verify(mid) == 2 else (mid, hi)
    codes = {depth: verify(depth) for depth in range(max(1, hi - 60), hi + 6)}
    assert {d: c for d, c in codes.items() if c not in (1, 2)} == {}


def test_a_brace_file_is_json_or_graph6(tmp_path, capsys):
    # "{" starts both the JSON schema and graph6 for n = 60: a file that
    # is neither is named by its JSON fault when it holds a byte graph6
    # never does, and valid n = 60 graph6 still decodes
    gpath = tmp_path / "g"
    json_fault = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    for data, message in (
        (b"{bad json\n", f"{gpath}: bad JSON: {json_fault}"),
        (b'{"n": 3,\n"edges": [[0, 1]\n', f"{gpath}: bad JSON: Expecting ',' delimiter: "
                                          "line 2 column 17 (char 25)"),
        (b'{"n": 2, "edges": [], "\xff": 1}\n', f"{gpath}: bad JSON: 'utf-8' codec can't "
                                               "decode byte 0xff in position 23: "
                                               "invalid start byte"),
        (b"{~~}\n", "truncated graph6 body: need 295 bytes for n=60, got 3"),
    ):
        gpath.write_bytes(data)
        assert main(["tau", str(gpath)]) == 2, data
        assert capsys.readouterr() == ("", f"error: {message}\n"), data
    g = make_graph(60, [(i, i + 1) for i in range(59)])
    data = encode_graph6(g)
    assert data[:1] == b"{"
    gpath.write_bytes(data + b"\n")
    assert read_graph(gpath.read_bytes(), str(gpath)) == g
    assert _read_in_place(data + b"\n", str(gpath)) == (60, data + b"\n", 0, len(data))


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-16-be",
                                      "utf-32", "utf-32-le", "utf-32-be", "utf-8-sig"])
def test_json_graphs_are_utf8_to_the_api_and_the_cli_alike(tmp_path, capsys, encoding):
    # JSON exchanged between systems is UTF-8 (RFC 8259, 8.1): the API
    # refuses the other encodings of a valid JSON graph as the CLI does,
    # rather than guess the encoding as json.loads does on bytes
    text = to_edge_json(petersen())
    assert from_edge_json(text) == from_edge_json(text.encode()) == petersen()
    data = text.encode(encoding)
    with pytest.raises(GraphFormatError):
        from_edge_json(data)
    gpath = tmp_path / "g.json"
    gpath.write_bytes(data)
    with pytest.raises(GraphFormatError):
        read_graph(data, str(gpath))
    assert main(["alpha", str(gpath)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


# -- tau ---------------------------------------------------------------------


def test_tau_exact(tmp_path):
    gpath = tmp_path / "p.g6"
    run_cli("block", "petersen", "--out", str(gpath))
    r = run_cli("tau", str(gpath))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["exact"] is True
    assert payload["tau"] == "4/3"
    assert len(payload["cutset"]) == 4 and payload["components"] == 3


def test_tau_infinite_for_complete(tmp_path):
    gpath = tmp_path / "k.g6"
    gpath.write_bytes(b"Bw")
    r = run_cli("tau", str(gpath))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["tau"] == "infinite"


def test_tau_falls_back_to_search_above_cap(tmp_path):
    gpath = tmp_path / "big.g6"
    run_cli("synth", "5/3", "--out", str(gpath))
    r = run_cli("tau", str(gpath))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["exact"] is False
    assert "tau_upper_bound" in payload
    # no budget: the search above the cap finds no cutset (C_5)
    r = run_cli("tau", "-", "--max-n", "3", "--budget", "0", stdin="Dhc\n")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: n=5 exceeds the exact limit 3 and the heuristic found no cutset\n"


def test_tau_reads_stdin():
    r = run_cli("tau", "-", stdin="D]o\n")
    assert r.returncode == 0
    assert json.loads(r.stdout)["tau"] == "2/3"


# -- hamilton / alpha -----------------------------------------------------------


def test_hamilton_cycle_and_path(tmp_path):
    gpath = tmp_path / "u.g6"
    run_cli("block", "unit", "--out", str(gpath))
    r = run_cli("hamilton", str(gpath))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] is False
    assert payload["summary"] == "nonhamiltonian (exhaustive)"

    # no spanning 0-1 path exists: the two degree-2 vertices would both
    # have to hug the same endpoints
    r2 = run_cli("hamilton", str(gpath), "--path", "0", "1")
    payload2 = json.loads(r2.stdout)
    assert payload2["verdict"] is False
    assert payload2["summary"] == "no spanning path (exhaustive)"

    r3 = run_cli("hamilton", str(gpath), "--path", "1", "4")
    payload3 = json.loads(r3.stdout)
    assert payload3["verdict"] is True
    assert payload3["summary"] == "spanning path found"
    assert payload3["witness"][0] == 1 and payload3["witness"][-1] == 4


def test_hamilton_budget_exhaustion(tmp_path):
    gpath = tmp_path / "ip.g6"
    run_cli("block", "inflated-petersen", "--out", str(gpath))
    r = run_cli("hamilton", str(gpath), "--budget", "5")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] is None
    assert payload["summary"] == "unknown (budget exhausted)"


def test_case_4_search_bytes_are_pinned(tmp_path):
    # the exhaustive search's node count is part of both outputs, so a
    # prune that enters different nodes changes these bytes
    gpath = tmp_path / "ip.g6"
    run_cli("block", "inflated-petersen", "--out", str(gpath))
    r = run_cli("hamilton", str(gpath))
    assert r.stdout == (
        '{"method": "backtracking", "mode": "cycle", "nodes": 1578, '
        '"summary": "nonhamiltonian (exhaustive)", "verdict": false, "witness": null}\n'
    )
    cpath = tmp_path / "cert.json"
    run_cli("synth", "3/2", "--out", str(gpath), "--cert", str(cpath))
    r = run_cli("verify", str(gpath), str(cpath))
    assert r.returncode == 0
    details = {c["name"]: c["detail"] for c in json.loads(r.stdout)["checks"]}
    assert details["nonhamiltonicity"] == "no Hamilton cycle (backtracking, 1578 nodes)"


def test_hamilton_search_deeper_than_the_recursion_limit(tmp_path):
    # the search path of a 1500-cycle is 1500 vertices deep, past the
    # interpreter's default recursion limit of 1000
    n = 1500
    gpath = tmp_path / "c.txt"
    lines = [f"{n} {n}"] + [f"{i} {(i + 1) % n}" for i in range(n)]
    gpath.write_text("\n".join(lines) + "\n")
    for extra in ((), ("--path", "0", "1")):
        r = run_cli("hamilton", str(gpath), *extra)
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["verdict"] is True
        assert payload["nodes"] == n
        assert len(payload["witness"]) == n


def test_alpha(tmp_path):
    gpath = tmp_path / "p.g6"
    run_cli("block", "petersen", "--out", str(gpath))
    r = run_cli("alpha", str(gpath))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"alpha": 4}


def test_alpha_bad_inputs_exit_2(tmp_path):
    # "é" must not turn into "?", which would decode as an empty C4;
    # the file is never decoded, so its first UTF-8 byte is refused
    bad = tmp_path / "bad.g6"
    bad.write_text("C\u00e9\n", encoding="utf-8")
    r = run_cli("alpha", str(bad))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: invalid graph6 byte 195\n"

    gpath = tmp_path / "k23.g6"
    run_cli("synth", "2/3", "--out", str(gpath))
    r2 = run_cli("alpha", str(gpath), "--max-n", "3")
    assert r2.returncode == 2
    assert r2.stderr.startswith("error:")

    bad.write_text('{"n": 2, "edges": 5}\n')
    r3 = run_cli("alpha", str(bad))
    assert (r3.returncode, r3.stdout) == (2, "")
    assert r3.stderr == 'error: "edges" must be a list\n'


# -- block ----------------------------------------------------------------------


def test_block_outputs():
    r = run_cli("block", "l2", "--format", "edges")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "7 10"

    dot = run_cli("block", "l4", "--format", "dot")
    assert dot.stdout.count("fillcolor=gold") == 2  # both terminals marked

    pet = run_cli("block", "petersen", "--format", "g6")
    assert pet.stdout.strip() == "IheA@GUAo"

    infl = run_cli("block", "inflated-petersen", "--format", "json")
    payload = json.loads(infl.stdout)
    assert payload["n"] == 30
    g = inflate_triangles(petersen())
    assert len(payload["edges"]) == g.edge_count


def test_block_rejects_unknown_kind():
    r = run_cli("block", "l9")
    assert r.returncode == 2


# -- formats round-trip through the CLI -------------------------------------------


def test_edges_format_reads_back(tmp_path):
    epath = tmp_path / "g.edges"
    r = run_cli("block", "unit", "--format", "edges", "--out", str(epath))
    assert r.returncode == 0
    r2 = run_cli("tau", str(epath))
    assert json.loads(r2.stdout)["tau"] == "1/1"


def test_json_format_reads_back(tmp_path):
    jpath = tmp_path / "g.json"
    run_cli("block", "unit", "--format", "json", "--out", str(jpath))
    r = run_cli("hamilton", str(jpath))
    assert json.loads(r.stdout)["verdict"] is False


# sha256 of every synth and block output in every format: CLI output
# bytes are part of the contract, however the writers produce them
_OUTPUT_SHA256 = {
    ("synth", "2/3"): {
        "g6": "4a5e598d08025fa1eb69c752d3b7d86ba442abd8dc713c521bfb25fe43a49b2a",
        "dot": "f82271001854e63582b3cb4b9cd58c9ebfbe4812b08d30b7ca9e00fae6485d26",
        "edges": "c06858eb87a154553a55163b0b77b75aa771d1bfa6e6d4a7c8f806929f64f5ef",
        "json": "3a4fda0df426921464f85dcf72b67af64a32d1a337860631f2d02b082102daf5",
    },
    ("synth", "1"): {
        "g6": "a4fa548419fe7cd2901bc5ee73e77a1c91310ae21b5123b0cdeea217999c5f0c",
        "dot": "3f23154e706d2469922f76f4acee00bd0c714278f8a5ce1abd71508ca988a7aa",
        "edges": "bd26103bb742c1e4ebc8663c3074fef50573a3449687e19bef17668905da0484",
        "json": "52746e785ea3917e990fb7d5304f128891f82008704975cdc9e4ba976bc76f3e",
    },
    ("synth", "6/5"): {
        "g6": "6d220b4fbe6e4102d52ee309bf6984a202aeb932b5b4cdb32325834ea73d514a",
        "dot": "1e90e0e1cba3b3c02ea71ea33abd2a0d6f4fcc9091c1033cb94f0da8619bace4",
        "edges": "7663a1615630612e59731f4ff2794ed61a9711b0b543944ec471989bebef2bf8",
        "json": "4441db18a81b9046dc3b36f5a73572f86c1126e77d7a48aab74d0a2d3774a4a6",
    },
    ("synth", "3/2"): {
        "g6": "3c334ef26661df9b05d7c746490cc4abbd8c7f46689a61227ecf68e3d39170b5",
        "dot": "6ecd5f1c44adcdd89b9c1d47f0e46d5a28c127676fb7ce67424173d0e6025a2b",
        "edges": "dc81f0c00a91edb36274fe969461d931c61343a43436d28670251b6e8810f0ee",
        "json": "f83b8c3132f3bdd785a449f260f0bc3455b9d884963bdc766c47ecef7a43b78f",
    },
    ("synth", "9/5"): {
        "g6": "6dbb45f51b4b0981561ca3b0082873ff1e78a0643548fb770d449fdbe24dffd1",
        "dot": "b35e4630d08b2b137c37d7023d8c09a9b20d1b442c28b655c54684f9f543beb4",
        "edges": "5097d5909b1ef88b00a8e73aad999d5e291ad738ed5a3016770de0641ffe5a91",
        "json": "63033bb7d512e3f9c66bb188e4973b75c5c71c58175504d5c01dfc110bd3ad09",
    },
    ("synth", "17/8"): {
        "g6": "615c64444c4c7d6ff8020af2d9c5e003c34c92a210039b5888f9ad281f3b7247",
        "dot": "15a17bffe05421132cab74d96b8b1a3a55acf0ed7d49c6320b68ce1d0c8a0816",
        "edges": "d0e1cc63dfeada7e68ce47635cad6638453def7b806df678c15a34524b375b9c",
        "json": "713905c8a2ff50ae8bd9995b37c0e39ade37b553af6b436fd12bae8b064a4050",
    },
    ("synth", "12/7"): {
        "g6": "2717f35b8f22df3c9722de2a8b5c243e840572e25c87cc7d3e435814b9caf80a",
        "dot": "38516a6cc72bc5e2177adca24ab14cbcdfb31f9bab01acf87de042e12f3afae6",
        "edges": "c0b8cbd2e86140db94e7b361be68f347613320a175edb798a15d50ca198cf87e",
        "json": "b30231c79feebb2dc22ecf56314c22ea9d69e4c59d5840488082b05962ff86b2",
    },
    ("block", "l1"): {
        "g6": "6545d68697120f7a4a8a214b01b704122915d61ecf6fd680a3c4a27a19add31c",
        "dot": "ff0f94366c843ce68820367c8f83d340fb745befb167588ab5bc41c3217b48d0",
        "edges": "f612f22d28ec6748d09b3b22846eb73f08f036ee8c53789b709e33c43e73d19b",
        "json": "ffa9582f2cb4aac3fcbe06c8eee37110813e69b19e130ddbfe2c3e882abc26d2",
    },
    ("block", "l2"): {
        "g6": "a12b9fe9414400cf4ed1c97e4989e2a502d5a6342b4faa0acb2948be96cbfe00",
        "dot": "52308e917e39ffb3baa3eaf0b0e1f01424b53f72807694af370499b3f2389add",
        "edges": "54a6cd44e13c08e5040c9531bc5df8b0015303bd53c39726e42064e35b952ef9",
        "json": "35272fd1af079bac64a491d91cdaddc34a707c90ba46639e986a3816dac529fe",
    },
    ("block", "l3"): {
        "g6": "1d922d2d5244aded96c5b3efa7e809e63a6133cb3da623b1894212d8de096a15",
        "dot": "f1a68bf1fac064b418cbc6f988f5864bebc6e2cb136d9bdae48c56c8a59374cf",
        "edges": "c3e324cf564d7745161176c98b8d4efd9ebd96bb8fcab614629d3288bd0fb224",
        "json": "49243f11bb4bb9a46e81e52119eb39ebd9f760f5506505cf43e7e435628ccadc",
    },
    ("block", "l4"): {
        "g6": "cbbfc3437c369942aff41b8e824da07e7a08f19ad74dbbeb59accf33d5a5892f",
        "dot": "c6ee0523facfde8ef3d148a3c384397106ca6027ac16feb5046969ab2bf19783",
        "edges": "9fa1591eba0005b23b2bf44a039f370347a0d39ce8735e6ebb5088bb7bdd70c8",
        "json": "33d1c0ce634032e8c0091ac9110ca644ec6b2cdc7ae2478365945113fb555388",
    },
    ("block", "unit"): {
        "g6": "a4fa548419fe7cd2901bc5ee73e77a1c91310ae21b5123b0cdeea217999c5f0c",
        "dot": "3f23154e706d2469922f76f4acee00bd0c714278f8a5ce1abd71508ca988a7aa",
        "edges": "bd26103bb742c1e4ebc8663c3074fef50573a3449687e19bef17668905da0484",
        "json": "52746e785ea3917e990fb7d5304f128891f82008704975cdc9e4ba976bc76f3e",
    },
    ("block", "petersen"): {
        "g6": "ceabaff5db9ce9b57420723f97525b2229b7ad08638b0cc12c58fc36967ba743",
        "dot": "d0d5e15a20075eca28048c85eb0559c44cdde7187cb80d80cd04bf4129fc9d3e",
        "edges": "223b9bae4baa173304a95712770f74b4b0243e4f7f06382593b0da4967659e67",
        "json": "efdd340d0cc3b200d073e7113ca14bb3a83df87499ee6f1913e424a3d75ffbe3",
    },
    ("block", "inflated-petersen"): {
        "g6": "3c334ef26661df9b05d7c746490cc4abbd8c7f46689a61227ecf68e3d39170b5",
        "dot": "6ecd5f1c44adcdd89b9c1d47f0e46d5a28c127676fb7ce67424173d0e6025a2b",
        "edges": "dc81f0c00a91edb36274fe969461d931c61343a43436d28670251b6e8810f0ee",
        "json": "f83b8c3132f3bdd785a449f260f0bc3455b9d884963bdc766c47ecef7a43b78f",
    },
}


def test_output_bytes_are_frozen(tmp_path):
    path = tmp_path / "g"
    for (cmd, arg), digests in _OUTPUT_SHA256.items():
        for fmt, digest in digests.items():
            assert main([cmd, arg, "--format", fmt, "--out", str(path)]) == 0
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            assert got == digest, (cmd, arg, fmt)


@pytest.mark.parametrize("fmt", ["dot", "edges", "json"])
def test_text_formats_are_written_in_bounded_memory(tmp_path, fmt):
    # written a row's edges at a time, the 4.6 MB edge list of 449/200
    # never sits in memory whole; the graph is built untraced, and only
    # its rendering and writing are traced
    import tracemalloc

    from toughgraph import synthesize

    g, _ = synthesize("449/200")
    path = str(tmp_path / "g")
    tracemalloc.start()
    try:
        _emit(WRITERS[fmt](g), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, (fmt, peak)


def test_sizes_past_the_index_range_exit_2(tmp_path, capsys):
    # n = 10**20 overflows Python's index range before any allocation
    edges = tmp_path / "huge.txt"
    edges.write_text("100000000000000000000 0\n")
    data = tmp_path / "huge.json"
    data.write_text('{"n": 100000000000000000000, "edges": []}')
    cert = tmp_path / "cert.json"
    cert.write_text('{"t": "1/2"}')
    for argv in (
        ["synth", "1/100000000000000000000"],
        ["tau", str(edges)],
        ["tau", str(data)],
        ["alpha", str(edges)],
        ["alpha", str(data)],
        ["verify", str(edges), str(cert)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: out of memory\n"), argv


def test_no_arguments_exits_2():
    r = run_cli()
    assert r.returncode == 2


def test_subcommands_compose_in_a_pipe():
    pipe = subprocess.run(
        f"{sys.executable} -m toughgraph synth 6/5 --out - 2>/dev/null"
        f" | {sys.executable} -m toughgraph tau -",
        shell=True,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert pipe.returncode == 0
    assert json.loads(pipe.stdout)["tau"] == "6/5"


# -- one parser per process ----------------------------------------------------

# per command: a valid argv, then one with a bad choice or typed value
_PARSER_FORMS = {
    "synth": (["2/3", "--format", "dot"], ["2/3", "--format", "xyz"]),
    "verify": (["g", "c", "--max-oracle-n", "5"], ["g", "c", "--max-oracle-n", "x"]),
    "tau": (["g", "--max-n", "9"], ["g", "--max-n", "x"]),
    "hamilton": (["g", "--path", "0", "1"], ["g", "--path", "0", "x"]),
    "alpha": (["g"], ["g", "--max-n", "x"]),
    "block": (["l2", "--out", "-"], ["l9"]),
}


def _corpus() -> list[list[str]]:
    """Each command's valid and bad forms, its help, usage and an
    unknown option, and the top level's."""
    forms = [[], ["-h"], ["bogus"], ["--", "alpha"]]
    for cmd, (valid, bad) in _PARSER_FORMS.items():
        forms += [[cmd, "-h"], [cmd, "--bogus", *valid], [cmd], [cmd, *valid], [cmd, *bad]]
    return forms


def _parse(parser, argv, capsys):
    try:
        outcome = sorted(vars(parser.parse_args(argv)).items())
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize("columns", ["30", "80", "200"])
def test_cached_parser_matches_a_fresh_one(columns, monkeypatch, capsys):
    # help, usage and error bytes, exit codes and parsed values are those
    # of a parser built for this call, also where the usage wraps and
    # when the cached one was built under another terminal width
    _parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "55")
    cached = _parser()
    monkeypatch.setenv("COLUMNS", columns)
    for argv in _corpus():
        expected = _parse(_parser.__wrapped__(), argv, capsys)
        assert _parse(cached, argv, capsys) == expected, argv
    assert _parser() is cached
    # the forms cover every command the top-level help lists
    _, out, _ = _parse(cached, ["-h"], capsys)
    assert "{" + ",".join(_PARSER_FORMS) + "}" in out
    for cmd, (valid, _) in _PARSER_FORMS.items():
        parsed, _, _ = _parse(cached, [cmd, *valid], capsys)
        assert ("command", cmd) in parsed


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    gpath = tmp_path / "p.g6"
    gpath.write_text("IheA@GUAo\n")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _parser.cache_clear()
    assert main(["alpha", str(gpath)]) == 0
    first = capsys.readouterr()
    assert json.loads(first.out) == {"alpha": 4}
    assert len(built) == 7  # the top level and six subcommands

    built.clear()
    assert main(["alpha", str(gpath)]) == 0
    assert capsys.readouterr() == first
    outputs = []
    for argv in (["alpha", str(gpath), "--max-n", "x"], ["-h"]):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            outputs.append((exc.value.code, capsys.readouterr()))
    assert [code for code, _ in outputs] == [2, 2, 0, 0]
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert built == []


def test_main_parses_argv_once_as_the_full_parser_does(monkeypatch, capsys):
    # main gives argv[1:] to the command's own parser when argv[0] names
    # one; its exit code, stdout, stderr and parsed values are those of
    # the full parser, also for "--opt=value", abbreviated options, "--"
    # before or after the command, arguments left over and help
    from toughgraph import cli

    monkeypatch.setenv("COLUMNS", "80")
    parsed = []

    def record(args):
        parsed.append(sorted(vars(args).items()))
        return 0

    parser = _parser.__wrapped__()
    for command in parser.commands.values():
        command.set_defaults(func=record)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    forms = _corpus() + [
        ["synth", "2/3", "--format=dot"],
        ["synth", "2/3", "--format=xyz"],
        ["verify", "g", "c", "--max-oracle-n=5"],
        ["tau", "g", "--max-n=9", "--budget=3"],
        ["hamilton", "g", "--budget=7"],
        ["block", "l2", "--out=-"],
        ["verify", "g", "c", "--max-o", "5"],
        ["verify", "g", "c", "--max-o=5"],
        ["tau", "g", "--max", "9", "--b", "3"],
        ["hamilton", "g", "--pa", "0", "1"],
        ["synth", "2/3", "--f", "json", "--c", "c.json", "--o", "-"],
        ["synth", "2/3", "--he"],
        ["alpha", "g", "--max-"],
        ["--", "alpha", "g"],
        ["alpha", "--", "g"],
        ["alpha", "g", "--"],
        ["--", "synth", "--", "2/3"],
        ["synth", "--", "-1/2"],
        ["verify", "g", "--", "c"],
        ["hamilton", "g", "--path", "0", "1", "--"],
        ["verify", "g", "c", "--budget", "5"],
        ["alpha", "g", "h"],
        ["alpha", "g", "--", "h"],
        ["tau", "g", "--max-n", "9", "extra"],
        ["synth", "2/3", "-x"],
        ["block", "l2", "l3"],
        ["hamilton", "g", "--path", "-1", "2"],
        ["alpha", "alpha"],
        ["alpha", ""],
        [""],
        ["Alpha", "g"],
        ["-h", "alpha"],
        ["alpha", "-h", "--bogus"],
    ]
    for cmd, (valid, _) in _PARSER_FORMS.items():
        forms += [[cmd, "--help"], [cmd, *valid, "-h"], [cmd, "--", "-h"]]
    for argv in forms:
        expected = _parse(parser, argv, capsys)
        try:
            assert main(argv) == 0, argv
            outcome = parsed.pop()
        except SystemExit as exc:
            outcome = ("exit", exc.code)
        assert (outcome, *capsys.readouterr()) == expected, argv
        assert parsed == []
