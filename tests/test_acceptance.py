"""Acceptance gate: one test per criterion, each named test_criterion_NN_*.

The conftest hook turns these into a PASS/FAIL line per criterion at the
end of the run.  Each criterion carries the time budget it was specified
with; the assertions use exact rational equality throughout, never
floats.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from fractions import Fraction

from toughgraph import (
    ORACLE_EXACT,
    ORACLE_EXHAUSTIVE,
    STRUCTURAL,
    WITNESS_UPPER_BOUND_ONLY,
    BlockKind,
    block,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    complete_bipartite,
    complete_graph,
    cutset_witness,
    decode_graph6,
    encode_graph6,
    g_construct,
    has_hamilton_path,
    inflate_triangles,
    is_hamiltonian,
    make_graph,
    matched_layers,
    petersen,
    plan,
    predicted_toughness,
    synthesize,
    toughness_exact,
    unit_toughness_graph,
    verify_claim_formula,
)


class budget:
    """Assert the body stayed within the criterion's time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_block_terminal_paths():
    with budget(1):
        for kind, expect in (
            (BlockKind.L1, False),
            (BlockKind.L2, False),
            (BlockKind.L3, False),
            (BlockKind.L4, True),
        ):
            b = block(kind)
            res = has_hamilton_path(b.graph, b.x, b.y)
            assert res.verdict is expect, kind
            assert res.verdict is not None  # exhaustive, never a timeout


def test_criterion_02_known_toughness_values():
    with budget(10):
        assert toughness_exact(complete_bipartite(2, 3)).value == Fraction(2, 3)

        unit = unit_toughness_graph()
        assert toughness_exact(unit).value == Fraction(1)
        ham = is_hamiltonian(unit)
        assert ham.verdict is False and ham.method in ("backtracking", "subset-dp")

        c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert toughness_exact(c5).value == Fraction(1)
        assert toughness_exact(petersen()).value == Fraction(4, 3)
        assert toughness_exact(complete_graph(4)).is_infinite


def test_criterion_03_single_kind_chain_formula():
    with budget(300):
        for l, m in ((2, 1), (3, 1), (2, 2)):
            assert verify_claim_formula("l2_chain", l, m=m), (l, m)


def test_criterion_04_chain_with_tail_formula():
    with budget(60):
        for l, m in ((2, 1), (3, 1)):
            assert verify_claim_formula("l2_chain_l3", l, m=m), (l, m)


def test_criterion_05_mixed_formula_and_cross_identity():
    with budget(1800):
        assert verify_claim_formula("mixed", 2, m1=1, m2=1)  # n = 17
        assert verify_claim_formula("mixed", 2, m1=1, m2=0)  # n = 10

        # at m2 = 0 the mixed family degenerates into the plain chain of
        # 8-vertex blocks, so the two governing formulas must agree on
        # the same graph
        l, m1 = 2, 1
        mixed_value = Fraction(l + 3 * 0, 2 * 0 + 1)
        chain_value = Fraction(l + 4 * m1, 2 * m1 + 1)
        assert mixed_value == chain_value == 2
        assert verify_claim_formula("l1_chain", l, m=m1)
        same = g_construct(l, [block(BlockKind.L1)] * m1)
        assert toughness_exact(same).value == mixed_value


def test_criterion_06_mixed_tail_formula_upper_range():
    # n = 19 is the largest exact-oracle instance in the suite
    with budget(60):
        assert verify_claim_formula("mixed_l3", 2, m1=1, m2=1)


def test_criterion_07_path_closing_tail_formula():
    with budget(60):
        for l, m in ((2, 1), (2, 2)):
            assert verify_claim_formula("l1_chain_l4", l, m=m), (l, m)


def test_criterion_08_roundtrip_exact_tier():
    with budget(3600):
        for target in ("2/3", "1", "6/5", "4/3"):
            g, cert = synthesize(target)
            report = check_certificate(g, cert)
            assert report.accepted, target
            assert report.toughness_status == ORACLE_EXACT, target
            assert report.nonhamiltonicity_status in (
                ORACLE_EXHAUSTIVE,
                STRUCTURAL,
            ), target

        # the 4/3 witness is the largest exact-tier instance
        p = plan("4/3")
        assert p.case_id == "3" and p.q == 3
        g43, cert43 = synthesize("4/3")
        assert g43.n == 22
        assert cert43.nonhamiltonicity.kind == "edge_count"


def test_criterion_09_roundtrip_structural_tier():
    with budget(60):
        for target in ("5/3", "7/4", "2", "11/5"):
            t = Fraction(*map(int, target.split("/"))) if "/" in target else Fraction(int(target))
            g, cert = synthesize(target)
            report = check_certificate(g, cert)
            assert report.accepted, target
            # (i) witness ratio is exactly t, re-checked in polynomial time
            w = cutset_witness(g, cert.cutset)
            assert w.ratio == t, target
            assert report.toughness_status == WITNESS_UPPER_BOUND_ONLY, target
            # (ii) counting argument over per-kind path refutations
            assert cert.nonhamiltonicity.kind == "block_count", target
            assert report.nonhamiltonicity_status == STRUCTURAL, target
            # (iii) the governing formula reproduces t in exact arithmetic
            assert predicted_toughness(cert.plan) == t, target
        assert synthesize("11/5")[0].n == 229


def test_criterion_10_triangle_inflation_instance():
    with budget(300):
        inflated = inflate_triangles(petersen())
        res = is_hamiltonian(inflated)
        assert res.verdict is False
        assert res.method == "backtracking" and res.nodes > 0

        g, cert = synthesize("3/2")
        assert g == inflated
        assert len(cert.cutset) == 15 and cert.components == 10
        assert cutset_witness(g, cert.cutset).ratio == Fraction(3, 2)
        report = check_certificate(g, cert)
        assert report.accepted
        # toughness >= 3/2 rests on the structural argument, not the
        # oracle: the report must say so rather than claim exactness
        assert report.toughness_status == WITNESS_UPPER_BOUND_ONLY
        assert report.nonhamiltonicity_status == ORACLE_EXHAUSTIVE


def _corrupt_field(payload: dict, key):
    """One deterministic, parse-visible corruption of a certificate field."""
    val = payload[key]
    if key in ("t", "predicted_tau"):
        num, den = val.split("/")
        return f"{int(num) + 1}/{den}"
    if key == "case":
        return "1" if val != "1" else "2"
    if key == "blocks":
        return list(val) + ["L2"]
    if key == "cutset":
        return list(val)[:-1]
    if key == "notes":
        return list(val) + ["tampered"]
    if key == "nonhamiltonicity":
        arg = dict(val)
        ints = [k for k, v in arg.items() if isinstance(v, int)]
        if ints:
            arg[ints[0]] += 1
        else:
            arg = {
                "kind": "edge_count",
                "required_incidences": 1,
                "available_incidences": 0,
            }
        return arg
    if val is None:
        return 1
    if isinstance(val, int):
        return val + 1
    raise AssertionError(f"unhandled field {key}")


def test_criterion_11_property_suites():
    with budget(600):
        # 1. plan identity over a large random rational sweep
        rng = random.Random(90210)
        seen = set()
        while len(seen) < 1000:
            b = rng.randrange(1, 200)
            a = rng.randrange(1, 3 * b)
            t = Fraction(a, b)
            if not t < Fraction(9, 4) or t in seen:
                continue
            seen.add(t)
            p = plan(t)
            assert predicted_toughness(p) == t
            assert Fraction(p.a_scaled, p.b_scaled) == t
            assert p.q >= 1

        # 2. single-field corruption of a certificate is always rejected,
        # in regimes 1-3 and in each block regime
        for target in (
            "2/3", "1", "6/5", "5/3", "13/8", "7/4", "9/5", "2", "11/5", "13/6",
        ):
            g, cert = synthesize(target)
            payload = json.loads(certificate_to_json(cert))
            for key in payload:
                bad = dict(payload, **{key: _corrupt_field(payload, key)})
                try:
                    mutated = certificate_from_json(json.dumps(bad))
                except ValueError:
                    continue  # rejected at the parser: fine
                report = check_certificate(g, mutated)
                assert not report.accepted, (target, key)

        # 3. graph6 round-trip across every graph the package produces
        corpus = [
            block(kind).graph for kind in BlockKind
        ] + [
            unit_toughness_graph(),
            petersen(),
            inflate_triangles(petersen()),
            matched_layers(7, 5),
            complete_bipartite(2, 3),
        ]
        for target in (
            "2/3", "1", "6/5", "4/3", "3/2", "5/3",
            "13/8", "7/4", "9/5", "2", "11/5", "13/6",
        ):
            corpus.append(synthesize(target)[0])
        rng = random.Random(1)
        for trial in range(200):
            n = rng.randrange(0, 26)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            corpus.append(make_graph(n, edges))
        for g in corpus:
            assert decode_graph6(encode_graph6(g)) == g
