"""Verifier: acceptance of sound certificates, rejection of corrupted ones."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from naive import naive_bipartition
from toughgraph import (
    FAILED,
    ORACLE_EXACT,
    ORACLE_EXHAUSTIVE,
    STRUCTURAL,
    WITNESS_UPPER_BOUND_ONLY,
    HamiltonResult,
    NonHamiltonicityArgument,
    check_certificate,
    complete_bipartite,
    disjoint_union,
    encode_graph6,
    make_graph,
    synthesize,
    verify_claim_formula,
)
from toughgraph import graphs, verify
from toughgraph.graphs import _G6_CHUNK, _bipartition


def _check_named(report, name):
    found = [c for c in report.checks if c.name == name]
    assert found, f"no check named {name}"
    return found[0]


# -- acceptance of sound certificates -----------------------------------------


def test_accepts_exact_tier():
    for target, nonham in (
        ("2/3", STRUCTURAL),
        ("1", ORACLE_EXHAUSTIVE),
        ("6/5", STRUCTURAL),
    ):
        g, cert = synthesize(target)
        report = check_certificate(g, cert)
        assert report.accepted, target
        assert report.toughness_status == ORACLE_EXACT
        assert report.nonhamiltonicity_status == nonham


def test_accepts_structural_tier():
    g, cert = synthesize("9/5")
    report = check_certificate(g, cert)
    assert report.accepted
    assert report.toughness_status == WITNESS_UPPER_BOUND_ONLY
    assert report.nonhamiltonicity_status == STRUCTURAL
    assert _check_named(report, "toughness-witness-only").ok


def test_accepts_exhaustive_tier_on_inflation():
    g, cert = synthesize("3/2")
    report = check_certificate(g, cert)
    assert report.accepted
    assert report.toughness_status == WITNESS_UPPER_BOUND_ONLY
    assert report.nonhamiltonicity_status == ORACLE_EXHAUSTIVE


def test_alpha_reported_for_bipartite_arguments():
    g, cert = synthesize("2/3")
    report = check_certificate(g, cert)
    assert report.alpha == 3
    g2, cert2 = synthesize("1")
    assert check_certificate(g2, cert2).alpha is None


def _random_bipartite(rng: random.Random, a: int, b: int, p: float):
    # sides 0..a-1 and a..a+b-1, shuffled so the sides interleave in label
    # order; vertices with no sampled edge stay isolated
    perm = list(range(a + b))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[a + v]) for u in range(a) for v in range(b) if rng.random() < p
    ]
    return make_graph(a + b, [(min(e), max(e)) for e in edges])


def test_bipartition_matches_naive():
    rng = random.Random(77)
    graphs = [make_graph(0, []), make_graph(5, []), complete_bipartite(3, 4)]
    for _ in range(60):
        g = _random_bipartite(rng, rng.randrange(1, 9), rng.randrange(1, 9), rng.uniform(0.1, 0.6))
        graphs.append(g)
        graphs.append(disjoint_union([g, make_graph(1, []), _random_bipartite(rng, 3, 4, 0.5)]))
        # one extra edge may close an odd cycle
        u, v = rng.sample(range(g.n), 2)
        if not g.has_edge(u, v):
            graphs.append(make_graph(g.n, g.edges() + [(min(u, v), max(u, v))]))
    odd = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    graphs.append(disjoint_union([complete_bipartite(2, 3), make_graph(2, []), odd]))
    verdicts = set()
    for g in graphs:
        sides = _bipartition(g)
        want = naive_bipartition(g)
        verdicts.add(want is None)
        if want is None:
            assert sides is None
        else:
            assert sides is not None
            assert [{v for v in range(g.n) if m >> v & 1} for m in sides] == list(want)
    assert verdicts == {True, False}


def test_report_json_shape():
    g, cert = synthesize("2/3")
    report = check_certificate(g, cert)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "accepted", "toughness_status", "nonhamiltonicity_status",
        "alpha", "checks",
    }
    assert all(set(c) == {"name", "ok", "detail"} for c in payload["checks"])
    # the output carries no timings, so repeated runs serialize equal
    again = check_certificate(g, cert)
    assert again.to_json() == report.to_json()


def _counted(monkeypatch, name) -> list:
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_exact_tier_is_one_decision_below_t(monkeypatch):
    # the witness proves toughness <= t and one decision that no cut
    # goes under t; the verifier has no full toughness search to run
    assert not hasattr(verify, "toughness_exact")
    searches = _counted(monkeypatch, "toughness_below")
    products = _counted(monkeypatch, "decomposition_below")
    for target in ("2/3", "5/8", "7/10", "1", "7/6", "8/7", "9/7", "5/4", "4/3"):
        searches.clear()
        products.clear()
        g, cert = synthesize(target)
        report = check_certificate(g, cert)
        assert report.accepted, target
        assert report.toughness_status == ORACLE_EXACT
        check = _check_named(report, "toughness-oracle")
        assert check.ok and check.detail == f"exact toughness equals {target}"
        assert len(searches) + len(products) == 1, target


def test_plan_built_graphs_are_decided_on_the_layout(monkeypatch):
    # a case-3 graph that the rebuild proved to be its plan's is decided
    # by the decomposition engine on the plan's layout, with no cutset
    # search, whether it comes as a Graph or as graph6 bytes; the tier
    # and the detail are the search's
    from toughgraph import verify

    def refuse(*args, **kwargs):
        pytest.fail("verifier ran a cutset search")

    monkeypatch.setattr(verify, "toughness_below", refuse)
    for target in ("6/5", "7/6", "8/7", "9/7", "5/4", "4/3"):
        g, cert = synthesize(target)
        for graph in (g, encode_graph6(g)):
            report = check_certificate(graph, cert)
            assert report.accepted, target
            assert report.toughness_status == ORACLE_EXACT
            check = _check_named(report, "toughness-oracle")
            assert check.ok and check.detail == f"exact toughness equals {target}"


def _refuse_checks(monkeypatch):
    # what would check, recount or search the graph after the rebuild
    def refuse(*args, **kwargs):
        pytest.fail("verifier checked a graph that failed the rebuild")

    for name in ("toughness_below", "decomposition_below", "is_hamiltonian",
                 "cutset_witness"):
        monkeypatch.setattr(verify, name, refuse)


def _assert_rebuild_only(report, detail):
    # a pair that fails the rebuild is rejected on that check alone
    assert not report.accepted
    assert (report.toughness_status, report.nonhamiltonicity_status) == (FAILED, FAILED)
    assert report.alpha is None
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [("rebuild", False, detail)]


_NOT_CANONICAL = "certificate is not the canonical output of its plan: {} differ"


def _minus_edge(target, edge):
    g, cert = synthesize(target)
    assert g.has_edge(*edge)
    weaker = make_graph(g.n, [e for e in g.edges() if e != edge])
    detail = (f"plan rebuilds to a different graph "
              f"(n={g.n}, m={g.edge_count} vs n={g.n}, m={g.edge_count - 1})")
    return weaker, cert, detail


def _cycle_for_13_10():
    # C_24 has 13/10's order; naming its toughness by cutset search cost
    # over a second when the checks ran on it
    g, cert = synthesize("13/10")
    cycle = make_graph(24, [(i, i + 1) for i in range(23)] + [(0, 23)])
    detail = f"plan rebuilds to a different graph (n=24, m={g.edge_count} vs n=24, m=24)"
    return cycle, cert, detail


def _forged_witness():
    g, cert = synthesize("6/5")
    bad = dataclasses.replace(cert, cutset=cert.cutset - {max(cert.cutset)})
    return g, bad, _NOT_CANONICAL.format("cutset")


def _forged_exhaustive_argument():
    # the 9/5 graph (n = 57) took 79 s to search when the argument ran
    g, cert = synthesize("9/5")
    forged = dataclasses.replace(
        cert, nonhamiltonicity=NonHamiltonicityArgument("exhaustive", {})
    )
    return g, forged, _NOT_CANONICAL.format("nonhamiltonicity")


_REBUILD_FAILURES = {
    "6_5_minus_0_2": lambda: _minus_edge("6/5", (0, 2)),
    "2_3_minus_0_2": lambda: _minus_edge("2/3", (0, 2)),
    "1_minus_0_1": lambda: _minus_edge("1", (0, 1)),
    # past the oracle limit: its block-count argument once passed here
    "17_8_minus_0_1": lambda: _minus_edge("17/8", (0, 1)),
    "c24_for_13_10": _cycle_for_13_10,
    "6_5_forged_witness": _forged_witness,
    "9_5_forged_exhaustive": _forged_exhaustive_argument,
}


@pytest.mark.parametrize("case", list(_REBUILD_FAILURES))
def test_a_pair_that_fails_the_rebuild_gets_a_one_check_report(monkeypatch, case):
    # nothing is checked, recounted or searched on a graph that did not
    # rebuild; graph6 input decodes only when its bytes are not the
    # rebuilt graph's
    graph, cert, detail = _REBUILD_FAILURES[case]()
    _refuse_checks(monkeypatch)
    calls = _count_decodes(monkeypatch)
    _assert_rebuild_only(check_certificate(graph, cert), detail)
    data = encode_graph6(graph)
    _assert_rebuild_only(check_certificate(data, cert), detail)
    forged_graph = not detail.startswith("certificate")
    assert calls == ([data] if forged_graph else [])


def _cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _side(cert, size):
    arg = cert.nonhamiltonicity
    return dataclasses.replace(cert, nonhamiltonicity=NonHamiltonicityArgument(
        arg.kind, dict(arg.params, independent_side=size)))


# target, the graph its plan is made to build and the certificate it is
# made to derive (None: the real ones), whether the counting argument
# holds, and the failing check's name and detail, with both statuses
_CANONICAL_FAULTS = {
    "witness_count": ("1", None, lambda c: dataclasses.replace(c, components=3), True,
                      "witness", "component count mismatch: certificate says 3, "
                      "recount gives 2", FAILED, ORACLE_EXHAUSTIVE),
    "not_bipartite": ("2/3", lambda g: make_graph(5, g.edges() + [(0, 1)]), None, True,
                      "nonhamiltonicity", "graph is not bipartite", ORACLE_EXACT, FAILED),
    "side_size": ("2/3", None, lambda c: _side(c, 4), True, "nonhamiltonicity",
                  "independent side has 3 vertices, certificate says 4", ORACLE_EXACT, FAILED),
    "side_at_half": ("1/3", lambda g: _cycle(4), lambda c: _side(c, 2), True,
                     "nonhamiltonicity", "independent side 2 does not exceed n/2 = 4/2",
                     FAILED, FAILED),
    # K_{1,3} and an isolated vertex: its larger side is 3, alpha is 4
    "alpha": ("2/3", lambda g: make_graph(5, [(0, 1), (0, 2), (0, 3)]), None, True,
              "nonhamiltonicity", "independence oracle gives 4, expected 3", FAILED, FAILED),
    "edge_count": ("6/5", None, None, False, "nonhamiltonicity",
                   "counting argument fails: needs 10 > 9", ORACLE_EXACT, FAILED),
    "block_count": ("9/5", None, None, False, "nonhamiltonicity",
                    "only 7 path-free blocks, need 7", WITNESS_UPPER_BOUND_ONLY, FAILED),
    # C_7 has the order of t = 1's graph, and {0, 3} leaves 2 components
    "hamiltonian": ("1", lambda g: _cycle(7), None, True, "nonhamiltonicity",
                    "graph is hamiltonian; certificate is wrong", ORACLE_EXACT, FAILED),
}


@pytest.mark.parametrize("case", list(_CANONICAL_FAULTS))
def test_a_canonical_pair_that_fails_a_later_check_is_rejected(monkeypatch, case):
    # no input passes the rebuild and then fails a check, so the plan is
    # made to build and derive a faulty pair, which the gate then passes
    target, graph, derive, holds, name, detail, tau, nonham = _CANONICAL_FAULTS[case]
    g, cert = synthesize(target)
    g = graph(g) if graph else g
    cert = derive(cert) if derive else cert
    monkeypatch.setattr(verify, "plan_graph", lambda p: g)
    monkeypatch.setattr(verify, "plan_certificate", lambda p: cert)
    monkeypatch.setattr(verify, "argument_holds", lambda kind, p: holds)
    for given in (g, encode_graph6(g)):
        report = check_certificate(given, cert)
        assert _check_named(report, "rebuild").ok
        check = _check_named(report, name)
        assert (check.ok, check.detail) == (False, detail)
        assert not report.accepted
        assert (report.toughness_status, report.nonhamiltonicity_status) == (tau, nonham)


def _forge(payload: dict, field: str, n: int) -> tuple[str, str]:
    """Certificate JSON with one field changed, as the benchmark's
    forgeries change it, and the key the rebuild names for it."""
    cert = json.loads(json.dumps(payload))
    if field == "cutset_vertex":
        cut = cert["cutset"]
        cert["cutset"] = sorted(cut[1:] + [min(set(range(n)) - set(cut))])
        return json.dumps(cert), "cutset"
    if field == "predicted_tau":
        num, den = cert["predicted_tau"].split("/")
        cert["predicted_tau"] = f"{int(num) + 1}/{den}"
    elif field == "block_kind":
        first = cert["blocks"][:1]
        cert["blocks"][:1] = ["L3" if first == ["L1"] else "L1"]
        return json.dumps(cert), "blocks"
    elif field == "nonham_param":
        arg = cert["nonhamiltonicity"]
        arg[min(k for k in arg if k != "kind")] += 1
        return json.dumps(cert), "nonhamiltonicity"
    else:
        cert[field] += 1
    return json.dumps(cert), field


@pytest.mark.parametrize("target", ["9/5", "5/8"])
def test_a_forged_certificate_is_rejected_before_any_graph_exists(monkeypatch, target):
    # every one-field forgery gets the one-check rebuild report from the
    # certificate comparison alone, with each constructor refusing
    from toughgraph import certificate_from_json, certificate_to_json, synth

    g, cert = synthesize(target)
    data = encode_graph6(g)
    payload = json.loads(certificate_to_json(cert))

    def refuse(*args):
        pytest.fail("verifier built a graph for a forged certificate")

    for name in ("layout_graph", "complete_bipartite", "matched_layers",
                 "inflate_triangles", "unit_toughness_graph"):
        monkeypatch.setattr(synth, name, refuse)
    _refuse_checks(monkeypatch)
    for field in ("cutset_vertex", "components", "predicted_tau", "l", "block_kind",
                  "nonham_param"):
        text, key = _forge(payload, field, g.n)
        for graph in (g, data):
            report = check_certificate(graph, certificate_from_json(text))
            _assert_rebuild_only(report, _NOT_CANONICAL.format(key))


def test_a_genuine_pair_counts_its_components_once(monkeypatch):
    # the certificate comes from the plan, so the witness check is the
    # verifier's only component count
    from toughgraph import oracles

    g, cert = synthesize("449/200")
    calls = []
    original = oracles.count_components_masked

    def counted(nbr, alive):
        calls.append(alive)
        return original(nbr, alive)

    monkeypatch.setattr(oracles, "count_components_masked", counted)
    for graph in (g, encode_graph6(g)):
        calls.clear()
        assert check_certificate(graph, cert).accepted
        assert len(calls) == 1


def test_a_dict_without_a_rational_t_is_rejected_on_the_rebuild(monkeypatch):
    # a dict certificate is checked by certificate_target, as its text is
    # by certificate_from_json: a payload that check refuses gets the
    # one-check rejection, never an exception, and nothing is planned
    g, _ = synthesize("2/3")
    monkeypatch.setattr(verify, "plan", lambda t: pytest.fail("verifier planned a target"))
    _refuse_checks(monkeypatch)
    shape = 'CertificateError: certificate must be a JSON object with a rational "t"'
    for payload in ({"t": 5}, {}, {"t": "2/3", 1: 0}, [1]):
        for graph in (g, encode_graph6(g)):
            _assert_rebuild_only(check_certificate(graph, payload), shape)


def test_a_value_json_cannot_encode_is_a_forged_key():
    # JSON cannot encode a list nested 100,000 deep, nor a set; such a
    # claimed value differs from the canonical one, so the pair is
    # rejected naming its key, never with an exception
    from toughgraph import certificate_to_json

    g, cert = synthesize("2/3")
    payload = json.loads(certificate_to_json(cert))
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    for key, value in (("cutset", deep), ("extra", deep), ("cutset", {0, 1})):
        forged = dict(payload, **{key: value})
        for graph in (g, encode_graph6(g)):
            _assert_rebuild_only(check_certificate(graph, forged), _NOT_CANONICAL.format(key))


def test_a_rebuilt_graph_with_a_cut_below_t_is_rejected(monkeypatch):
    # the decision is what proves toughness >= t: a rebuilt graph whose
    # engine (6/5) or cutset search (2/3) reports a cut below t is
    # rejected although every other check passes; a found cutset is any
    # value but None
    monkeypatch.setattr(verify, "decomposition_below", lambda *args: -1)
    monkeypatch.setattr(verify, "toughness_below", lambda *args, **kwargs: object())
    for target in ("6/5", "2/3"):
        g, cert = synthesize(target)
        for graph in (g, encode_graph6(g)):
            report = check_certificate(graph, cert)
            assert not report.accepted, target
            assert all(c.ok for c in report.checks if c.name != "toughness-oracle")
            assert report.toughness_status == FAILED
            check = _check_named(report, "toughness-oracle")
            assert check.detail == f"a cutset has ratio below the predicted {target}"


# -- rejection of corrupted certificates ---------------------------------------


def test_rejects_wrong_graph():
    g, cert = synthesize("6/5")
    edges = g.edges()
    tampered = make_graph(g.n, edges[:-1])
    report = check_certificate(tampered, cert)
    assert not report.accepted
    assert not _check_named(report, "rebuild").ok


def test_rejects_cutset_tampering():
    g, cert = synthesize("6/5")
    dropped = cert.cutset - {max(cert.cutset)}
    extra = cert.cutset | {2}
    assert extra != cert.cutset
    for cutset in (dropped, extra):
        report = check_certificate(g, dataclasses.replace(cert, cutset=cutset))
        assert not report.accepted
        _assert_rebuild_only(report, _NOT_CANONICAL.format("cutset"))


def test_rejects_out_of_range_cutset():
    g, cert = synthesize("6/5")
    bad = dataclasses.replace(cert, cutset=cert.cutset | {99})
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("cutset"))


def test_rejects_component_count_tampering():
    g, cert = synthesize("6/5")
    bad = dataclasses.replace(cert, components=cert.components + 1)
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("components"))


def test_rejects_predicted_tau_tampering():
    from fractions import Fraction

    g, cert = synthesize("6/5")
    bad = dataclasses.replace(cert, predicted_tau=Fraction(7, 5))
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("predicted_tau"))
    # with the witness forged to match, both fields are named
    both = dataclasses.replace(bad, components=cert.components - 1)
    _assert_rebuild_only(
        check_certificate(g, both), _NOT_CANONICAL.format("components, predicted_tau")
    )


def test_rebuild_refuses_a_plan_larger_than_the_graph(monkeypatch):
    # the canonical plan of 1749999/1000000 has 11.2M vertices; paired
    # with a small graph it must be refused by order, never built
    from toughgraph import Certificate, complete_bipartite, plan, plan_order
    from toughgraph import verify

    def no_build(p):
        pytest.fail(f"verifier tried to build a plan of n={plan_order(p)}")

    for name in ("plan_graph", "plan_certificate"):
        monkeypatch.setattr(verify, name, no_build)
    p = plan("1749999/1000000")
    order = plan_order(p)
    assert order > 11_000_000
    cert = Certificate(
        plan=p,
        nonhamiltonicity=NonHamiltonicityArgument("block_count", {}),
        cutset=frozenset({0, 1}),
        components=3,
        predicted_tau=p.t,
    )
    g = complete_bipartite(2, 3)
    report = check_certificate(g, cert)
    assert report.accepted is False
    detail = _check_named(report, "rebuild").detail
    assert f"n={order}" in detail and f"n={g.n}" in detail


def test_rejects_a_nine_digit_target_without_building(monkeypatch):
    # the 2/3 certificate with only t changed: its canonical plan has
    # 150M blocks, and the verifier must refuse it by order, before it
    # builds or serializes anything
    from fractions import Fraction

    from toughgraph import plan, plan_order
    from toughgraph import verify

    for name in ("plan_graph", "plan_certificate"):
        monkeypatch.setattr(verify, name, lambda p: pytest.fail("verifier built a plan"))
    monkeypatch.setattr(
        verify, "certificate_payload", lambda c: pytest.fail("verifier serialized a plan")
    )
    g, cert = synthesize("2/3")
    t = Fraction(174999999, 100000000)
    bad = dataclasses.replace(cert, plan=dataclasses.replace(cert.plan, t=t))
    order = plan_order(plan(t))
    assert order > 1_000_000_000
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, f"plan builds n={order} vertices but the graph has n={g.n}")


def test_rejects_plan_parameter_tampering():
    g, cert = synthesize("9/5")
    for field, value in (("l", 4), ("m1", 4), ("q", 3)):
        bad_plan = dataclasses.replace(cert.plan, **{field: value})
        bad = dataclasses.replace(cert, plan=bad_plan)
        report = check_certificate(g, bad)
        assert not report.accepted, field


def test_rejects_block_list_tampering():
    from toughgraph import BlockKind

    g, cert = synthesize("9/5")
    assert cert.plan.block_kinds == ((BlockKind.L1, 5), (BlockKind.L2, 2))
    # well-formed runs that turn one L2 block into an L1 block
    kinds = ((BlockKind.L1, 6), (BlockKind.L2, 1))
    bad = dataclasses.replace(cert, plan=dataclasses.replace(cert.plan, block_kinds=kinds))
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("blocks"))


def test_rejects_a_reordered_block_list():
    # the list is compared as written: L1, L2, L1 is not the plan's list
    from toughgraph import certificate_from_json, certificate_to_json

    g, cert = synthesize("9/5")
    payload = json.loads(certificate_to_json(cert))
    payload["blocks"] = ["L1", "L2", "L1"]
    bad = certificate_from_json(json.dumps(payload))
    assert bad["blocks"] == ["L1", "L2", "L1"]
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("blocks"))


def test_rejects_argument_kind_swap():
    # swapping in a different but still sound argument: rejected as
    # noncanonical even though the argument itself validates
    g, cert = synthesize("2/3")
    swapped = dataclasses.replace(
        cert, nonhamiltonicity=NonHamiltonicityArgument("exhaustive", {})
    )
    report = check_certificate(g, swapped)
    assert not report.accepted
    assert "canonical" in _check_named(report, "rebuild").detail

    # swapping in an unsound argument: rejected by the same comparison,
    # before any bipartition is sought
    g2, cert2 = synthesize("1")
    bad = dataclasses.replace(
        cert2,
        nonhamiltonicity=NonHamiltonicityArgument(
            "bipartite_imbalance", {"independent_side": 4}
        ),
    )
    report2 = check_certificate(g2, bad)
    assert not report2.accepted
    assert report2.nonhamiltonicity_status == FAILED
    _assert_rebuild_only(report2, _NOT_CANONICAL.format("nonhamiltonicity"))


# sha256 of the report `toughgraph verify` prints for the genuine pairs,
# as bench/expected.json records them
_EXHAUSTIVE_REPORT_SHA256 = {
    "1": "81adc84eb70de9d744e5db413823c03462b38b0184aca9780a04291301bdf393",
    "3/2": "e3e2627d0d48c085597dc6451133c3ce52e9383e1982436202e2e456f1f1b6cb",
}


@pytest.mark.parametrize("target", sorted(_EXHAUSTIVE_REPORT_SHA256))
def test_genuine_exhaustive_reports_keep_their_bytes(target):
    g, cert = synthesize(target)
    report = check_certificate(encode_graph6(g), cert).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == _EXHAUSTIVE_REPORT_SHA256[target]


def test_rejects_argument_parameter_tampering():
    g, cert = synthesize("6/5")
    arg = cert.nonhamiltonicity
    bad_params = dict(arg.params, required_incidences=3)
    bad = dataclasses.replace(
        cert, nonhamiltonicity=NonHamiltonicityArgument(arg.kind, bad_params)
    )
    report = check_certificate(g, bad)
    assert not report.accepted


def test_block_count_argument_needs_a_join_vertex():
    # with no join clique one spanning-path block would close a cycle, so
    # the counting argument fails outright at l = 0, whatever it counts
    from toughgraph.synth import NONHAM_BLOCK_COUNT, argument_holds, argument_params

    _, cert = synthesize("9/5")
    assert argument_holds(NONHAM_BLOCK_COUNT, cert.plan)
    joinless = dataclasses.replace(cert.plan, l=0)
    params = argument_params(NONHAM_BLOCK_COUNT, joinless)
    assert params["path_free_blocks"] >= params["required"] == 1
    assert not argument_holds(NONHAM_BLOCK_COUNT, joinless)


def test_budget_exhaustion_is_a_rejection(monkeypatch):
    monkeypatch.setattr(
        verify, "is_hamiltonian",
        lambda g: HamiltonResult(None, None, "backtracking", 5),
    )
    g, cert = synthesize("1")
    report = check_certificate(g, cert)
    assert not report.accepted
    assert report.nonhamiltonicity_status == FAILED
    assert _check_named(report, "nonhamiltonicity").detail == (
        "exhaustive search exhausted its budget after 5 nodes"
    )


def test_unknown_terminal_path_verdict_is_a_rejection(monkeypatch):
    # a block search that gives no verdict must fail the argument, never
    # count the block as path-free
    from toughgraph import synth

    g, cert = synthesize("9/5")
    monkeypatch.setattr(
        synth, "has_hamilton_path",
        lambda *args, **kwargs: HamiltonResult(None, None, "backtracking", 1),
    )
    synth._kind_lacks_terminal_path.cache_clear()
    try:
        report = check_certificate(g, cert)
    finally:
        synth._kind_lacks_terminal_path.cache_clear()
    assert not report.accepted
    assert report.nonhamiltonicity_status == FAILED
    # the plan's own admissibility counts the path-free blocks
    assert len(report.checks) == 1
    assert "budget" in _check_named(report, "rebuild").detail


def test_zero_denominator_formula_is_a_rejection():
    # m = 0 zeroes the denominator of the 7.2 formula; the forged
    # certificate must be rejected, not crash the verifier, and the
    # formula itself raises PlanError, not ZeroDivisionError
    from toughgraph import PlanError, predicted_toughness

    g, cert = synthesize("13/6")
    bad = dataclasses.replace(cert, plan=dataclasses.replace(cert.plan, m=0))
    report = check_certificate(g, bad)
    assert not report.accepted
    _assert_rebuild_only(report, _NOT_CANONICAL.format("m"))
    with pytest.raises(PlanError, match="divides by zero"):
        predicted_toughness(bad.plan)


def test_limits_downgrade_toughness_tier():
    g, cert = synthesize("6/5")
    report = check_certificate(g, cert, max_oracle_n=10)
    assert report.accepted
    assert report.toughness_status == WITNESS_UPPER_BOUND_ONLY


# -- graph6 input ---------------------------------------------------------------


def _refuse_decode(monkeypatch):
    monkeypatch.setattr(
        graphs, "decode_graph6",
        lambda data: pytest.fail("verifier decoded the graph6 input"),
    )


def _count_decodes(monkeypatch) -> list:
    """The graph6 strings decoded by graphs from here on, each as the
    bytes of its span: every decode there, the comparison's and
    read_graph's, goes through graphs.decode_graph6 with the span."""
    decode = graphs.decode_graph6
    calls = []

    def counted(span):
        _, data, start, end = span
        calls.append(data[start:end])
        return decode(span)

    monkeypatch.setattr(graphs, "decode_graph6", counted)
    return calls


def test_read_graph_decodes_a_graph6_file_once(monkeypatch):
    # read_graph validates a graph6 file to its span and decodes that
    # span through decode_graph6, once
    g, _ = synthesize("6/5")
    data = encode_graph6(g)
    calls = _count_decodes(monkeypatch)
    assert graphs.read_graph(b" >>graph6<<" + data + b"\n", "g.g6") == g
    assert calls == [data]


def test_genuine_graph6_bytes_are_matched_without_a_decode(monkeypatch):
    # the rebuild's encoding equals the input, so the bytes are never
    # decoded; with or without the header the report is the Graph's
    targets = ("2/3", "5/8", "7/10", "1", "7/6", "8/7", "9/7", "5/4", "4/3", "3/2",
               "449/200", "1199/700")
    pairs = [synthesize(target) for target in targets]
    wants = [check_certificate(g, cert).to_json() for g, cert in pairs]
    _refuse_decode(monkeypatch)
    for target, (g, cert), want in zip(targets, pairs, wants):
        data = encode_graph6(g)
        for given in (data, b">>graph6<<" + data + b"\n"):
            report = check_certificate(given, cert)
            assert report.accepted, target
            assert report.to_json() == want, target


class _NoCopyBytes(bytes):
    """Bytes that refuse any slice longer than a graph6 chunk, so that a
    stripped copy of the whole string cannot be taken."""

    def __getitem__(self, key):
        if isinstance(key, slice) and len(range(*key.indices(len(self)))) > _G6_CHUNK:
            pytest.fail(f"verifier copied {key} of the graph6 input")
        return super().__getitem__(key)


def test_graph6_bytes_with_a_header_and_whitespace_are_read_in_place():
    # the library path finds the string's bounds in place, as the CLI
    # does: a genuine and a forged pair get the Graph's report, and no
    # slice of the input is longer than a chunk
    g, cert = synthesize("449/200")
    forged = dataclasses.replace(cert, components=cert.components + 1)
    data = b" >>graph6<<" + encode_graph6(g) + b"\n"
    assert len(data) > 3 * _G6_CHUNK
    for claim in (cert, forged):
        want = check_certificate(g, claim).to_json()
        assert check_certificate(_NoCopyBytes(data), claim).to_json() == want
    assert check_certificate(_NoCopyBytes(data), cert).accepted


def test_forged_fields_after_the_rebuild_are_rejected_without_a_decode(monkeypatch):
    from fractions import Fraction

    g, cert = synthesize("6/5")
    arg = cert.nonhamiltonicity
    forged = [
        dataclasses.replace(cert, components=cert.components + 1),
        dataclasses.replace(cert, predicted_tau=Fraction(7, 5)),
        dataclasses.replace(cert, cutset=cert.cutset - {max(cert.cutset)}),
        dataclasses.replace(cert, nonhamiltonicity=NonHamiltonicityArgument(
            arg.kind, dict(arg.params, required_incidences=3))),
    ]
    g2, cert2 = synthesize("1199/700")
    forged2 = [dataclasses.replace(cert2, components=cert2.components + 1)]
    cases = [(g, bad) for bad in forged] + [(g2, bad) for bad in forged2]
    wants = [check_certificate(graph, bad).to_json() for graph, bad in cases]
    _refuse_decode(monkeypatch)
    for (graph, bad), want in zip(cases, wants):
        report = check_certificate(encode_graph6(graph), bad)
        assert not report.accepted
        assert report.to_json() == want


def test_a_rebuild_that_fails_before_building_decodes_nothing(monkeypatch):
    from toughgraph import BlockKind

    g, cert = synthesize("9/5")
    kinds = ((BlockKind.L1, 6), (BlockKind.L2, 1))
    small, small_cert = synthesize("2/3")
    cases = [
        (g, dataclasses.replace(cert, plan=dataclasses.replace(cert.plan, l=4))),
        (g, dataclasses.replace(cert, plan=dataclasses.replace(cert.plan, block_kinds=kinds))),
        # a canonical plan whose order differs from the graph's
        (small, cert),
        (g, small_cert),
    ]
    wants = [check_certificate(graph, bad).to_json() for graph, bad in cases]
    calls = _count_decodes(monkeypatch)
    for (graph, bad), want in zip(cases, wants):
        calls.clear()
        data = encode_graph6(graph)
        report = check_certificate(data, bad)
        assert not report.accepted
        assert report.to_json() == want
        assert len(report.checks) == 1
        assert calls == []


def test_a_noncanonical_size_field_falls_back_to_a_decode(monkeypatch):
    g, cert = synthesize("2/3")
    assert encode_graph6(g) == b"D]o"
    want = check_certificate(g, cert).to_json()
    calls = _count_decodes(monkeypatch)
    report = check_certificate(b"~??D]o", cert)
    assert report.accepted
    assert report.to_json() == want
    assert calls == [b"~??D]o"]


def test_one_flipped_edge_bit_is_rejected_after_a_decode(monkeypatch):
    # 6/5's graph without the edge (0, 2): one bit of the body differs and
    # the padding is untouched; the rebuild decodes the bytes to name the
    # graph they hold, and nothing runs after it
    weaker, cert, detail = _minus_edge("6/5", (0, 2))
    data, flipped = encode_graph6(synthesize("6/5")[0]), encode_graph6(weaker)
    assert len(data) == len(flipped)
    assert sum(a != b for a, b in zip(data, flipped)) == 1
    _refuse_checks(monkeypatch)
    want = check_certificate(weaker, cert).to_json()
    calls = _count_decodes(monkeypatch)
    report = check_certificate(flipped, cert)
    assert calls == [flipped]
    assert report.to_json() == want
    _assert_rebuild_only(report, detail)


def test_a_tampered_graph6_input_is_validated_once(monkeypatch, tmp_path, capsys):
    # the span validated first is the one compared and decoded, through
    # the API and through the command line's reader alike
    from toughgraph import certificate_to_json
    from toughgraph.cli import main

    weaker, cert, detail = _minus_edge("6/5", (0, 2))
    flipped = encode_graph6(weaker)
    gpath, cpath = tmp_path / "g.g6", tmp_path / "c.json"
    gpath.write_bytes(flipped + b"\n")
    cpath.write_text(certificate_to_json(cert))
    validate = graphs._graph6_span
    calls = []

    def counted(data, start, end):
        calls.append(data[start:end])
        return validate(data, start, end)

    monkeypatch.setattr(graphs, "_graph6_span", counted)
    _assert_rebuild_only(check_certificate(flipped, cert), detail)
    assert calls == [flipped]
    calls.clear()
    assert main(["verify", str(gpath), str(cpath)]) == 1
    assert detail in capsys.readouterr().out
    assert calls == [flipped]


def _flip(data: bytes, at: int) -> bytes:
    """data with the top bit of byte at's 6-bit group flipped: a matrix
    bit in every body byte, never padding."""
    return data[:at] + bytes([((data[at] - 63) ^ 32) + 63]) + data[at + 1 :]


@pytest.mark.parametrize("chunk", [3, None])
def test_the_piecewise_comparison_agrees_with_whole_bytes_equality(monkeypatch, chunk):
    # 449/200's body spans 9 pieces of the real chunk: one flipped bit in
    # the first, a middle and the last piece, and on either side of a
    # piece boundary, is a different graph, rejected after one decode
    # with the decoded Graph's report; a body one byte short or long
    # fails validation; the header is stripped before the comparison
    from toughgraph import GraphFormatError, decode_graph6

    if chunk:
        monkeypatch.setattr(graphs, "_G6_CHUNK", chunk)
    piece = graphs._G6_CHUNK // 3 * 4
    g, cert = synthesize("449/200")
    data = encode_graph6(g)
    body = len(data) - (g.n * (g.n - 1) // 2 + 5) // 6
    assert (len(data) - body) // piece >= 8
    flips = [_flip(data, at) for at in (
        body, body + piece - 1, body + piece, body + 4 * piece + 7, len(data) - 1
    )]
    short, long = data[:-1], data + b"?"
    for given in (data, b">>graph6<<" + data):
        assert graphs._differs(graphs._graph6_in_place(given), g) is None
    for flipped in flips:
        assert graphs._differs(graphs._graph6_in_place(flipped), g) == decode_graph6(flipped)
    for given in (short, long):
        with pytest.raises(GraphFormatError):
            graphs._graph6_in_place(given)
    want = check_certificate(g, cert).to_json()
    rejects = [check_certificate(decode_graph6(f), cert).to_json() for f in flips]
    calls = _count_decodes(monkeypatch)
    for given in (data, b">>graph6<<" + data + b"\n"):
        assert check_certificate(given, cert).to_json() == want
    assert calls == []
    for flipped, reject in zip(flips, rejects):
        calls.clear()
        assert check_certificate(flipped, cert).to_json() == reject
        assert calls == [flipped]
    for given, message in ((short, "truncated graph6 body"), (long, "trailing bytes")):
        with pytest.raises(GraphFormatError, match=message):
            check_certificate(given, cert)


def test_malformed_graph6_bytes_raise_before_any_check():
    from toughgraph import GraphFormatError

    _, cert = synthesize("2/3")
    with pytest.raises(GraphFormatError, match="nonzero padding bits"):
        check_certificate(b"D]p", cert)


# -- closed-form family recheck -------------------------------------------------


def test_family_formulas_verify():
    assert verify_claim_formula("l2_chain", 2, m=1)
    assert verify_claim_formula("l2_chain", 3, m=1)
    assert verify_claim_formula("l2_chain_l3", 2, m=1)
    assert verify_claim_formula("l2_chain_l3", 3, m=1)
    assert verify_claim_formula("mixed", 2, m1=1, m2=1)
    assert verify_claim_formula("mixed", 2, m1=1, m2=0)
    assert verify_claim_formula("l1_chain_l4", 2, m=1)
    assert verify_claim_formula("l1_chain_l4", 2, m=2)


def _family_instances(top):
    """(family, counts, regime, order) for every l and count <= top
    that meet the family's formula's hypothesis."""
    from toughgraph import block, synth

    for family, regime in synth._REGIME_BY_FAMILY.items():
        for l in range(2, top + 1):
            names = sorted(regime.floors(l))
            for values in itertools.product(range(top + 1), repeat=len(names)):
                counts = synth._Counts(l, **dict(zip(names, values)))
                if regime.hypothesis_gap(counts) is None:
                    kinds = regime.kinds(counts)
                    n = l + sum(block(k).n * c for k, c in kinds)
                    yield family, counts, regime, n


def test_family_formulas_agree_with_the_exact_oracle():
    # toughness_exact on the built composition stays the reference
    from toughgraph import block, g_construct, synth, toughness_exact

    checked = 0
    for family, c, regime, n in _family_instances(20):
        if n > 20:
            continue
        g = g_construct(c.l, [block(k) for k in synth._expand(regime.kinds(c))])
        expect = toughness_exact(g).value == regime.formula(c)
        assert verify_claim_formula(family, *c) == expect, (family, c)
        checked += 1
    assert checked > 20


def test_family_formulas_hold_on_a_grid():
    instances = list(_family_instances(15))
    assert len(instances) > 4000
    for family, c, _, _ in instances:
        assert verify_claim_formula(family, *c), (family, c)


def test_family_hypothesis_violations():
    with pytest.raises(ValueError):
        verify_claim_formula("l2_chain", 1, m=1)
    with pytest.raises(ValueError):
        verify_claim_formula("l2_chain", 2, m=0)
    with pytest.raises(ValueError):
        verify_claim_formula("l2_chain", 2)  # m missing
    with pytest.raises(ValueError):
        verify_claim_formula("mixed", 5, m1=1, m2=1)  # m2 < l - 2
    with pytest.raises(ValueError):
        verify_claim_formula("mixed_l3", 2, m1=1, m2=0)
    with pytest.raises(ValueError):
        verify_claim_formula("no_such_family", 2, m=1)


def test_family_formula_past_the_oracle_limit():
    # two 8-vertex blocks plus the 9-vertex one: n = 27 > the oracle's
    # limit, decided on the layout without building the graph
    assert verify_claim_formula("mixed_l3", 2, m1=2, m2=1)
