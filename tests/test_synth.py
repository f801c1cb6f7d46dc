"""Synthesizer: planning, construction, certificates, serialization."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from naive import naive_block_count_params, naive_edge_count_params
from toughgraph import (
    Certificate,
    CertificateError,
    PlanError,
    build,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    components,
    cutset_witness,
    decode_graph6,
    encode_graph6,
    parse_rational,
    plan,
    plan_certificate,
    plan_order,
    predicted_toughness,
    synthesize,
)

# target -> (case, q, l, m, m1, m2, n, cutset size, component count,
#            block kinds, nonhamiltonicity kind); all derived once from
# the closed formulas and pinned here against regressions
PLAN_TABLE = {
    "2/3": ("1", 1, 0, 0, None, None, 5, 2, 3, (), "bipartite_imbalance"),
    "1": ("2", 1, 0, 0, None, None, 7, 2, 2, (), "exhaustive"),
    "6/5": ("3", 1, 0, 0, None, None, 12, 6, 5, (), "edge_count"),
    "4/3": ("3", 3, 0, 0, None, None, 22, 12, 9, (), "edge_count"),
    "3/2": ("4", 1, 0, 0, None, None, 30, 15, 10, (), "exhaustive"),
    "5/3": ("5.1", 9, 6, 13, None, None, 97, 45, 27, ("L2",) * 13, "block_count"),
    "13/8": ("5.2", 3, 5, 11, None, None, 84, 39, 24, ("L2",) * 10 + ("L3",), "block_count"),
    "7/4": ("6.2", 1, 3, 7, 6, 1, 60, 7, 4, ("L1",) * 6 + ("L3",), "block_count"),
    "9/5": ("6.1", 1, 3, 7, 5, 2, 57, 9, 5, ("L1",) * 5 + ("L2",) * 2, "block_count"),
    "2": ("6.1", 1, 2, 5, 5, 0, 42, 22, 11, ("L1",) * 5, "block_count"),
    "11/5": ("7.1", 11, 13, 27, None, None, 229, 121, 55, ("L1",) * 27, "block_count"),
    "13/6": ("7.2", 6, 8, 18, None, None, 149, 78, 36, ("L1",) * 17 + ("L4",), "block_count"),
}


# -- parsing -----------------------------------------------------------------


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("2") == 2
    assert parse_rational(" 10/6 ") == Fraction(5, 3)
    for bad in ("", "x", "1/0", "-1/2", "1.5", "3 / 4"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_plan_accepts_fractions_and_strings():
    assert plan(Fraction(5, 3)) == plan("5/3")
    assert plan(2) == plan("2")
    with pytest.raises(TypeError):
        plan(1.5)
    with pytest.raises(TypeError):
        plan(True)


def test_plan_range_errors():
    for bad in ("0", "9/4", "7/3", "100"):
        with pytest.raises(ValueError, match="0 < t < 9/4"):
            plan(bad)


# -- planning ----------------------------------------------------------------


def test_plan_table_frozen():
    for target, row in PLAN_TABLE.items():
        case, q, l, m, m1, m2, n, cut, comps, kinds, nonham = row
        p = plan(target)
        assert p.case_id == case, target
        assert p.q == q, target
        assert (p.l, p.m, p.m1, p.m2) == (l, m, m1, m2), target
        runs = p.block_kinds
        assert all(count > 0 for _, count in runs), target
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:])), target
        assert tuple(k.value for k, count in runs for _ in range(count)) == kinds, target
        assert plan_order(p) == n, target
        t = parse_rational(target)
        assert p.t == t
        assert Fraction(p.a_scaled, p.b_scaled) == t
        assert predicted_toughness(p) == t


def test_build_matches_plan_table():
    for target, row in PLAN_TABLE.items():
        case, q, l, m, m1, m2, n, cut, comps, kinds, nonham = row
        g, cert = synthesize(target)
        assert g.n == n, target
        assert len(cert.cutset) == cut, target
        assert cert.components == comps, target
        assert cert.nonhamiltonicity.kind == nonham, target
        assert cert.predicted_tau == parse_rational(target)


def test_witness_ratio_identity():
    # the certificate cutset must achieve the target exactly
    for target in PLAN_TABLE:
        g, cert = synthesize(target)
        parts = components(g, cert.cutset)
        assert len(parts) == cert.components
        assert Fraction(len(cert.cutset), len(parts)) == parse_rational(target)


def test_scaling_invariance():
    assert plan("10/6") == plan("5/3")
    assert plan(Fraction(26, 12)) == plan("13/6")
    assert plan("4/2") == plan("2")


def test_q_is_minimal():
    # for the scaled regimes, no smaller admissible q may satisfy the
    # side conditions; spot-check by refusing q' < q through the build
    p = plan("5/3")
    assert p.q == 9
    assert plan("4/3").q == 3
    assert plan("11/5").q == 11
    assert plan("13/6").q == 6
    # q steps by 2 where the scaled denominator must stay odd
    assert plan("5/3").b_scaled % 2 == 1
    assert plan("11/5").b_scaled % 2 == 1


def test_plan_cost_does_not_grow_with_the_block_count():
    # case 5.2 with 1.5M blocks: a plan holds runs, not one entry per block
    tracemalloc.start()
    try:
        p = plan("1749999/1000000")
        order = plan_order(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order > 11_000_000
    assert sum(count for _, count in p.block_kinds) == p.m
    assert peak < 1_000_000


def test_build_refuses_a_noncanonical_plan():
    # q = 11 is admissible for 5/3 but not minimal; only plan(t) builds
    from toughgraph import synth

    regime = synth._REGIMES["5.1"]
    p11 = regime.at_scale(Fraction(5, 3), 11)
    assert regime.admissible(p11) and predicted_toughness(p11) == Fraction(5, 3)
    assert p11 != plan("5/3")
    with pytest.raises(PlanError, match="not the canonical plan"):
        build(p11)


def test_argument_params_match_the_hand_written_formulas():
    # every plan of cases 3 and 5.1-7.2 with denominator <= 40: the one
    # derivation gives the paper's parameters, and they prove the argument
    from toughgraph.synth import (
        NONHAM_BLOCK_COUNT,
        NONHAM_EDGE_COUNT,
        argument_holds,
        argument_params,
    )

    seen = set()
    for b in range(2, 41):
        for a in range(b + 1, 9 * b // 4 + 1):
            t = Fraction(a, b)
            if gcd(a, b) != 1 or not t < Fraction(9, 4) or t == Fraction(3, 2):
                continue
            p = plan(t)
            if p.case_id == "3":
                kind = NONHAM_EDGE_COUNT
                want = naive_edge_count_params(p.a_scaled, p.b_scaled)
            else:
                kind = NONHAM_BLOCK_COUNT
                want = naive_block_count_params(p.l, p.block_kinds)
            assert argument_params(kind, p) == want, t
            assert argument_holds(kind, p), t
            seen.add(p.case_id)
    assert seen == {"3", "5.1", "5.2", "6.1", "6.2", "7.1", "7.2"}


def test_case_boundaries():
    assert plan("149/100").case_id == "3"
    assert plan("151/100").case_id in ("5.1", "5.2")
    assert plan("3/2").case_id == "4"
    assert plan("174/100").case_id in ("5.1", "5.2")  # 87/50 < 7/4
    assert plan("7/4").case_id == "6.2"
    assert plan("2").case_id == "6.1"
    assert plan("201/100").case_id in ("7.1", "7.2")
    assert plan("224/100").case_id in ("7.1", "7.2")


def test_plan_random_sweep_formula_identity():
    rng = random.Random(60601)
    seen = set()
    for trial in range(400):
        b = rng.randrange(1, 120)
        a = rng.randrange(1, 3 * b)
        t = Fraction(a, b)
        if not t < Fraction(9, 4) or t in seen:
            continue
        seen.add(t)
        p = plan(t)
        assert predicted_toughness(p) == t
        assert Fraction(p.a_scaled, p.b_scaled) == t
        assert p.q >= 1
    assert len(seen) >= 150


# case -> sha256 over graph6 and certificate JSON of every reduced target
# a/b in (0, 9/4) with b <= 20 in that case, in increasing order of t;
# recorded from the per-case implementation the regime table replaced
GOLDEN_DIGESTS = {
    "1": "820c1a9c1751ebec5d6b1c50171772f211b32ad49c3859f333e56d07db333bf8",
    "2": "4d1552db72c0a1f35d6bdd0ffd3dd7dd46a0c5b987ef7dd08c83c9b7d5e16e1f",
    "3": "036d3c04a0a51dc29770906b1e6d1c5411ca4d2160ff99db5d0bceac1b818bcf",
    "4": "aa9184e2b1ad82b6f9263109a7178893ec9d6bcf2962c65fbbc8c98acaf4fd77",
    "5.1": "7cdba27aebb9b2ded1137be234422e3c10aa6788f67054428496c2f624b85c70",
    "5.2": "74ce5f6c56ae65b89d2b4ee5d9fcb1b342ec8d84a050a7c18589b504f66f3dee",
    "6.1": "e25eb554374575e5dd0194f6edf02048858ddeb5e73229d6de3d7b901163dce6",
    "6.2": "955f74d89048f9e6ab054f122f5754e0657e360f579fb706510cea0c1a87e78b",
    "7.1": "715a2f8b74430b5e0463e744927db094b064bd32e0cc40ba826129095b4c1b33",
    "7.2": "531f030a1572d490b5ba93c2fdd0057b4714afa82e6e5e46075fc364162d2d44",
}


def test_synthesis_bytes_golden():
    targets = sorted(
        Fraction(a, b)
        for b in range(1, 21)
        for a in range(1, 3 * b)
        if gcd(a, b) == 1 and Fraction(a, b) < Fraction(9, 4)
    )
    assert len(targets) == 286
    digests = {}
    for t in targets:
        g, cert = synthesize(t)
        h = digests.setdefault(cert.plan.case_id, hashlib.sha256())
        h.update(encode_graph6(g))
        h.update(certificate_to_json(cert).encode())
    assert {case: h.hexdigest() for case, h in digests.items()} == GOLDEN_DIGESTS


def test_the_plan_alone_gives_the_built_certificate():
    # plan_certificate's component count is |S| / t, with no graph; build
    # counts the cutset's components on the graph and must agree, given
    # the plan or the target alike
    targets = {
        Fraction(a, b)
        for b in range(1, 31)
        for a in range(1, 3 * b)
        if Fraction(a, b) < Fraction(9, 4)
    }
    targets |= {Fraction(449, 200), Fraction(1199, 700), Fraction(1301, 701),
                Fraction(1999, 2000)}
    assert len(targets) == 628
    for t in targets:
        p = plan(t)
        g, cert = build(p)
        assert certificate_to_json(plan_certificate(p)) == certificate_to_json(cert), t
        g2, cert2 = build(t)
        assert g2 == g and certificate_to_json(cert2) == certificate_to_json(cert), t


# -- certificates -------------------------------------------------------------


def test_large_block_graph_roundtrips_through_graph6():
    # case 6.1 at n=3925 with 1.46M edges: construction and graph6 at
    # the sizes where the block regimes live
    g, cert = synthesize("1301/701")
    assert (g.n, g.edge_count) == (3925, 1_464_400)
    back = decode_graph6(encode_graph6(g))
    assert back == g
    assert back.edge_count == g.edge_count
    witness = cutset_witness(back, cert.cutset)
    assert witness.component_count == cert.components
    assert witness.ratio == cert.predicted_tau == Fraction(1301, 701)


def _reordered(value):
    """The JSON value with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    return value


def test_certificate_json_roundtrip():
    # the parser returns the JSON object; the verifier accepts it with the
    # report the Certificate gets, also re-dumped compactly with its keys
    # in another order
    for target in ("2/3", "1", "6/5", "3/2", "9/5", "13/6"):
        g, cert = synthesize(target)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == json.loads(text)
        want = check_certificate(g, cert)
        assert want.accepted, target
        assert check_certificate(g, back).to_json() == want.to_json(), target
        compact = json.dumps(_reordered(back), separators=(",", ":"))
        assert compact != text and json.loads(compact) == back
        report = check_certificate(g, certificate_from_json(compact))
        assert report.to_json() == want.to_json(), target


def test_certificate_json_shape():
    _, cert = synthesize("6/5")
    payload = json.loads(certificate_to_json(cert))
    assert set(payload) == {
        "t", "case", "q", "a_scaled", "b_scaled", "l", "m", "m1", "m2",
        "blocks", "nonhamiltonicity", "cutset", "components",
        "predicted_tau", "notes",
    }
    assert payload["t"] == "6/5"
    assert payload["predicted_tau"] == "6/5"
    assert payload["case"] == "3"
    assert payload["cutset"] == sorted(payload["cutset"])
    text = certificate_to_json(cert)
    assert text.endswith("\n")
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


_DROP = object()


def _corrupt(good: dict, **changes) -> str:
    bad = dict(good, **changes)
    for key, val in changes.items():
        if val is _DROP:
            del bad[key]
    return json.dumps(bad)


def test_certificate_json_rejects_bad_payloads():
    # the parser refuses only text that is not an object with a rational t
    _, cert = synthesize("6/5")
    good = json.loads(certificate_to_json(cert))
    for text in ("not json", "[1, 2]", _corrupt(good, t=_DROP), _corrupt(good, t="3/")):
        with pytest.raises(CertificateError):
            certificate_from_json(text)


def test_a_certificate_object_is_checked_as_its_text_is():
    # certificate_target is certificate_from_json's check of the parsed
    # object: it gives the target, and refuses with the parser's messages
    # an object whose keys are not all strings, which no JSON text parses to
    from toughgraph import certificate_target

    _, cert = synthesize("6/5")
    good = json.loads(certificate_to_json(cert))
    assert certificate_target(good) == Fraction(6, 5)
    shape = 'certificate must be a JSON object with a rational "t"'
    for text, message in (("[1, 2]", shape),
                          (_corrupt(good, t=_DROP), shape),
                          (_corrupt(good, t=5), shape),
                          (_corrupt(good, t="3/"), "rational must look like a/b or a, got '3/'"),
                          (_corrupt(good, t="1/0"), "rational has zero denominator")):
        for check in (certificate_from_json, lambda text: certificate_target(json.loads(text))):
            with pytest.raises(CertificateError) as exc:
                check(text)
            assert str(exc.value) == message, text
    with pytest.raises(CertificateError) as exc:
        certificate_target({**good, 1: 0})
    assert str(exc.value) == shape


def _bad_payloads(good: dict) -> list[tuple[str, dict]]:
    """(key, changes) for payloads that parse but are not the canonical
    certificate, each in the one key named."""
    cut = good["cutset"]
    return [
        ("t", {"t": "12/10"}),
        ("extra", {"extra": 1}),
        ("q", {"q": "1"}),
        ("q", {"q": True}),
        ("q", {"q": 1.0}),
        ("m1", {"m1": _DROP}),
        ("cutset", {"cutset": [0, "1"]}),
        ("cutset", {"cutset": cut[::-1]}),
        ("cutset", {"cutset": cut[:1] + cut}),
        ("case", {"case": "99"}),
        ("blocks", {"blocks": ["L9"]}),
        ("nonhamiltonicity", {"nonhamiltonicity": "edge_count"}),
    ]


def test_the_verifier_rejects_every_parsed_bad_payload():
    # a payload the parser accepts is decided by the rebuild's JSON
    # comparison: a one-check report that names its key; t is canonical
    # only in lowest terms, true and 1.0 are not 1, a missing key is not
    # null, and the cutset list is canonical only sorted and without
    # repeats
    g, cert = synthesize("6/5")
    good = json.loads(certificate_to_json(cert))
    assert good["q"] == 1 and good["m1"] is None and len(good["cutset"]) > 1
    for key, changes in _bad_payloads(good):
        parsed = certificate_from_json(_corrupt(good, **changes))
        report = check_certificate(g, parsed)
        assert not report.accepted, changes
        assert (report.toughness_status, report.nonhamiltonicity_status) == ("FAILED", "FAILED")
        assert [(c.name, c.ok, c.detail) for c in report.checks] == [(
            "rebuild", False,
            f"certificate is not the canonical output of its plan: {key} differ",
        )], changes


def test_verifier_owns_semantics_not_the_parser():
    # semantically wrong payloads must parse fine; the verifier is the
    # component that rejects them
    g, cert = synthesize("6/5")
    payload = json.loads(certificate_to_json(cert))
    payload["components"] = 4
    back = certificate_from_json(json.dumps(payload))
    assert back["components"] == 4
    report = check_certificate(g, back)
    assert not report.accepted
    assert report.checks[0].detail == (
        "certificate is not the canonical output of its plan: components differ"
    )


def test_certificate_parser_is_schema_only(monkeypatch):
    # parsing must not plan, size or build anything from the text
    import toughgraph.synth as synth

    def refuse(*args):
        pytest.fail("certificate_from_json derived something from the plan")

    _, cert = synthesize("9/5")
    text = certificate_to_json(cert)
    for name in ("plan", "plan_order", "build"):
        monkeypatch.setattr(synth, name, refuse)
    assert certificate_from_json(text) == json.loads(text)


def test_predicted_toughness_guards_corrupt_plans():
    import dataclasses

    broken = dataclasses.replace(plan("9/5"), m2=None)
    with pytest.raises(PlanError):
        predicted_toughness(broken)


def test_certificate_notes_mention_regime_boundaries():
    _, cert = synthesize("2")
    assert cert.plan.m2 == 0
    assert any("block" in note for note in cert.plan.notes)
    _, cert74 = synthesize("7/4")
    assert cert74.plan.notes
