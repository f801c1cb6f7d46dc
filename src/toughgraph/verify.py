"""Certificate verification against the graph it claims to describe.

check_certificate answers one question: is this (graph, certificate)
pair sound?  The graph is a Graph, its graph6 bytes, or their
validated span, as the command line reads a graph6 file.  A certificate
is a function of its target t, so the verifier first derives the
canonical certificate from plan(t) alone (plan_certificate) and
compares the two as JSON values before any graph is built; only then
does it build the plan's graph and ask graphs whether the input is
that graph.  graph6 input stays a validated span of its bytes, which
graphs compares with the rebuild's encoding in place and decodes only
when the two differ.  That rebuild is a gate: a pair that fails it is
rejected on that one check, and nothing is counted or searched on a
graph that is not its plan's.  On the rebuilt graph it then
re-verifies the witness cutset by counting components (cutset_witness,
the verifier's only count, polynomial, runs at any size), re-derives the
nonhamiltonicity argument, and, whenever the graph is small enough,
proves the predicted toughness exact: the witness gives toughness
<= t, and one exact decision that no cutset has ratio below t gives
toughness >= t.  For a plan of cases 3 or 5.1-7.2 the decision is
decomposition_below on the plan's layout, K_l joined onto gadgets: a
min-plus product over the gadgets' states, in milliseconds at any
scale; every plan without a layout gets toughness_below's cutset
search: cases 1 and 2, and case 4 (n = 30) under a max_oracle_n of at
least 30.  Larger instances are honestly downgraded to
WITNESS_UPPER_BOUND_ONLY: the cutset certifies toughness <= t, and the
matching lower bound rests on the structural argument rather than
enumeration.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .graphs import Graph, _bipartition, _differs, _graph6_in_place, _read_graph
from .oracles import (
    DEFAULT_ALPHA_LIMIT,
    DEFAULT_TOUGHNESS_LIMIT,
    cutset_witness,
    decomposition_below,
    independence_number,
    is_hamiltonian,
    toughness_below,
)
from .synth import (
    NONHAM_BIPARTITE,
    NONHAM_BLOCK_COUNT,
    NONHAM_EDGE_COUNT,
    NONHAM_EXHAUSTIVE,
    Certificate,
    PlanError,
    argument_holds,
    certificate_payload,
    certificate_target,
    plan,
    plan_certificate,
    plan_graph,
    plan_layout,
    plan_order,
)

__all__ = [
    "CheckOutcome",
    "VerificationReport",
    "check_certificate",
    "ORACLE_EXACT",
    "WITNESS_UPPER_BOUND_ONLY",
    "ORACLE_EXHAUSTIVE",
    "STRUCTURAL",
    "FAILED",
]

ORACLE_EXACT = "ORACLE_EXACT"
WITNESS_UPPER_BOUND_ONLY = "WITNESS_UPPER_BOUND_ONLY"
ORACLE_EXHAUSTIVE = "ORACLE_EXHAUSTIVE"
STRUCTURAL = "STRUCTURAL"
FAILED = "FAILED"


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass
class VerificationReport:
    accepted: bool
    toughness_status: str
    nonhamiltonicity_status: str
    alpha: Optional[int]
    checks: list[CheckOutcome] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "accepted": self.accepted,
            "toughness_status": self.toughness_status,
            "nonhamiltonicity_status": self.nonhamiltonicity_status,
            "alpha": self.alpha,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# a counting argument's details: it fails, it holds
_COUNTING_DETAILS = {
    NONHAM_EDGE_COUNT: (
        "counting argument fails: needs {required_incidences} > {available_incidences}",
        "cycle needs {required_incidences} incidences at the independent layer, "
        "only {available_incidences} exist",
    ),
    NONHAM_BLOCK_COUNT: (
        "only {path_free_blocks} path-free blocks, need {required}",
        "{path_free_blocks} blocks admit no spanning terminal path >= {required} = 2l+1",
    ),
}

def _encoded(payload: dict, key: str) -> Optional[str]:
    """A key's JSON value by its canonical encoding, None when the key is
    missing: so true is not 1, 1.0 is not 1, and a missing key is not
    null.  A value JSON cannot encode (nested too deep, or of no JSON
    type) is "", which no canonical value encodes to."""
    if key not in payload:
        return None
    try:
        return json.dumps(payload[key], sort_keys=True)
    except (RecursionError, TypeError):
        return ""


def _read_in_place(data: bytes, source: str) -> Graph | tuple[int, bytes, int, int]:
    """A graph file's bytes read as graphs.read_graph reads them, save
    that a graph6 file stays its validated span (n, data, start, end),
    which check_certificate takes as it is."""
    return _read_graph(data, source)


def check_certificate(
    g: Graph | bytes | str | tuple[int, bytes, int, int],
    cert: Certificate | dict,
    max_oracle_n: int = DEFAULT_TOUGHNESS_LIMIT,
) -> VerificationReport:
    """Verify a certificate against a graph; every failure mode is a
    rejection with its own check entry, never an exception.

    The certificate is a Certificate or the JSON object that
    certificate_from_json returns; only its "t" is read before the
    rebuild.  A dict goes through certificate_target, as the text does
    in certificate_from_json, so one without string keys and a rational
    "t" fails the rebuild check.  The rebuild check comes first and
    gates the rest: plan(t) must build a graph of the given order, the
    certificate must equal plan_certificate's key for key as JSON values
    (a Certificate is taken as certificate_payload's object), which is
    decided before any graph is built, and then the plan's graph must
    equal the given one.  The witness check that follows is the only component count.
    A pair that fails it gets a report holding only that check,
    rejected with both statuses FAILED and alpha None, whose detail
    names the mismatch.  Every later check runs on the rebuilt graph
    and certificate.

    The graph may also be given as graph6 bytes or str, which are
    validated once, first (a malformed string raises GraphFormatError,
    as decode_graph6 does), or as the span that validation leaves,
    (n, data, start, end): a validated graph6 string of order n in
    data[start:end], as _read_in_place returns a graph6 file.  The
    rebuild check then compares the rebuilt graph's graph6 encoding with
    those bytes in place, and decodes them only when they differ, to
    report the graph they hold; the report is the one the decoded Graph
    would get.  max_oracle_n is the largest n whose toughness is decided
    exactly."""
    if not isinstance(g, (Graph, tuple)):
        g = _graph6_in_place(g)
    checks: list[CheckOutcome] = []
    n = g.n if isinstance(g, Graph) else g[0]

    def run(name: str, fn: Callable[[], tuple[bool, str]]) -> bool:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except (PlanError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(CheckOutcome(name, ok, detail, time.perf_counter() - t0))
        return ok

    # derive the reference certificate from the plan, then build its graph
    def chk_rebuild() -> tuple[bool, str]:
        nonlocal g, cert
        # planning is deterministic and the certificate is a function of
        # the plan, so a sound certificate is exactly what its own target
        # regenerates; any drift in any field is tampering
        given_cert = isinstance(cert, Certificate)
        fresh = plan(cert.plan.t if given_cert else certificate_target(cert))
        # compare orders before anything else, so a small graph cannot
        # make the verifier realize a huge plan
        order = plan_order(fresh)
        if order != n:
            return False, f"plan builds n={order} vertices but the graph has n={n}"
        # the certificates are compared before any graph is built
        cert2 = plan_certificate(fresh)
        claimed = certificate_payload(cert) if given_cert else cert
        canonical = certificate_payload(cert2)
        keys = sorted(claimed.keys() | canonical.keys())
        forged = [k for k in keys if _encoded(claimed, k) != _encoded(canonical, k)]
        if forged:
            return False, (
                f"certificate is not the canonical output of its plan: "
                f"{', '.join(forged)} differ"
            )
        g2 = plan_graph(fresh)
        given = _differs(g, g2)
        if given is not None:
            return False, (
                f"plan rebuilds to a different graph "
                f"(n={g2.n}, m={g2.edge_count} vs n={given.n}, m={given.edge_count})"
            )
        g, cert = g2, cert2
        return True, f"plan reproduces the graph: n={g2.n}, m={g2.edge_count}"

    if not run("rebuild", chk_rebuild):
        return VerificationReport(False, FAILED, FAILED, None, checks)

    def chk_witness() -> tuple[bool, str]:
        w = cutset_witness(g, cert.cutset)
        omega = w.component_count
        # the canonical count is |S| / predicted_tau, so a matching count
        # gives the predicted ratio
        if omega != cert.components:
            return False, (
                f"component count mismatch: certificate says {cert.components}, "
                f"recount gives {omega}"
            )
        return True, f"cutset of {len(w.cutset)} leaves {omega} components; ratio {w.ratio}"

    witness_ok = run("witness", chk_witness)

    alpha_box: dict = {}

    def chk_nonham() -> tuple[bool, str]:
        # the rebuild matched the argument to the plan's
        arg = cert.nonhamiltonicity
        if arg.kind == NONHAM_BIPARTITE:
            sides = _bipartition(g)
            if sides is None:
                return False, "graph is not bipartite"
            big = max(sides, key=lambda m: m.bit_count())
            size = big.bit_count()
            if size != arg.params.get("independent_side"):
                return False, (
                    f"independent side has {size} vertices, certificate "
                    f"says {arg.params.get('independent_side')}"
                )
            if 2 * size <= g.n:
                return False, f"independent side {size} does not exceed n/2 = {g.n}/2"
            if g.n <= DEFAULT_ALPHA_LIMIT:
                alpha = independence_number(g)
                alpha_box["alpha"] = alpha
                if alpha != size:
                    return False, f"independence oracle gives {alpha}, expected {size}"
            return True, (
                f"independent side of {size} vertices exceeds n/2; any cycle "
                f"would need {2 * size} > n edge slots"
            )
        if arg.kind in _COUNTING_DETAILS:
            fails, holds = _COUNTING_DETAILS[arg.kind]
            if not argument_holds(arg.kind, cert.plan):
                return False, fails.format(**arg.params)
            return True, holds.format(**arg.params)
        # NONHAM_EXHAUSTIVE: the regimes certify only small graphs this way
        r = is_hamiltonian(g)
        if r.verdict is None:
            return False, (
                f"exhaustive search exhausted its budget after {r.nodes} nodes"
            )
        if r.verdict:
            return False, "graph is hamiltonian; certificate is wrong"
        return True, f"no Hamilton cycle ({r.method}, {r.nodes} nodes)"

    nonham_ok = run("nonhamiltonicity", chk_nonham)
    structural = cert.nonhamiltonicity.kind != NONHAM_EXHAUSTIVE
    if nonham_ok:
        nonham_status = STRUCTURAL if structural else ORACLE_EXHAUSTIVE
    else:
        nonham_status = FAILED

    oracle = g.n <= max_oracle_n

    def chk_tau() -> tuple[bool, str]:
        # the witness proves toughness <= t, so one decision that no
        # cutset has ratio below t proves equality
        if not oracle:
            return True, (
                f"n={g.n} exceeds the oracle limit {max_oracle_n}; the "
                "witness certifies toughness <= predicted only"
            )
        t = cert.predicted_tau
        layout = plan_layout(cert.plan)
        if layout is None:
            below = toughness_below(g, t, max_n=max_oracle_n) is not None
        else:
            least = decomposition_below(*layout, t)
            below = least is not None and least < 0
        if below:
            return False, f"a cutset has ratio below the predicted {t}"
        return True, f"exact toughness equals {t}"

    tau_ok = run("toughness-oracle" if oracle else "toughness-witness-only", chk_tau)
    if not (witness_ok and tau_ok):
        tau_status = FAILED
    else:
        tau_status = ORACLE_EXACT if oracle else WITNESS_UPPER_BOUND_ONLY

    accepted = all(c.ok for c in checks)
    return VerificationReport(
        accepted=accepted,
        toughness_status=tau_status,
        nonhamiltonicity_status=nonham_status,
        alpha=alpha_box.get("alpha"),
        checks=checks,
    )
