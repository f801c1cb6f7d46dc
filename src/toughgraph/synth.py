"""Synthesis of nonhamiltonian graphs with prescribed toughness.

Given a rational t with 0 < t < 9/4 (in lowest terms; inputs are
normalized first), plan() picks one of ten construction regimes keyed on
the size of t and the parity of its denominator, scales t by the
smallest admissible integer q, and derives the block counts, held as
at most three runs (kind, count) so that planning costs the same at any
scale.  The certificate is a function of the plan alone:
plan_certificate(p) reads the toughness witness cutset and a checkable
nonhamiltonicity argument off the regime table, and sets the component
count to |S| / t, all without building a graph.  build() realizes
exactly plan(t) as a concrete graph (plan_graph), pairs it with that
certificate, and checks the count on the graph; it takes t itself,
planned once, or a plan, which must be plan(t).  synthesize(t) is
build(t).  certificate_to_json writes the certificate, and
certificate_from_json checks only that the text is a JSON object with
a rational "t" (certificate_target, which the verifier also applies to
a certificate given as a dict), leaving every other field to the
verifier's comparison with the canonical one.

Each regime is one record of the table _REGIMES, the one place where
its range, scale step, derivation, block kinds, formula and the
formula's hypothesis, witness, argument and builder are written;
planning, certifying, building and verify_claim_formula all read it,
and the verifier reads the counting arguments beside it.  The
regimes, by certificate "case" tag:
  1    0 < t < 1      complete bipartite, more independents than the rest
  2    t = 1          a fixed 7-vertex graph
  3    1 < t < 3/2    matched_layers, nonhamiltonian by edge counting
  4    t = 3/2        the triangle inflation of the Petersen graph
  5.x  3/2 < t < 7/4  clique joined onto chains of L2 (and one L3) blocks
  6.x  7/4 <= t <= 2  mixed L1/L2 (and one L3) block chains
  7.x  2 < t < 9/4    L1 chains, with one L4 block to fix parity
with .1 for odd and .2 for even denominator after reduction.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .blocks import (
    BlockKind,
    block,
    complete_bipartite,
    complete_graph,
    inflate_triangles,
    inflation_cutset,
    layout_graph,
    matched_layers,
    petersen,
    unit_toughness_graph,
)
from .graphs import Graph
from .oracles import (
    GadgetRun,
    SizeLimitError,
    cutset_witness,
    decomposition_below,
    has_hamilton_path,
)

__all__ = [
    "PlanError",
    "CertificateError",
    "SynthesisPlan",
    "NonHamiltonicityArgument",
    "Certificate",
    "parse_rational",
    "plan",
    "build",
    "plan_graph",
    "plan_certificate",
    "synthesize",
    "predicted_toughness",
    "plan_order",
    "plan_layout",
    "argument_params",
    "argument_holds",
    "verify_claim_formula",
    "certificate_payload",
    "certificate_to_json",
    "certificate_from_json",
    "certificate_target",
    "NONHAM_BIPARTITE",
    "NONHAM_EDGE_COUNT",
    "NONHAM_BLOCK_COUNT",
    "NONHAM_EXHAUSTIVE",
]

T_UPPER = Fraction(9, 4)

NONHAM_BIPARTITE = "bipartite_imbalance"
NONHAM_EDGE_COUNT = "edge_count"
NONHAM_BLOCK_COUNT = "block_count"
NONHAM_EXHAUSTIVE = "exhaustive"

_SCALE_CAP = 1_000_000

# a chain of blocks as runs (kind, count)
_Runs = tuple[tuple[BlockKind, int], ...]


class PlanError(RuntimeError):
    """Internal inconsistency in a synthesis plan; sound plans never raise."""


class CertificateError(ValueError):
    """Certificate text that is not a JSON object with a rational "t"."""


@dataclass(frozen=True)
class SynthesisPlan:
    """Everything needed to rebuild a witness graph deterministically."""

    t: Fraction
    case_id: str
    q: int
    a_scaled: int
    b_scaled: int
    l: int
    m: int
    m1: Optional[int]
    m2: Optional[int]
    block_kinds: _Runs  # counts > 0, adjacent runs of different kinds
    notes: tuple[str, ...]


@dataclass(frozen=True)
class NonHamiltonicityArgument:
    """Tagged argument for why the built graph has no Hamilton cycle."""

    kind: str
    params: dict


@dataclass(frozen=True)
class Certificate:
    plan: SynthesisPlan
    nonhamiltonicity: NonHamiltonicityArgument
    cutset: frozenset[int]
    components: int
    predicted_tau: Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' with nonnegative integer a, positive b."""
    match = re.fullmatch(r"(\d+)(?:/(\d+))?", text.strip())
    if not match:
        raise ValueError(f"rational must look like a/b or a, got {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if den == 0:
        raise ValueError("rational has zero denominator")
    return Fraction(num, den)


def _as_fraction(t: Union[Fraction, int, str]) -> Fraction:
    if isinstance(t, bool) or isinstance(t, float):
        raise TypeError("t must be an exact rational (Fraction, int, or 'a/b' string)")
    if isinstance(t, str):
        return parse_rational(t)
    if isinstance(t, (int, Fraction)):
        return Fraction(t)
    raise TypeError(f"cannot interpret {type(t).__name__} as a rational")


class _Counts(NamedTuple):
    """The join clique size l and the block counts of a block regime;
    m1 and m2 count the L1 and L2-like blocks of the mixed regimes."""

    l: int = 0
    m: int = 0
    m1: Optional[int] = None
    m2: Optional[int] = None


# a graph as K_l joined onto runs of gadgets whose terminals form one
# clique: l and the runs, decomposition_below's input
_Layout = tuple[int, tuple[GadgetRun, ...]]


@dataclass(frozen=True)
class _Regime:
    """One regime of the case analysis.

    Rules over counts read only l, m, m1 and m2, so they take a
    SynthesisPlan or a bare _Counts alike.  The block regimes share one
    admissibility rule, witness cutset and layout; their graph is
    layout_graph of that layout and their order its vertex count, so
    what is built, counted and decided is one value.  Regimes 1-4 give
    their own admissibility rule, builder, witness and order, except
    case 3, whose order is its layout's.
    """

    case_id: str
    contains: Callable[[Fraction], bool]  # range test on t
    # the toughness a plan attains; regimes 1 and 3 reach A/B at any scale
    formula: Callable[..., Fraction] = lambda p: Fraction(p.a_scaled, p.b_scaled)
    parity: Optional[int] = None  # reduced denominator mod 2, where split
    nonham: str = NONHAM_BLOCK_COUNT  # the nonhamiltonicity argument's kind
    # regimes 1-4 only
    admits: Optional[Callable[[SynthesisPlan], bool]] = None
    builder: Optional[Callable[[SynthesisPlan], Graph]] = None
    cut: Optional[Callable[[SynthesisPlan], frozenset[int]]] = None  # the witness
    # regimes 1, 2 and 4 only: the vertex count, as they have no layout
    order: Optional[Callable[[SynthesisPlan], int]] = None
    # case 3 only: its layout, the builder's graph numbered gadget by gadget
    gadgets: Optional[Callable[[SynthesisPlan], _Layout]] = None
    # block regimes only: the verify_claim_formula name; l and the counts
    # at scale (A, B); the formula's hypothesis beyond l >= 2, as floors
    # on the counts given l; the block runs; the kinds whose cut cores join
    # the witness cutset
    family: Optional[str] = None
    counts: Callable[[int, int], _Counts] = lambda A, B: _Counts()
    floors: Callable[[int], dict[str, int]] = lambda l: {}
    kinds: Callable[..., _Runs] = lambda c: ()
    witness: Callable[..., set[BlockKind]] = lambda c: set()
    notes: Callable[..., tuple[str, ...]] = lambda c: ()

    @property
    def step(self) -> int:
        """Scale increment; odd scales keep an odd denominator odd."""
        return 2 if self.parity == 1 else 1

    def at_scale(self, t: Fraction, q: int) -> SynthesisPlan:
        A, B = t.numerator * q, t.denominator * q
        c = self.counts(A, B)
        return SynthesisPlan(t, self.case_id, q, A, B, *c, self.kinds(c), self.notes(c))

    def hypothesis_gap(self, c) -> Optional[str]:
        """The formula's hypothesis if the counts c violate it, else None."""
        floors = {"l": 2, **self.floors(c.l)}
        if all(getattr(c, k) is not None and getattr(c, k) >= v
               for k, v in floors.items()):
            return None
        return ", ".join(f"{k} >= {v}" for k, v in floors.items())

    def admissible(self, p: SynthesisPlan) -> bool:
        """Whether the plan's scale meets the regime's side conditions."""
        if self.admits is not None:
            return self.admits(p)
        return (
            p.b_scaled % 2 == self.parity
            and self.hypothesis_gap(p) is None
            and argument_holds(NONHAM_BLOCK_COUNT, p)
        )

    def order_of(self, p: SynthesisPlan) -> int:
        """The vertex count: l plus the layout's gadget orders, if any."""
        if self.order is not None:
            return self.order(p)
        l, runs = self.layout(p)
        return l + sum(h.n * count for h, _, count in runs)

    def layout(self, p: SynthesisPlan) -> Optional[_Layout]:
        """The plan's graph as K_l joined onto gadgets, up to labels, or
        None for a graph of another shape."""
        if self.builder is None:
            return p.l, tuple(block(k).run(c) for k, c in p.block_kinds)
        return self.gadgets(p) if self.gadgets else None

    def graph(self, p: SynthesisPlan) -> Graph:
        """The plan's graph; in a block regime, layout_graph of its layout."""
        if self.builder is not None:
            return self.builder(p)
        return layout_graph(*self.layout(p))

    def cutset(self, p: SynthesisPlan) -> frozenset[int]:
        """The witness cutset; in a block regime the l join vertices and
        the cut cores of the chosen kinds' blocks, at their offsets."""
        if self.cut is not None:
            return self.cut(p)
        chosen = self.witness(p)
        picks = list(range(p.l))
        offset = p.l
        for k, count in p.block_kinds:
            b = block(k)
            if k in chosen:
                picks.extend(offset + i * b.n + v for i in range(count) for v in b.cut_core)
            offset += count * b.n
        return frozenset(picks)


def _runs(*runs: tuple[BlockKind, int]) -> _Runs:
    """The canonical runs: those with a positive count, in order."""
    return tuple((k, count) for k, count in runs if count > 0)


def _expand(runs: _Runs) -> list[BlockKind]:
    """The block sequence the runs encode."""
    return [k for k, count in runs for _ in range(count)]


@functools.lru_cache(maxsize=None)
def _kind_lacks_terminal_path(kind: BlockKind) -> bool:
    """Whether the block has no spanning terminal path, by exhaustive search."""
    b = block(kind)
    r = has_hamilton_path(b.graph, b.x, b.y)
    if r.verdict is None:
        raise SizeLimitError(
            f"terminal-path search on block {kind.value} exhausted its budget "
            f"after {r.nodes} nodes"
        )
    return not r.verdict


def _path_free_needed(l: int) -> int:
    """The path-free blocks the block-count argument needs with l join
    vertices, 2l + 1."""
    return 2 * l + 1


def argument_params(kind: str, p: SynthesisPlan) -> dict[str, int]:
    """The parameters of the plan's nonhamiltonicity argument:
    NONHAM_BIPARTITE (case 1: the independent side), NONHAM_EXHAUSTIVE
    (cases 2 and 4: none), or a counting argument, NONHAM_EDGE_COUNT
    (case 3: incidences a Hamilton cycle needs at the independent layer,
    and those available) or NONHAM_BLOCK_COUNT (cases 5-7: the 2l + 1
    path-free blocks needed, after Bauer, Broersma, Veldman 2000, and
    those present)."""
    if kind == NONHAM_BIPARTITE:
        return {"independent_side": p.b_scaled}
    if kind == NONHAM_EXHAUSTIVE:
        return {}
    if kind == NONHAM_EDGE_COUNT:
        A, B = p.a_scaled, p.b_scaled
        return {"required_incidences": 2 * B, "available_incidences": 2 * (A - B + 1) + B}
    path_free = sum(count for k, count in p.block_kinds if _kind_lacks_terminal_path(k))
    return {"required": _path_free_needed(p.l), "path_free_blocks": path_free}


def argument_holds(kind: str, p: SynthesisPlan) -> bool:
    """Whether the plan's counting argument proves nonhamiltonicity.  The
    block-count argument needs a join vertex: with l = 0 a single
    terminal edge can close a cycle."""
    q = argument_params(kind, p)
    if kind == NONHAM_EDGE_COUNT:
        return q["required_incidences"] > q["available_incidences"]
    return p.l >= 1 and q["path_free_blocks"] >= q["required"]


def _mixed(l: int, m2: int) -> _Counts:
    """Mixed-regime counts: enough L1 blocks, at least one, for the
    block-count argument's path-free blocks in all."""
    m1 = max(1, _path_free_needed(l) - m2)
    return _Counts(l, m1 + m2, m1, m2)


def _layers_cutset(p: SynthesisPlan) -> frozenset[int]:
    """matched_layers(A, B)'s clique and all but one matched end."""
    A, B = p.a_scaled, p.b_scaled
    n1 = A - B + 1
    return frozenset(range(n1)) | frozenset(n1 + B + i for i in range(B - 1))


# the gadget of matched_layers: an edge y-z whose end z, vertex 1, is
# the terminal
_MATCHED_EDGE = complete_graph(2)


_L1, _L2, _L3, _L4 = BlockKind.L1, BlockKind.L2, BlockKind.L3, BlockKind.L4
_MIXED_NOTE = "regime covers 7/4 <= t <= 2 with both endpoints included"
_NO_L2_NOTE = (
    "witness cutset drawn from the chorded-cycle block cores; "
    "no contracted blocks exist at this t"
)

# The builders of regimes 1-4, and _Regime.graph for the block regimes
# (layout_graph), name their constructors as module globals at call
# time, so wrappers installed on this module see the calls.
_REGIMES = {r.case_id: r for r in (
    _Regime("1", lambda t: t < 1, admits=lambda p: p.q == 1,
            order=lambda p: p.a_scaled + p.b_scaled, nonham=NONHAM_BIPARTITE,
            builder=lambda p: complete_bipartite(p.a_scaled, p.b_scaled),
            cut=lambda p: frozenset(range(p.a_scaled))),
    _Regime("2", lambda t: t == 1, formula=lambda p: Fraction(1),
            admits=lambda p: p.q == 1, order=lambda p: 7, nonham=NONHAM_EXHAUSTIVE,
            builder=lambda p: unit_toughness_graph(), cut=lambda p: frozenset({0, 3})),
    _Regime("3", lambda t: 1 < t < Fraction(3, 2),
            # the count fails for b_scaled = 1, where matched_layers is undefined
            admits=lambda p: argument_holds(NONHAM_EDGE_COUNT, p),
            nonham=NONHAM_EDGE_COUNT,
            builder=lambda p: matched_layers(p.a_scaled, p.b_scaled), cut=_layers_cutset,
            # matched_layers(A, B) is K_{A-B+1} joined onto B such edges
            gadgets=lambda p: (p.a_scaled - p.b_scaled + 1,
                               ((_MATCHED_EDGE, 0b10, p.b_scaled),))),
    _Regime("4", lambda t: t == Fraction(3, 2), formula=lambda p: Fraction(3, 2),
            admits=lambda p: p.q == 1, order=lambda p: 30, nonham=NONHAM_EXHAUSTIVE,
            builder=lambda p: inflate_triangles(petersen()),
            cut=lambda p: inflation_cutset(petersen())),
    _Regime("5.1", lambda t: Fraction(3, 2) < t < Fraction(7, 4), parity=1,
            family="l2_chain",
            counts=lambda A, B: _Counts(A - 3 * (B - 1) // 2, (B - 1) // 2),
            floors=lambda l: {"m": 1}, kinds=lambda c: _runs((_L2, c.m)),
            formula=lambda c: Fraction(c.l + 3 * c.m, 1 + 2 * c.m),
            witness=lambda c: {_L2}),
    _Regime("5.2", lambda t: Fraction(3, 2) < t < Fraction(7, 4), parity=0,
            family="l2_chain_l3",
            counts=lambda A, B: _Counts(A - 3 * B // 2 + 2, B // 2 - 1),
            floors=lambda l: {"m": 1}, kinds=lambda c: _runs((_L2, c.m - 1), (_L3, 1)),
            formula=lambda c: Fraction(c.l + 3 * c.m + 1, 2 * (c.m + 1)),
            witness=lambda c: {_L2, _L3}),
    _Regime("6.1", lambda t: Fraction(7, 4) <= t <= 2, parity=1, family="mixed",
            counts=lambda A, B: _mixed(A - 3 * (B - 1) // 2, (B - 1) // 2),
            floors=lambda l: {"m1": 1, "m2": max(0, l - 2)},
            kinds=lambda c: _runs((_L1, c.m1), (_L2, c.m2)),
            formula=lambda c: Fraction(c.l + 3 * c.m2, 2 * c.m2 + 1),
            # with no L2 blocks at all (t = 2) the L1 cores give the same ratio
            witness=lambda c: {_L2 if c.m2 else _L1},
            notes=lambda c: (_MIXED_NOTE,) + ((_NO_L2_NOTE,) if c.m2 == 0 else ())),
    _Regime("6.2", lambda t: Fraction(7, 4) <= t <= 2, parity=0, family="mixed_l3",
            counts=lambda A, B: _mixed(A - 3 * B // 2 + 2, B // 2 - 1),
            floors=lambda l: {"m1": 1, "m2": max(1, l - 2)},
            kinds=lambda c: _runs((_L1, c.m1), (_L2, c.m2 - 1), (_L3, 1)),
            formula=lambda c: Fraction(c.l + 3 * c.m2 + 1, 2 * (c.m2 + 1)),
            witness=lambda c: {_L2, _L3},
            notes=lambda c: (_MIXED_NOTE, "l = a_scaled - 3*b_scaled/2 + 2")),
    _Regime("7.1", lambda t: 2 < t < T_UPPER, parity=1, family="l1_chain",
            counts=lambda A, B: _Counts(A - 2 * B + 2, (B - 1) // 2),
            floors=lambda l: {"m": 1}, kinds=lambda c: _runs((_L1, c.m)),
            formula=lambda c: Fraction(c.l + 4 * c.m, 2 * c.m + 1),
            witness=lambda c: {_L1}),
    # the L4 block admits a terminal path: it adds no path-free block
    _Regime("7.2", lambda t: 2 < t < T_UPPER, parity=0, family="l1_chain_l4",
            counts=lambda A, B: _Counts(A - 2 * B + 2, B // 2),
            floors=lambda l: {"m": 1}, kinds=lambda c: _runs((_L1, c.m - 1), (_L4, 1)),
            formula=lambda c: Fraction(c.l + 4 * c.m - 2, 2 * c.m),
            witness=lambda c: {_L1, _L4},
            notes=lambda c: ("scale chosen so that t <= 9/4 - 3/b_scaled",
                             "path-free count excludes the one path-admitting block")),
)}

# verify_claim_formula's names for the block regimes
_REGIME_BY_FAMILY = {r.family: r for r in _REGIMES.values() if r.family}


def verify_claim_formula(
    family: str,
    l: int,
    m: Optional[int] = None,
    m1: Optional[int] = None,
    m2: Optional[int] = None,
) -> bool:
    """Confront one closed-form toughness formula with the exact engine.

    Each family names a block regime of the regime table.  Returns
    whether decomposition_below, on the layout of that regime's block
    composition at the given parameters, is 0 at lambda = the formula:
    no cutset has a lower ratio and one attains it.  Any size; no graph
    is built.  Raises ValueError for an unknown family or parameters
    that violate the formula's hypothesis.
    """
    regime = _REGIME_BY_FAMILY.get(family)
    if regime is None:
        raise ValueError(f"unknown family {family!r}; know {sorted(_REGIME_BY_FAMILY)}")
    counts = _Counts(l, m, m1, m2)
    gap = regime.hypothesis_gap(counts)
    if gap is not None:
        raise ValueError(f"{family} needs {gap}")
    runs = tuple(block(k).run(c) for k, c in regime.kinds(counts))
    return decomposition_below(l, runs, regime.formula(counts)) == 0


def _regime_for(t: Fraction) -> _Regime:
    odd = t.denominator % 2
    return next(
        r for r in _REGIMES.values()
        if r.contains(t) and r.parity in (None, odd)
    )


def _regime(case_id: str) -> _Regime:
    try:
        return _REGIMES[case_id]
    except KeyError:
        raise PlanError(f"unknown case id {case_id!r}") from None


def plan(t: Union[Fraction, int, str]) -> SynthesisPlan:
    """Deterministic synthesis plan for toughness exactly t.

    Raises ValueError when t is outside (0, 9/4).  The scale q is the
    smallest admissible one (smallest odd one where the reduced
    denominator must stay odd), so equal rationals always yield the
    identical plan.
    """
    t = _as_fraction(t)
    if not 0 < t < T_UPPER:
        raise ValueError("t must satisfy 0 < t < 9/4")
    r = _regime_for(t)
    q = 1
    p = r.at_scale(t, q)
    while not r.admissible(p):
        q += r.step
        if q > _SCALE_CAP:
            raise PlanError(f"no admissible scale for t={t} below {_SCALE_CAP}")
        p = r.at_scale(t, q)
    # the search implies every side condition but the formula itself
    if predicted_toughness(p) != t:
        raise PlanError("governing formula does not reproduce t")
    return p


def predicted_toughness(p: SynthesisPlan) -> Fraction:
    """The governing toughness formula of the plan's regime."""
    r = _regime(p.case_id)
    missing = [k for k in r.floors(p.l) if getattr(p, k) is None]
    if missing:
        raise PlanError(f"case {p.case_id} needs {', '.join(missing)}")
    try:
        return r.formula(p)
    except ZeroDivisionError:
        raise PlanError(f"case {p.case_id} formula divides by zero") from None


def plan_order(p: SynthesisPlan) -> int:
    """Vertex count of the graph the plan builds, without building it."""
    return _regime(p.case_id).order_of(p)


def plan_layout(p: SynthesisPlan) -> Optional[_Layout]:
    """The plan's graph as (l, runs of (gadget, terminal mask, count)):
    K_l joined onto the runs' gadgets with all terminals in one clique,
    up to labels; None for regimes 1, 2 and 4."""
    return _regime(p.case_id).layout(p)


def plan_graph(p: SynthesisPlan) -> Graph:
    """The graph of a canonical plan, built with nothing counted."""
    return _regime(p.case_id).graph(p)


def plan_certificate(p: SynthesisPlan) -> Certificate:
    """The certificate of a canonical plan, from the plan alone: the
    regime's witness cutset S and nonhamiltonicity argument, and the
    component count |S| / predicted_tau that S leaves if it attains the
    predicted toughness.  Nothing is built or counted.  Raises PlanError
    when that count is not a whole number."""
    r = _regime(p.case_id)
    cut = r.cutset(p)
    predicted = predicted_toughness(p)
    components = len(cut) / predicted
    if components.denominator != 1:
        raise PlanError(f"a cutset of {len(cut)} vertices cannot attain {predicted}")
    arg = NonHamiltonicityArgument(r.nonham, argument_params(r.nonham, p))
    return Certificate(p, arg, cut, components.numerator, predicted)


def build(p: Union[SynthesisPlan, Fraction, int, str]) -> tuple[Graph, Certificate]:
    """Realize a target t, planned once, or a plan, which must equal
    plan(p.t): its graph, and its certificate, whose component count is
    checked on the graph."""
    if not isinstance(p, SynthesisPlan):
        p = plan(p)
    elif p != plan(p.t):
        raise PlanError(f"plan is not the canonical plan for t={p.t}")
    g = plan_graph(p)
    cert = plan_certificate(p)
    count = cutset_witness(g, cert.cutset).component_count
    if count != cert.components:
        raise PlanError(
            f"witness leaves {count} components, the certificate says {cert.components}"
        )
    if g.n != plan_order(p):
        raise PlanError("built order disagrees with plan_order")
    return g, cert


def synthesize(t: Union[Fraction, int, str]) -> tuple[Graph, Certificate]:
    """build(t): the graph and certificate of target t."""
    return build(t)


# -- certificate JSON ---------------------------------------------------

def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def certificate_payload(cert: Certificate) -> dict:
    """The certificate as the JSON object certificate_to_json writes."""
    p = cert.plan
    return {
        "t": _frac_str(p.t),
        "case": p.case_id,
        "q": p.q,
        "a_scaled": p.a_scaled,
        "b_scaled": p.b_scaled,
        "l": p.l,
        "m": p.m,
        "m1": p.m1,
        "m2": p.m2,
        "blocks": [k.value for k in _expand(p.block_kinds)],
        "nonhamiltonicity": {"kind": cert.nonhamiltonicity.kind,
                             **cert.nonhamiltonicity.params},
        "cutset": sorted(cert.cutset),
        "components": cert.components,
        "predicted_tau": _frac_str(cert.predicted_tau),
        "notes": list(p.notes),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_payload(cert), indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> dict:
    """Parse certificate JSON and return the object.

    A certificate is a function of its "t": the verifier rebuilds the
    canonical certificate of that t and compares the two as JSON, key by
    key, so every other field is decided there.  This raises
    CertificateError only for text that is not a JSON object or whose
    "t" is not a rational string.
    """
    try:
        payload = json.loads(text)
    # a RecursionError is nesting too deep for the parser
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CertificateError(f"bad JSON: {exc}") from None
    certificate_target(payload)
    return payload


def certificate_target(payload) -> Fraction:
    """The "t" of a certificate object, the one field read before the
    whole certificate is compared with the canonical one.  Raises
    CertificateError unless payload is a dict with string keys, as JSON
    objects have, whose "t" is a rational string."""
    if not (isinstance(payload, dict) and isinstance(payload.get("t"), str)
            and all(isinstance(key, str) for key in payload)):
        raise CertificateError('certificate must be a JSON object with a rational "t"')
    try:
        return parse_rational(payload["t"])
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
