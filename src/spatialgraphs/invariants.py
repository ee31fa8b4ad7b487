"""Knot and link invariants computed from Gauss codes.

Two independent routes to the degree-2 Conway coefficient are kept side by
side: a skein-relation evaluator for the whole Conway polynomial (the
oracle, exponential in the worst case but fine at the sizes used here) and
a quadratic-time Gauss-diagram count.  Tests force agreement between the
two on a corpus of sampled knots.

The censuses over a diagram's over/under assignments build no Gauss code.
Once per projection, each cycle's a2 and each pair's linking number is
compiled from the Gauss-diagram count into bit masks over the crossings;
a trial reads it off its over/under mask with bit counts.  Tests hold the
compiled forms to the Gauss-code route on random masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .cycles import all_cycles, disjoint_cycle_tuples
from .multigraph import GraphError


@dataclass(frozen=True)
class Passage:
    crossing: int
    over: bool
    sign: int  # +1 or -1


Component = tuple[Passage, ...]


@dataclass(frozen=True)
class GaussLink:
    components: tuple[Component, ...]

    def validate(self) -> None:
        seen: dict[int, list[Passage]] = {}
        for comp in self.components:
            for p in comp:
                if p.sign not in (-1, 1):
                    raise GraphError(f"bad sign on crossing {p.crossing}")
                seen.setdefault(p.crossing, []).append(p)
        for cid, ps in seen.items():
            if len(ps) != 2:
                raise GraphError(f"crossing {cid} appears {len(ps)} times")
            if ps[0].over == ps[1].over:
                raise GraphError(f"crossing {cid} lacks an over and an under passage")
            if ps[0].sign != ps[1].sign:
                raise GraphError(f"crossing {cid} has inconsistent signs")

    @property
    def crossing_ids(self) -> frozenset[int]:
        return frozenset(p.crossing for c in self.components for p in c)


# -- text form -----------------------------------------------------------------

_TOKEN = re.compile(r"^c(\d+)([ou])([+-])$")


def format_gauss(link: GaussLink) -> str:
    """Components as space-separated c<id><o|u><+|-> tokens joined by ' / '.

    Crossing ids are renumbered from 1 in order of first appearance.
    """
    renum: dict[int, int] = {}
    parts = []
    for comp in link.components:
        toks = []
        for p in comp:
            if p.crossing not in renum:
                renum[p.crossing] = len(renum) + 1
            toks.append(
                f"c{renum[p.crossing]}{'o' if p.over else 'u'}{'+' if p.sign > 0 else '-'}"
            )
        parts.append(" ".join(toks) if toks else "-")
    return " / ".join(parts)


def parse_gauss(text: str) -> GaussLink:
    comps = []
    for chunk in text.strip().split("/"):
        chunk = chunk.strip()
        if chunk in ("", "-"):
            comps.append(())
            continue
        passages = []
        for tok in chunk.split():
            m = _TOKEN.match(tok)
            if not m:
                raise GraphError(f"bad gauss token {tok!r}")
            cid, ou, sgn = m.groups()
            passages.append(Passage(int(cid), ou == "o", 1 if sgn == "+" else -1))
        comps.append(tuple(passages))
    link = GaussLink(tuple(comps))
    link.validate()
    return link


# -- linking number ------------------------------------------------------------


def linking_number(link: GaussLink) -> int:
    """Half the signed count of inter-component crossings of a 2-component
    link."""
    if len(link.components) != 2:
        raise GraphError("linking number needs exactly two components")
    ids_a = {p.crossing for p in link.components[0]}
    total = 0
    for p in link.components[1]:
        if p.crossing in ids_a:
            total += p.sign
    if total % 2 != 0:
        raise GraphError("odd inter-component crossing sum; code is inconsistent")
    return total // 2


# -- Conway polynomial by the descending algorithm ------------------------------


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _pzshift(a: dict, scale: int) -> dict:
    return {k + 1: v * scale for k, v in a.items() if v != 0}


def poly_str(p: dict) -> str:
    if not p:
        return "0"
    terms = []
    for k in sorted(p):
        c = p[k]
        base = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if k == 0:
            terms.append(f"{c}")
        elif c == 1:
            terms.append(base)
        elif c == -1:
            terms.append(f"-{base}")
        else:
            terms.append(f"{c}{base}")
    return " + ".join(terms).replace("+ -", "- ")


_RawComp = tuple[tuple[int, bool, int], ...]


_SKEIN_MAX_CROSSINGS = 24  # guard on the exponential skein evaluation


def conway_polynomial(link: GaussLink) -> dict[int, int]:
    """Conway polynomial as {degree: coefficient}.

    Descending algorithm: repeatedly locate the first passage met as an
    undercrossing before its partner, then resolve it by the skein relation.
    A descending diagram is an unlink, and split diagrams evaluate to zero.
    Exponential in the worst case, hence the crossing-count guard.
    """
    link.validate()
    if len(link.crossing_ids) > _SKEIN_MAX_CROSSINGS:
        raise GraphError(
            f"{len(link.crossing_ids)} crossings exceed the skein guard"
        )
    comps = tuple(
        tuple((p.crossing, p.over, p.sign) for p in c) for c in link.components
    )
    return dict(_conway(comps, {}))


def _conway(comps: tuple[_RawComp, ...], memo: dict) -> dict:
    key = comps
    if key in memo:
        return memo[key]

    if len(comps) > 1 and _is_split(comps):
        memo[key] = {}
        return {}

    bad = _first_bad(comps)
    if bad is None:
        memo[key] = {0: 1} if len(comps) == 1 else {}
        return memo[key]

    cid, sign = bad
    switched = _switch(comps, cid)
    smoothed = _smooth(comps, cid)
    res = _padd(_conway(switched, memo), _pzshift(_conway(smoothed, memo), sign))
    memo[key] = res
    return res


def _is_split(comps) -> bool:
    # components sharing no crossings with the rest form a split part
    n = len(comps)
    idsets = [frozenset(c for c, _, _ in comp) for comp in comps]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and idsets[i] & idsets[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) != n


def _first_bad(comps) -> Optional[tuple[int, int]]:
    seen: set[int] = set()
    for comp in comps:
        for cid, over, sign in comp:
            if cid in seen:
                continue
            if not over:
                return (cid, sign)
            seen.add(cid)
    return None


def _switch(comps, cid):
    return tuple(
        tuple((c, (not o) if c == cid else o, -s if c == cid else s) for c, o, s in comp)
        for comp in comps
    )


def _smooth(comps, cid):
    where = []
    for i, comp in enumerate(comps):
        for p, (c, _, _) in enumerate(comp):
            if c == cid:
                where.append((i, p))
    (i1, p1), (i2, p2) = where
    if i1 == i2:
        comp = comps[i1]
        first = comp[p1 + 1 : p2]
        second = comp[p2 + 1 :] + comp[:p1]
        out = list(comps)
        out[i1 : i1 + 1] = [first, second]
        return tuple(out)
    a, b = comps[i1], comps[i2]
    merged = a[:p1] + b[p2 + 1 :] + b[:p2] + a[p1 + 1 :]
    out = [c for k, c in enumerate(comps) if k not in (i1, i2)]
    out.insert(min(i1, i2), merged)
    return tuple(out)


# -- degree-2 coefficient by Gauss-diagram counting ------------------------------

# Interleaved pairs are classified by whether each crossing is first met as an
# over- or under-passage.  Calibration against the skein evaluator on 120
# sampled knots leaves exactly the two mirror-dual classes (under, over) and
# (over, under) agreeing with the z^2 coefficient everywhere; the first is
# pinned here and the agreement is enforced by tests.
A2_CLASS = (False, True)  # (first passage of earlier crossing, of later one)


def interleave_class_sums(knot: GaussLink) -> dict[tuple[bool, bool], int]:
    """Signed counts of interleaved crossing pairs, split into the four
    first-passage classes.  Single-component links only."""
    if len(knot.components) != 1:
        raise GraphError("interleave counting needs a knot")
    comp = knot.components[0]
    spans: dict[int, list[int]] = {}
    first_over: dict[int, bool] = {}
    sign: dict[int, int] = {}
    for idx, p in enumerate(comp):
        if p.crossing not in spans:
            spans[p.crossing] = [idx, idx]
            first_over[p.crossing] = p.over
            sign[p.crossing] = p.sign
        else:
            spans[p.crossing][1] = idx
    sums = {(x, y): 0 for x in (False, True) for y in (False, True)}
    items = sorted(spans.items(), key=lambda kv: kv[1][0])
    for i, (p, (a1, a2)) in enumerate(items):
        for q, (b1, b2) in items[i + 1 :]:
            if a1 < b1 < a2 < b2:
                sums[(first_over[p], first_over[q])] += sign[p] * sign[q]
    return sums


def a2(knot: GaussLink) -> int:
    """Degree-2 Conway coefficient of a knot, by Gauss-diagram counting."""
    return interleave_class_sums(knot)[A2_CLASS]


# -- diagram-level censuses ------------------------------------------------------


# A cycle's a2 is read from a form compiled once per projection from its
# CycleWalk and kept in the projection's memo, which every over/under clone
# shares; a failed compile leaves no entry.  A pair's linking number needs
# no form: the two cycles' walks give it directly.


def _a2_form(d, cycle: frozenset) -> tuple:
    """(flip, rows) of a cycle, so that bit c of mask ^ flip is set exactly
    when self-crossing c is first met under.

    A2_CLASS counts the interleaved pairs (p, q), p first met before q, with
    p first met under and q first met over.  Switching a crossing flips its
    sign, so the pair's sign product is minus the product of the two signs
    with both crossings first met over, the assignment mask = flip.  A row
    (bit p, |pos| - |neg|, pos, neg) holds the crossings q interleaved after
    p, split by that product.
    """
    key = ("a2", cycle)
    form = d._memo.get(key)
    if form is None:
        w = d.walk(cycle)
        first: dict[int, int] = {}  # in order of first passage
        last: dict[int, int] = {}
        flip = 0
        for i, (cid, side) in enumerate(p for p in w.passages if w.own >> p[0] & 1):
            if cid in first:
                last[cid] = i
            else:
                first[cid] = i
                flip |= side << cid
        over_neg = d.negative(flip, w)
        order = list(first)
        rows = []
        for i, p in enumerate(order):
            later = 0
            for q in order[i + 1 :]:
                if first[q] > last[p]:
                    break
                if last[p] < last[q]:
                    later |= 1 << q
            if later:
                neg = later & (over_neg if over_neg >> p & 1 else ~over_neg)
                pos = later ^ neg
                rows.append((1 << p, pos.bit_count() - neg.bit_count(), pos, neg))
        form = d._memo[key] = (flip, tuple(rows))
    return form


def cycle_a2(d, cycle) -> int:
    """a2(extract_gauss(d, [cycle])), read from the cycle's compiled form."""
    flip, rows = _a2_form(d, frozenset(cycle))
    under = d.mask ^ flip
    total = 0
    for bit, k, pos, neg in rows:
        if under & bit:
            total += k - (pos & under).bit_count() + (neg & under).bit_count()
    return total


def pair_lk(d, ca, cb) -> int:
    """linking_number(extract_gauss(d, [ca, cb])): half the signed count of
    the crossings between the two cycles' walks."""
    wa, wb = d.walk(frozenset(ca)), d.walk(frozenset(cb))
    if wa.vertices & wb.vertices:
        raise GraphError("components share a vertex")
    x = wa.touch & wb.touch
    total = x.bit_count() - 2 * (d.negative(d.mask, wa, wb) & x).bit_count()
    if total % 2:
        raise GraphError("odd inter-component crossing sum; code is inconsistent")
    return total // 2


@dataclass(frozen=True)
class Census:
    parity: int
    values: tuple[int, ...]
    odd: tuple


def a2_census(d, cycles: Iterable) -> Census:
    items = list(cycles)
    values = tuple(cycle_a2(d, c) for c in items)
    odd = tuple(c for c, v in zip(items, values) if v % 2)
    return Census(sum(values) % 2, values, odd)


def lk_census(d, pairs: Iterable) -> Census:
    """Linking numbers of the pairs, in the order given."""
    items = list(pairs)
    values = tuple(pair_lk(d, a, b) for a, b in items)
    odd = tuple(p for p, v in zip(items, values) if v % 2)
    return Census(sum(values) % 2, values, odd)


def alpha_scope(g) -> tuple:
    """The 16 four-edge cycles of a doubled four-cycle g, in all_cycles order."""
    quads = tuple(c for c in all_cycles(g) if len(c) == 4)
    if len(quads) != 16:
        raise GraphError(f"expected 16 four-edge cycles, found {len(quads)}")
    return quads


def alpha(d, quads=None) -> int:
    """Mod-2 sum of a2 over the four-edge cycles of a doubled four-cycle.

    quads defaults to alpha_scope(d.graph), for a diagram of the shape
    itself; for a diagram of a host graph, pass the shape's alpha_scope
    lifted through a minor model.  Callers evaluating many diagrams
    compute quads once.
    """
    return a2_census(d, alpha_scope(d.graph) if quads is None else quads).parity


@dataclass(frozen=True)
class DichotomyWitness:
    kind: str  # "knot" or "link"
    cycles: tuple
    values: tuple[int, ...]


def dichotomy_scope(g) -> tuple[tuple, tuple]:
    """The cycles and disjoint triples of g in the order dichotomy_witness
    searches them: cycles by length, then in all_cycles order, and the
    triples in disjoint_cycle_tuples order."""
    return tuple(sorted(all_cycles(g), key=len)), disjoint_cycle_tuples(g, 3)


def dichotomy_witness(d, scope=None) -> Optional[DichotomyWitness]:
    """First knotted cycle (odd a2), else first triple of disjoint cycles
    with all pairwise linking numbers odd, else None.

    scope is (cycles, triples), searched in the order given; it defaults to
    dichotomy_scope(d.graph).  Only rings true as a theorem check on the
    two fixture shapes; callers that take graphs from outside check the
    shape first.
    """
    cycles, triples = dichotomy_scope(d.graph) if scope is None else scope
    for c in cycles:
        v = cycle_a2(d, c)
        if v % 2:
            return DichotomyWitness("knot", (c,), (v,))
    for a, b, c in triples:
        vals = (pair_lk(d, a, b), pair_lk(d, a, c), pair_lk(d, b, c))
        if all(v % 2 for v in vals):
            return DichotomyWitness("link", (a, b, c), vals)
    return None
