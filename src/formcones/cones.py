"""Rational polyhedral cones with exact double-description conversion.

A cone is described on two sides: the V side (lineality space and pointed
generators) and the H side (implied-equality space and proper facet
normals).  It is built from vectors on one side and holds the canonical
pair of each side once computed.  Canonical form means: primitive
vectors, the lineality (or implied-equality) space stored as a
reduced-echelon basis and listed as plus/minus pairs, pointed vectors
reduced modulo that space, everything sorted lexicographically.  Two
equal cones therefore compare equal structurally.

The single conversion primitive is :func:`_polar`, an incremental double
description pass: minimal generators of ``{x : <a, x> >= 0}``, one
:func:`_insert` step per row.  Run over the given vectors, it yields the
canonical pair of the other side, since the minimal generators of the
dual cone are exactly the irredundant facet normals of the primal one.
It also returns its final incidence, the tight input rows of each output
vector, from which :func:`_read_back` recovers the canonical pair of the
given side without a second pass.  So each cone runs at most one pass.

A pass can be seeded with rows expected to be facets: it inserts those
first and any other row only if its signs on the lanes cut the cone they
give, so a seed spares the pass its redundant rows and never changes the
result.

The one place that computes facets without building a cone is
:func:`omit_one_hulls`: it drives the same step over many cones whose
generators differ by one vector, sharing the steps they have in common,
and gives each cone's facets as the pass over its own generators would.

Most rows of a large pass come after the cone is cut out and keep every
ray.  The step tests such rows against all rays at once on packed lanes:
one big-int multiply-add per nonzero entry of the row, one AND with the
lanes' top bits that finds any negative ray, and one read-out of the zero
set only when the row is tight on some ray.  The ray set is packed once,
on the first row that leaves it whole, in lanes of the fewest whole bytes
that hold every row of the pass, and the lanes are dropped at the next row
that changes it.

The step and :func:`_read_back` pick the rows that cut out a cone by one
:func:`_kept_rows`, on zero sets alone, and compute no rank.  This is
exact because the rays involved are extreme: an extreme ray is fixed by
the rows tight on it, and the smallest face holding some extreme rays is
cut out by the rows tight on all of them.  Neither reads the zero set of
every row, only of the candidate rows that the pass carries: a row that
is not kept at one cut is not kept at a later one, unless a row in
between lowers the dimension (Fukuda & Prodon 1996; :func:`_insert`).
A simple ray's edges are read off its kept rows with no face test.
The masks stay over all rows.  The only rank test left is the
certificate of :func:`extremal_rays`, which recomputes its tight rows by
inner products and so stays independent of the pass.  Every vector the
step makes comes from :func:`formcones.linalg.combine`, the row operation
that the elimination in :mod:`formcones.linalg` uses too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateRay,
    DimensionMismatch,
    InternalError,
    NotFullDimensional,
    NotPointed,
)
from .linalg import (
    Mat,
    Vec,
    combine,
    dot,
    negate,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_space_basis,
)

__all__ = [
    "Cone",
    "cone_from_rays",
    "cone_from_halfspaces",
    "dd_convert",
    "dual",
    "intersect",
    "extremal_rays",
    "interior_point",
]


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: Sequence[int], width: int, which: int) -> dict[int, int]:
    """``{i: column i}`` for each bit ``i`` of ``which``, in increasing ``i``.

    Bit ``j`` of column ``i`` is bit ``i`` of ``masks[j]``.  Every mask
    must lie below ``1 << width``.  The masks are written out as one string
    of ``width`` binary digits each, last mask first, so column ``i`` is
    every ``width``-th digit and reads as a binary number.
    """
    digits = "".join(map(format, reversed(masks), repeat(f"0{width}b")))
    return {i: int(digits[width - 1 - i::width] or "0", 2)
            for i in _bit_indices(which)}


def _kept_rows(zero_sets: dict[int, int],
               everyone: int) -> tuple[list[int], list[int]]:
    """``(equalities, facets)``: the rows that cut out a cone, by index.

    ``zero_sets`` maps rows, in increasing index, to their zero sets over
    the cone's extreme rays.  The equalities are every row tight on all of
    them (zero set ``everyone``); the facets are one row per maximal other
    zero set, the first row with it.
    """
    equalities: list[int] = []
    first: dict[int, int] = {}
    for i, zeros in zero_sets.items():
        if zeros == everyone:
            equalities.append(i)
        else:
            first.setdefault(zeros, i)
    maximal: list[int] = []
    for zeros in sorted(first, key=int.bit_count, reverse=True):
        if all(zeros & big != zeros for big in maximal):
            maximal.append(zeros)
    return equalities, [first[zeros] for zeros in maximal]


def _polar(rows: Mat, d: int,
           seed: frozenset[Vec] = frozenset()) -> tuple[tuple[Mat, Mat], tuple]:
    """One double-description pass over ``{x in Q^d : <a, x> >= 0 for all a}``.

    ``rows`` must be canonical, as :func:`_validated` makes them and every
    :class:`Cone` holds them: nonzero, primitive, distinct and sorted.
    Returns ``((lineality_basis, rays), (masks, cand))``: the canonical
    minimal generator set, and the pass's final incidence, where
    ``masks[j]`` has bit ``i`` set exactly when the row inserted as row
    ``i`` is tight on ``rays[j]`` and ``cand`` holds the bits of the
    inserted rows that may cut out the cone (:func:`_insert`).  Unseeded,
    row ``i`` is inserted as row ``i``, one :func:`_insert` step each.

    A seeded pass inserts the rows in ``seed`` first, packs the rays they
    cut out once and checks every other row once: it holds on the seed's
    cone when it is zero on the lineality space and :func:`_lane_holds`
    finds no negative ray.  Only the rows that fail are inserted, in their
    order, and the incidence gains a third entry, the index in ``rows`` of
    each inserted row.  One round is enough: a row that holds on the
    seed's cone holds on every cone inside it, so the inserted rows cut
    out the cone of all the rows.  Any seed gives the same result; one
    with no row among ``rows`` changes nothing.
    """
    bound = _bound(rows)
    first = [i for i, a in enumerate(rows) if a in seed] if seed else []
    if not first:
        return _canonical(_inserted(_start(d), 0, rows, bound))
    lin, vecs, masks, cols, cand = _inserted(
        _start(d), 0, [rows[i] for i in first], bound)
    if vecs and not isinstance(cols, _Lanes):
        cols = _pack(cols, bound)
    failing = [i for i, a in enumerate(rows) if a not in seed and (
        any(dot(a, v) for v in lin)
        or vecs and not _lane_holds(cols, a))]
    state = _inserted((lin, vecs, masks, cols, cand), len(first),
                      [rows[i] for i in failing], bound)
    pair, (masks, cand) = _canonical(state)
    return pair, (masks, cand, tuple(first + failing))


def _start(d: int):
    """The state of a pass before its first row: all of ``Q^d``, as lineality."""
    lin = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return lin, [], [], [], 0


def _inserted(state, idx: int, rows: Iterable[Vec], bound: int):
    """The state after ``rows`` are inserted as rows ``idx, idx + 1, ...``."""
    for i, a in enumerate(rows, idx):
        state = _insert(state, i, a, bound)
    return state


def _bound(rows: Iterable[Vec]) -> int:
    """The largest ``sum(|a_i|)`` over ``rows``, the bound a pass packs for."""
    return max((sum(map(abs, a)) for a in rows), default=0)


# A ray set is packed into lanes once it holds this many rays and a row
# leaves it whole.  On a 2-vCPU Xeon VM with Python 3.11, on 8 to 2,048 of
# Mov(quadrics(12))'s rays in 4-byte lanes, one pack cost as much as the
# column route saves on 12-14 of its rows that read a zero set, or on 8-9
# checked by sign alone.  In perfbench's fans-verify command list the ray
# sets under 64 rays would serve 2.4 lane rows per pack (187 packs), those
# of 64 rays or more 23 (10 packs).
_PACK_MIN = 64
# Byte ``b`` reads as the binary digit of its top bit.
_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))


class _Lanes(NamedTuple):
    """The coordinates of a ray set by column, packed into lanes.

    Column ``i`` is one int, the sum of ``r_j[i] << (8 * size * j)`` over
    the rays ``r_j``: a lane of ``size`` whole bytes per ray, holding a
    signed value.  The values ``<a, r_j>`` of every ray are then one int, one
    big-int multiply-add per nonzero entry of ``a`` (SIMD within a
    register: Lamport, "Multiple byte processing with full-word
    instructions", 1975).  ``half`` holds ``2 ** (8 * size - 1)``, the top
    bit, in every lane and nothing else; adding it moves each lane's value
    ``v`` to ``v + 2 ** (8 * size - 1)`` with no carry into the next lane
    as long as ``|v| < 2 ** (8 * size - 2)``, one sign bit and one guard
    bit, and the lane's top bit is then set exactly when ``v >= 0``: every
    lane of ``x`` is nonnegative when ``(half + x) & half == half``.
    """

    count: int
    size: int
    half: int
    cols: tuple[int, ...]


def _pack(cols: Sequence[Vec], bound: int) -> _Lanes:
    """The columns ``cols`` in lanes of whole bytes, sized for ``bound``.

    ``bound`` is at least ``sum(|a_i|)`` for every row ``a`` that will be
    classified on the lanes, so ``bound * reach``, with ``reach`` the
    largest absolute coordinate, bounds every ``|<a, r_j>|``.  The lanes
    have the fewest bytes that hold that value with a sign bit and a guard
    bit.
    """
    reach = max(max(max(col), -min(col)) for col in cols)
    count, size = len(cols[0]), ((bound * reach).bit_length() + 2 + 7) // 8
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
    top, half = 1 << (8 * size - 1), ones << (8 * size - 1)
    # Each lane is written as its coordinate ``x`` plus ``top``, which lies
    # in ``[0, 2 * top)`` as ``|x| <= reach < top``; taking ``half`` off the
    # column's int leaves the sum of ``x << (8 * size * j)`` over its lanes.
    return _Lanes(count, size, half, tuple(
        int.from_bytes(b"".join([(x + top).to_bytes(size, "little") for x in col]),
                       "little") - half
        for col in cols))


def _lane_sum(lanes: _Lanes, a: Vec) -> int:
    """``<a, r_j>`` in lane ``j``; ``sum(|a_i|)`` within :func:`_pack`'s bound."""
    x = 0
    for c, col in zip(a, lanes.cols):
        if c:
            x += c * col
    return x


def _lane_holds(lanes: _Lanes, a: Vec) -> bool:
    """True when no ray has ``<a, r> < 0``; reads no zero set."""
    half = lanes.half
    return (half + _lane_sum(lanes, a)) & half == half


def _lane_signs(lanes: _Lanes, a: Vec) -> int | None:
    """The rays with ``<a, r> = 0``, or ``None`` when some ``<a, r> < 0``.

    Bit ``j`` of the zero set stands for ray ``j``.  Every lane of ``half
    + x`` has its top bit set, and ``half`` holds exactly those bits, when
    no ray is negative; then the top bits of ``half - x`` are the zero set,
    each the first byte of its lane in big-endian order, and they are read
    out only when some is set.
    """
    x = _lane_sum(lanes, a)
    half = lanes.half
    if (half + x) & half != half:
        return None
    zero = (half - x) & half
    return zero and int(zero.to_bytes(lanes.count * lanes.size, "big")
                        [::lanes.size].translate(_TOP_BIT), 2)


def _insert(state, idx: int, a: Vec, bound: int):
    """The state of a pass after it inserts ``<a, x> >= 0`` as row ``idx``.

    A state is ``(lin, vecs, masks, cols, cand)``: a spanning set of the
    current lineality space, the current rays, each ray's tight rows as a
    bitmask (bit ``i`` for the row inserted as row ``i``), the rays'
    coordinates by column, either as a list of tuples or packed into
    :class:`_Lanes`, never both, and the candidate rows as a bitmask: every
    row that may cut out a facet or be an implicit equality of the current
    cone, and maybe others.  Rows ``0 .. idx - 1`` must have been
    inserted, ``a`` must be nonzero, ``bound`` must be at least
    ``sum(|b_i|)`` for every row ``b`` of the pass (:func:`_bound`), and no
    part of ``state`` is changed, so one state can be the start of several
    passes.

    Once the cone is cut out, the remaining rows keep every ray.  So the
    first row that leaves a set of at least ``_PACK_MIN`` rays whole packs
    its columns into lanes sized for ``bound``, and each later row tests
    every ray on the lanes at once (:func:`_lane_signs`): a row that leaves
    the set whole then only sets its bit on the rays it is tight on, read
    out of the lanes once, and a row that cuts it reads no zero set.
    The first row that changes the set, by cutting it or in the lineality
    step, leaves its columns as tuples.

    Adjacency is decided on zero sets, as in :func:`_read_back`.  After
    each row the current rays are exactly the extreme rays (modulo the
    lineality space) of the cone cut out so far, and each mask is exactly
    its ray's zero set, so no two masks are equal; a cut that makes two
    equal raises :class:`InternalError`.

    At each row that leaves a negative ray, the step keeps the rows that
    cut out the current cone: one row per maximal set of tight rays (a
    facet) and every row tight on all rays (an implicit equality).  Every
    face is cut out by the kept rows that hold it, so the smallest face
    holding rays ``p`` and ``n`` holds exactly the rays in the
    intersection of the ray sets of the kept rows in ``pmask & nmask``.
    The pair is adjacent (that face is two-dimensional) exactly when it
    holds no third ray (Fukuda & Prodon, "Double description method
    revisited", 1996).  The kept rows of such a face have rank
    ``d - dim lineality - 2``, so pairs with fewer common kept rows are
    skipped first.  Implicit equalities cut nothing out but count toward
    that number: without them the edges of a cone that is not
    full-dimensional fall short of it.

    The step reads the zero sets of the candidate rows alone, and a cut
    leaves its kept rows and ``a`` as the candidates.  No row is lost.  If
    the current cone ``P`` cut by ``<a, x> >= 0`` keeps the dimension of
    ``P``, each of its facets is the face of ``a`` or a facet of ``P`` cut
    down, with the same first row, and its implicit equalities are those
    of ``P`` (Fukuda & Prodon 1996).  A row that keeps every ray changes
    no face of ``P``, one that retires a lineality direction keeps its
    dimension, and either joins the candidates.  The one exception is a cut
    that leaves no positive ray: the cone drops to its face ``<a, x> = 0``,
    on which a row not kept before can be tight on every ray or be the
    first row with a facet's zero set, so every row is a candidate again.

    A negative ray on exactly ``d - dim lineality - 1`` kept rows is
    simple: those rows are independent facets (so there is no implicit
    equality, as equality rows are linearly dependent), and dropping any
    one of them leaves an edge from the ray.  The other ray of each edge
    is the intersection of the remaining facets' ray sets, found for all
    of them by prefix and suffix ANDs.  This is the pivot step of reverse
    search (Avis & Fukuda, "A pivoting algorithm for convex hulls and
    vertex enumeration", 1992).  Only the negative rays that are not
    simple go through the pair loop, and there a simple positive ray needs
    no face test: the ``d - dim lineality - 2`` of its kept rows that a
    negative ray shares cut out a 2-face, which holds the two rays alone.
    Each adjacent pair meets the new hyperplane inside its own face, so no
    new ray is made twice.  Every new vector, there and in the lineality
    step, is :func:`combine` of two current ones, the row operation of
    :mod:`formcones.linalg`; the lineality step leaves a generator on the
    hyperplane as it is: it is primitive, so :func:`combine` would give it
    back.
    """
    lin, vecs, masks, cols, cand = state
    d = len(a)
    bit = 1 << idx
    # If some lineality direction leaves the hyperplane of ``a``, it is
    # retired: it becomes the single ray off the hyperplane and every
    # other generator is projected along it onto the hyperplane.
    for t, v in enumerate(lin):
        s = dot(a, v)
        if s:
            w = v if s > 0 else negate(v)
            lin = [combine(u, su, w, abs(s)) if (su := dot(a, u)) else u
                   for u in lin[:t] + lin[t + 1:]]
            vecs = [combine(r, sr, w, abs(s)) if (sr := dot(a, r)) else r
                    for r in vecs] + [w]
            masks = [mask | bit for mask in masks] + [bit - 1]
            return lin, vecs, masks, list(zip(*vecs)), cand | bit
    if not vecs:
        # The cone is its lineality space, inside the hyperplane.
        return lin, vecs, masks, cols, cand | bit

    if isinstance(cols, _Lanes):
        zero = _lane_signs(cols, a)
        if zero is not None:
            if zero:
                masks = masks.copy()
                for j in _bit_indices(zero):
                    masks[j] |= bit
            return lin, vecs, masks, cols, cand | bit
        # The row that cuts the packed set, once per set: the columns are
        # tuples again.
        cols = list(zip(*vecs))
    everyone = (1 << len(vecs)) - 1
    # <a, r> for every ray at once, column by column over the nonzero
    # entries of ``a``.
    values = None
    for c, col in zip(a, cols):
        if c:
            term = map(mul, col, repeat(c))
            values = term if values is None else map(add, values, term)
    values = list(values)
    new_masks = [mask if s else mask | bit
                 for mask, s in zip(masks, values) if s >= 0]
    if len(new_masks) == len(vecs):
        if len(vecs) >= _PACK_MIN:
            cols = _pack(cols, bound)
        return lin, vecs, new_masks, cols, cand | bit
    new_vecs = [r for r, s in zip(vecs, values) if s >= 0]
    target = d - len(lin) - 2
    # holding[i]: the current rays tight on row i, one bit per ray, for
    # the candidate rows.
    holding = _transpose(masks, idx, cand)
    # The kept rows: every implicit equality, and one row per facet of
    # the current cone.
    equalities, facets = _kept_rows(holding, everyone)
    keep = sum(1 << i for i in equalities + facets)
    fallback = []
    for j, an in enumerate(values):
        if an >= 0:
            continue
        nvec, nmask = vecs[j], masks[j]
        tight = nmask & keep
        if tight.bit_count() != target + 1:
            fallback.append((nvec, nmask, an))
            continue
        # A simple ray: dropping one of its facets leaves an edge, whose
        # other ray is the AND of the remaining facets' ray sets.
        sets = [holding[i] for i in _bit_indices(tight)]
        suffix = [everyone]
        for h in reversed(sets):
            suffix.append(suffix[-1] & h)
        prefix = everyone ^ 1 << j
        for h in sets:
            suffix.pop()
            k = (prefix & suffix[-1]).bit_length() - 1
            prefix &= h
            ap = values[k]
            if ap > 0:
                new_vecs.append(combine(nvec, an, vecs[k], ap))
                new_masks.append(masks[k] & nmask | bit)
    # With no positive ray the cone drops to the face ``<a, x> = 0``, which
    # rows that are not kept may cut out: every row is a candidate again.
    cand = (bit << 1) - 1
    for p, pmask, ap in zip(vecs, masks, values):
        if ap <= 0:
            continue
        cand = keep | bit
        if not fallback:
            break
        simple = (pmask & keep).bit_count() == target + 1
        for nvec, nmask, an in fallback:
            common = pmask & nmask
            if (common & keep).bit_count() < target:
                continue
            if not simple:
                # The rays holding ``common``: ``p``, ``n`` and any third.
                face = everyone
                for i in _bit_indices(common & keep):
                    face &= holding[i]
                if face.bit_count() > 2:
                    continue
            new_vecs.append(combine(nvec, an, p, ap))
            new_masks.append(common | bit)
    if len(set(new_masks)) < len(new_masks):
        raise InternalError(f"two rays with one zero set at row {idx} of a "
                            "double-description pass")
    return lin, new_vecs, new_masks, list(zip(*new_vecs)), cand


def _canonical(state) -> tuple[tuple[Mat, Mat], tuple[tuple[int, ...], int]]:
    """The canonical ``((lineality_basis, rays), (masks, cand))`` of a state."""
    lin, vecs, masks, _, cand = state
    lin_basis = row_space_basis(lin)
    # With no lineality each ray, primitive and nonzero, is its own form.
    reduced = [reduce_mod_rowspace(r, lin_basis) for r in vecs] if lin_basis else vecs
    tight = {r: mask for r, mask in zip(reduced, masks) if r is not None}
    pointed = tuple(sorted(tight))
    return ((tuple(sorted(lin_basis)), pointed),
            (tuple(tight[r] for r in pointed), cand))


def omit_one_hulls(d: int, shared: Iterable[Sequence[int]],
                   omitted: Iterable[Sequence[int]]) -> dict[Vec, Mat]:
    """The facets of the cone over all vectors but one, for each one left out.

    Maps the primitive form ``c`` of each vector of ``omitted`` to
    ``cone_from_rays(d, shared + omitted - {c}).facets``, and checks both
    lists as :func:`cone_from_rays` does.  The rows of those passes are the
    vectors, and they share all but one row, so the shared vectors are
    inserted once and the omitted ones by halves: each half is inserted
    into the state before the other half is split further.  At a leaf
    every vector but one has been inserted.  That is about ``n log2 n``
    insertions for ``n`` omitted vectors, where one pass per hull makes
    ``n (n - 1)`` of them besides the shared rows.
    """
    out: dict[Vec, Mat] = {}

    def split(state, idx: int, group: Mat) -> None:
        if len(group) == 1:
            out[group[0]] = _merge_pairs(*_canonical(state)[0])
            return
        half = len(group) // 2
        for rest, added in ((group[:half], group[half:]),
                            (group[half:], group[:half])):
            split(_inserted(state, idx, added, bound), idx + len(added), rest)

    rows = _validated(shared, d, "ray")
    group = _validated(omitted, d, "ray")
    if group:
        # Sibling branches share packed states, so the lanes are sized for
        # every row of every branch.
        bound = _bound(rows + group)
        split(_inserted(_start(d), 0, rows, bound), len(rows), group)
    return out


def _read_back(rows: Mat, masks: Sequence[int], cand: int,
               order: Sequence[int] | None = None) -> tuple[Mat, Mat]:
    """Canonical pair of a pass's input side, from its final incidence.

    ``(masks, cand)``, or ``(masks, cand, order)`` for a seeded pass, is
    the second value :func:`_polar` returns for ``rows``; ``order`` maps
    each inserted position to its row, and only the rows in ``cand`` can
    cut out the output cone.  The rows tight on every output vector span
    the input side's lineality (or implied-equality) space.  Every output
    vector is extreme, so the face a further row cuts out is fixed by its
    zero set over the output vectors, and that face is maximal (a facet, or
    an extreme ray on the generator side) exactly when the zero set is
    maximal among all rows'.
    Rows with the same zero set agree modulo the space up to a positive
    factor, so one row per zero set is reduced.  No rank is computed.
    """
    if order is not None:
        rows = [rows[i] for i in order]
    equalities, facets = _kept_rows(_transpose(masks, len(rows), cand),
                                    (1 << len(masks)) - 1)
    basis = row_space_basis([rows[i] for i in equalities])
    pointed = {reduce_mod_rowspace(rows[i], basis) for i in facets}
    return tuple(sorted(basis)), tuple(sorted(pointed))


def _merge_pairs(lineality: Mat, pointed: Mat) -> Mat:
    vecs = list(pointed)
    for b in lineality:
        vecs.append(b)
        vecs.append(negate(b))
    return tuple(sorted(vecs))


def _validated(vectors: Iterable[Sequence[int]], d: int, what: str) -> Mat:
    out = set()
    for v in vectors:
        t = tuple(v)
        if len(t) != d:
            raise DimensionMismatch(
                f"{what} of length {len(t)} in ambient rank {d}"
            )
        for x in t:
            if type(x) is not int:
                raise TypeError(f"{what} entries must be plain ints, got {x!r}")
        out.add(primitive(t))
    return tuple(sorted(out))


# The two sides of a cone, as indices into ``Cone._pairs``.
_V, _H = 0, 1


class Cone:
    """A rational polyhedral cone in a fixed ambient rank.

    Build instances through :func:`cone_from_rays` or
    :func:`cone_from_halfspaces`.  A cone keeps the vectors it was built
    from, tagged with their side, and the canonical pair of each side,
    filled lazily.  The first request runs one :func:`_polar` pass over
    the given vectors, which yields the other side's pair; the given
    side's pair is read back from that pass's incidence only when it is
    first asked for.  ``rays`` and ``facets`` list the lineality
    (respectively implied-equality) space as plus/minus pairs alongside
    the pointed generators (respectively proper facets).
    """

    __slots__ = ("ambient_rank", "_given", "_pairs", "_incidence", "_certified",
                 "_seed")

    def __init__(self, ambient_rank: int, *, given=None, pairs=(None, None)):
        if ambient_rank < 1:
            raise ValueError("ambient rank must be at least 1")
        self.ambient_rank = ambient_rank
        self._given = given
        self._pairs = list(pairs)
        self._incidence = None
        self._certified = False
        # Rows the pass inserts first (:func:`_polar`); only the default
        # route of ``movable_cone`` sets them.
        self._seed: frozenset[Vec] = frozenset()

    # -- representation plumbing -----------------------------------------

    def _pair(self, side: int) -> tuple[Mat, Mat]:
        """Canonical pair of one side: (lineality, rays) or (equalities, facets)."""
        if self._pairs[side] is None:
            given_side, vectors = self._given
            if self._pairs[1 - given_side] is None:
                self._pairs[1 - given_side], self._incidence = _polar(
                    vectors, self.ambient_rank, self._seed)
            if side == given_side:
                self._pairs[side] = _read_back(vectors, *self._incidence)
                self._incidence = None
        return self._pairs[side]

    def _halfspace_list(self) -> Mat:
        """Some valid list of defining normals (not necessarily minimal)."""
        if self._given is not None and self._given[0] == _H:
            return self._given[1]
        return _merge_pairs(*self._pair(_H))

    # -- public views ----------------------------------------------------

    @property
    def rays(self) -> Mat:
        """Canonical minimal generators (lineality as plus/minus pairs)."""
        return _merge_pairs(*self._pair(_V))

    @property
    def facets(self) -> Mat:
        """Canonical irredundant facet normals (equalities as pairs)."""
        return _merge_pairs(*self._pair(_H))

    @property
    def lineality_dim(self) -> int:
        return len(self._pair(_V)[0])

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self._pair(_H)[0])

    @property
    def is_pointed(self) -> bool:
        return self.lineality_dim == 0

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_rank

    def _point(self, v: Sequence[int]) -> Vec:
        v = tuple(v)
        if len(v) != self.ambient_rank:
            raise DimensionMismatch(
                f"point of length {len(v)} in ambient rank {self.ambient_rank}"
            )
        return v

    def contains(self, v: Sequence[int]) -> bool:
        v = self._point(v)
        return all(dot(n, v) >= 0 for n in self._halfspace_list())

    def strictly_contains(self, v: Sequence[int]) -> bool:
        """True when ``v`` satisfies every facet inequality strictly."""
        v = self._point(v)
        eqs, facets = self._pair(_H)
        return not eqs and all(dot(n, v) > 0 for n in facets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_rank == other.ambient_rank
                and self.rays == other.rays)

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.rays))

    def __repr__(self) -> str:
        parts = [f"ambient_rank={self.ambient_rank}"]
        for side, name, given_name in ((_V, "rays", "generators"),
                                       (_H, "facets", "normals")):
            if self._pairs[side] is not None:
                parts.append(f"{name}={len(_merge_pairs(*self._pairs[side]))}")
            elif self._given is not None and self._given[0] == side:
                parts.append(f"{given_name}={len(self._given[1])}")
        return f"Cone({', '.join(parts)})"


def cone_from_rays(ambient_rank: int, rays: Iterable[Sequence[int]]) -> Cone:
    """Cone generated by integer ray vectors.

    Zero vectors raise :class:`DegenerateRay`.  An empty list gives the
    zero cone.  Equal generators, in any order or scale, give the same
    shared :class:`Cone`, so its pass runs once per process.
    """
    return _generated(ambient_rank, _validated(rays, ambient_rank, "ray"))


# Eff, Nef, the column hulls of the chamber walk and the chamber pieces are
# built again and again.  perfbench's fans-verify command list builds 280
# distinct cones from generators in one process; 512 holds them all in any
# command order, where 256 evicts some and repeats 26-40 passes (seeds 1-3).
@lru_cache(maxsize=512)
def _generated(ambient_rank: int, gens: Mat) -> Cone:
    return Cone(ambient_rank, given=(_V, gens))


def cone_from_halfspaces(ambient_rank: int,
                         normals: Iterable[Sequence[int]]) -> Cone:
    """Cone of points satisfying ``<a, x> >= 0`` for every normal ``a``.

    An empty list gives the full space.  Redundant normals are tolerated;
    the canonical facet list prunes them.
    """
    ns = _validated(normals, ambient_rank, "normal")
    return Cone(ambient_rank, given=(_H, ns))


def dd_convert(c: Cone) -> Cone:
    """Ensure both canonical representations are present.

    Idempotent: the canonical lists depend only on the cone, not on how it
    was described.
    """
    c._pair(_V)
    c._pair(_H)
    return c


def dual(c: Cone) -> Cone:
    """The dual cone ``{a : <a, x> >= 0 for all x in c}``.

    Pure representation swap: the facets of ``c`` generate the dual and
    the rays of ``c`` are its facet normals, equality/lineality roles
    exchanged.  Hence ``dual(dual(c)) == c`` on canonical forms.
    """
    return Cone(c.ambient_rank, pairs=(c._pair(_H), c._pair(_V)))


def intersect(a: Cone, b: Cone) -> Cone:
    """Intersection, by concatenating halfspace descriptions."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch(
            f"ambient ranks {a.ambient_rank} and {b.ambient_rank} differ"
        )
    normals = set(a._halfspace_list()) | set(b._halfspace_list())
    return Cone(a.ambient_rank, given=(_H, tuple(sorted(normals))))


def extremal_rays(c: Cone, *, certify: bool = True) -> Mat:
    """Extremal rays of a pointed cone, in canonical order.

    With ``certify`` (the default) each ray is checked by the rank test:
    the defining normals tight at the ray must have rank
    ``ambient_rank - 1``.  A failure raises :class:`InternalError`, since
    the canonical rays are extremal by construction.  A cone that passed
    is not checked again; one that failed raises on every call.
    """
    lin, pointed = c._pair(_V)
    if lin:
        raise NotPointed(
            f"cone has lineality dimension {len(lin)}; extremal rays are "
            "only defined for pointed cones"
        )
    if certify and pointed and not c._certified:
        normals = c._halfspace_list()
        for r in pointed:
            tight = [n for n in normals if dot(n, r) == 0]
            if rank(tight) != c.ambient_rank - 1:
                raise InternalError(
                    f"extremality certificate failed for ray {r}"
                )
        c._certified = True
    return pointed


def interior_point(c: Cone) -> Vec:
    """A strictly interior primitive point of a full-dimensional cone.

    The sum of the canonical pointed rays works: any facet normal that
    vanished on all of them would vanish on the whole cone.  For the full
    space (no facets at all) the origin is returned.
    """
    if not c.is_full_dimensional:
        raise NotFullDimensional(
            f"cone has dimension {c.dim} in ambient rank {c.ambient_rank}"
        )
    _, pointed = c._pair(_V)
    if not pointed:
        return (0,) * c.ambient_rank
    total = tuple(sum(col) for col in zip(*pointed))
    try:
        return primitive(total)
    except DegenerateRay:
        raise InternalError(
            "pointed generators of a full-dimensional cone summed to zero"
        ) from None
