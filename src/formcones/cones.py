"""Rational polyhedral cones with exact double-description conversion.

A cone is described on two sides: the V side (lineality space and pointed
generators) and the H side (implied-equality space and proper facet
normals).  Canonical form means: primitive vectors, the lineality (or
implied-equality) space stored as a reduced-echelon basis and listed as
plus/minus pairs, pointed vectors reduced modulo that space, everything
sorted lexicographically.  Two equal cones therefore compare equal
structurally.

The single conversion primitive is :func:`_polar`, an incremental double
description pass: minimal generators of ``{x : <a, x> >= 0}``, one
:func:`_insert` step per row.  The cone some vectors generate and the cone
they cut out are duals, and the minimal generators of the dual are the
irredundant facet normals of the primal, so one pass converts both: it
yields the canonical pair of the side the vectors do not describe, and
:func:`_read_back` recovers the other from the pass's final incidence, the
tight input rows of each output vector.  Both cones are views of one
record per ``(ambient rank, vectors)``, which runs at most one pass.

A pass can be seeded with rows expected to be facets: it inserts those
first and any other row only if it cuts the cone they give, so a seed
spares the pass its redundant rows and never changes the result.  It packs
the seed's rays once, in lanes of whole bytes (:func:`_pack`), and checks
each other row against all of them at once (:func:`_lane_holds`).

The one place that computes facets without building a cone is
:func:`omit_one_hulls`: it drives the same step over many cones whose
generators differ by one vector, sharing the steps they have in common,
and gives each cone's facets as the pass over its own generators would.

The step and :func:`_read_back` pick the rows that cut out a cone on zero
sets alone, and compute no rank.  This is exact because the rays involved
are extreme: an extreme ray is fixed by the rows tight on it, and the
smallest face holding some extreme rays is cut out by the rows tight on
all of them (Fukuda & Prodon 1996; :func:`_insert`).  The only rank test
left is the certificate of :func:`extremal_rays`, which recomputes its
tight rows by inner products and so stays independent of the pass.  Every
vector the step makes comes from :func:`formcones.linalg.combine`, the row
operation that the elimination in :mod:`formcones.linalg` uses too.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import repeat
from operator import add, and_, mul, rshift
from struct import Struct
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
    record holds them: nonzero, primitive, distinct and sorted.  Returns
    ``((lineality_basis, rays), (inserted, masks))``: the canonical minimal
    generator set, and the final incidence, where ``inserted`` lists the
    rows in the order the pass inserted them and ``masks[j]`` has bit ``i``
    set exactly when ``inserted[i]`` is tight on ``rays[j]``.  Unseeded,
    ``inserted`` is ``rows``, one :func:`_insert` step each.

    A seeded pass inserts the rows in ``seed`` first, packs the rays they
    cut out once and checks every other row once: it holds on the seed's
    cone when it is zero on the lineality space and :func:`_lane_holds`
    finds no negative ray.  Only the rows that fail are inserted, in their
    order, after the seed's.  One round is enough: a row that holds on the
    seed's cone holds on every cone inside it.  Any seed gives the same
    result; one with no row among ``rows`` changes nothing.
    """
    first = [a for a in rows if a in seed] if seed else []
    if not first:
        pair, masks = _canonical(_inserted(_start(d), 0, rows))
        return pair, (rows, masks)
    lin, vecs, masks, cols, cand = _inserted(_start(d), 0, first)
    if vecs:
        cols = _pack(cols, max(sum(map(abs, a)) for a in rows))
    failing = [a for a in rows if a not in seed and (
        any(dot(a, v) for v in lin)
        or vecs and not _lane_holds(cols, a))]
    if failing:
        # The step reads the columns as tuples.
        cols = list(zip(*vecs))
    pair, masks = _canonical(_inserted((lin, vecs, masks, cols, cand),
                                       len(first), failing))
    return pair, (tuple(first + failing), masks)


def _start(d: int):
    """The state of a pass before its first row: all of ``Q^d``, as lineality."""
    lin = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return lin, [], [], [], 0


def _inserted(state, idx: int, rows: Iterable[Vec]):
    """The state after ``rows`` are inserted as rows ``idx, idx + 1, ...``."""
    for i, a in enumerate(rows, idx):
        state = _insert(state, i, a)
    return state


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
    as long as ``|v| < 2 ** (8 * size - 1)``, one sign bit, and the lane's
    top bit is then set exactly when ``v >= 0``: every lane of ``x`` is
    nonnegative when ``(half + x) & half == half``.  A column plus ``half``
    is this offset form of its coordinates, which :func:`_pack` builds.
    """

    size: int
    half: int
    cols: tuple[int, ...]


# Byte ``b`` of a two's-complement value to the byte that extends its sign.
_SIGN = bytes(0 if b < 0x80 else 0xFF for b in range(256))


def _pack(cols: Sequence[Vec], bound: int) -> _Lanes:
    """The columns ``cols`` in lanes of whole bytes, sized for ``bound``.

    :func:`_polar` packs the rays a seed cuts out, and ``bound`` is at
    least ``sum(|a_i|)`` for every row ``a`` of the pass, each of which
    :func:`_lane_holds` may check.  So ``bound * reach``, with ``reach`` the
    largest absolute coordinate, bounds every ``|<a, r_j>|``.  The lanes
    have the fewest bytes that hold that value with a sign bit.

    A column is written with no call per coordinate: one ``struct`` call
    per 8-byte two's-complement limb (unsigned below the top limb, signed
    at the top, which holds the rest as ``|x| < 2 ** (64 * limbs - 1)``),
    then one strided slice per lane byte, from the limbs or, past the top
    one, from the sign byte.  The bytes read as each lane's
    ``x mod 2 ** (8 * size)``; XOR with ``half`` makes that
    ``x + 2 ** (8 * size - 1)``, the offset form of :class:`_Lanes`, as
    ``|x| <= reach < 2 ** (8 * size - 1)``, and taking ``half`` off leaves
    the sum of ``x << (8 * size * j)``.
    """
    reach = max(max(max(col), -min(col)) for col in cols)
    count, size = len(cols[0]), ((bound * reach).bit_length() + 1 + 7) // 8
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
    half = ones << (8 * size - 1)
    limbs = reach.bit_length() // 64 + 1
    low, high = Struct(f"<{count}Q"), Struct(f"<{count}q")
    packed = []
    for col in cols:
        parts = []
        for _ in range(limbs - 1):
            parts.append(low.pack(*map(and_, col, repeat(2 ** 64 - 1))))
            col = [*map(rshift, col, repeat(64))]
        parts.append(high.pack(*col))
        lanes = bytearray(count * size)
        for k in range(min(size, 8 * limbs)):
            lanes[k::size] = parts[k // 8][k % 8::8]
        if size > 8 * limbs:
            sign = parts[-1][7::8].translate(_SIGN)
            for k in range(8 * limbs, size):
                lanes[k::size] = sign
        packed.append((int.from_bytes(lanes, "little") ^ half) - half)
    return _Lanes(size, half, tuple(packed))


def _lane_holds(lanes: _Lanes, a: Vec) -> bool:
    """True when no ray has ``<a, r> < 0``; reads no zero set.

    Lane ``j`` of ``x`` gains ``<a, r_j>``, within :func:`_pack`'s bound.
    """
    x = lanes.half
    for c, col in zip(a, lanes.cols):
        if c:
            x += c * col
    return x & lanes.half == lanes.half


def _insert(state, idx: int, a: Vec):
    """The state of a pass after it inserts ``<a, x> >= 0`` as row ``idx``.

    A state is ``(lin, vecs, masks, cols, cand)``: a spanning set of the
    current lineality space, the current rays, each ray's tight rows as a
    bitmask (bit ``i`` for row ``i``), the rays' coordinates by column as a
    list of tuples, and the candidate rows as a bitmask: every row that may
    cut out a facet or be an implicit equality of the current cone, and
    maybe others.  Rows ``0 .. idx - 1`` must have been inserted, ``a``
    must be nonzero, and no part of ``state`` is changed, so one state can
    start several passes.

    Adjacency is decided on zero sets, as in :func:`_read_back`.  After
    each row the current rays are exactly the extreme rays (modulo the
    lineality space) of the cone cut out so far, and each mask is exactly
    its ray's zero set, so no two masks are equal; a cut that makes two
    equal raises :class:`InternalError`, on either route below.

    A row that leaves a negative ray cuts on one of two routes, chosen from
    the state alone; both leave the same state.  The simplicial route is
    taken when there are ``d - dim lineality`` rays and no inserted row is
    tight on all of them: the cone is then full-dimensional and
    simplicial, and every two rays span a 2-face (Fukuda & Prodon 1996).
    The facet opposite ray ``i`` is the first candidate row tight on every
    other ray, the row the general route keeps for it; one prefix and
    suffix AND sweep over the masks finds it for every ray, and a ray with
    none raises :class:`InternalError`.  Each negative ray is combined with
    every positive ray, in the order of their facets' rows, the order in
    which the pivot below reaches them, and the candidates become the
    facet rows and ``a``, or every row when no ray is positive.

    On the general route the step keeps the rows that cut out the current
    cone: one row per maximal set of tight rays (a facet) and every row
    tight on all rays (an implicit equality).  Every face is cut out by the
    kept rows that hold it, so the smallest face holding rays ``p`` and
    ``n`` holds exactly the rays in the intersection of the ray sets of the
    kept rows in ``pmask & nmask``.  The pair is adjacent exactly when that
    face holds no third ray (Fukuda & Prodon, "Double description method
    revisited", 1996).  Its kept rows have rank ``d - dim lineality - 2``,
    so pairs with fewer common kept rows are skipped first; implicit
    equalities count toward that number, or the edges of a cone that is
    not full-dimensional would fall short of it.

    The step reads the zero sets of the candidate rows alone, and a cut
    leaves its kept rows and ``a`` as the candidates.  No row is lost: if
    ``P`` cut by ``<a, x> >= 0`` keeps the dimension of ``P``, each of its
    facets is the face of ``a`` or a facet of ``P`` cut down, with the same
    first row, and its implicit equalities are those of ``P``.  A row that
    keeps every ray or retires a lineality direction keeps the dimension
    and joins the candidates.  A cut that leaves no positive ray drops the
    cone to its face ``<a, x> = 0``, where a row not kept before can be
    tight on every ray or first with a facet's zero set, so every row is a
    candidate again.

    A negative ray on exactly ``d - dim lineality - 1`` kept rows is
    simple: those rows are independent facets (so there is no implicit
    equality), and dropping any one leaves an edge whose other ray is the
    intersection of the remaining facets' ray sets, found for all of them
    by prefix and suffix ANDs: the pivot step of reverse search (Avis &
    Fukuda, "A pivoting algorithm for convex hulls and vertex
    enumeration", 1992).  The other negative rays go through the pair
    loop, where a simple positive ray needs no face test: the ``d - dim
    lineality - 2`` of its kept rows that a negative ray shares cut out a
    2-face holding the two rays alone.  Each adjacent pair meets the new
    hyperplane inside its own face, so no new ray is made twice.  Every new
    vector is :func:`combine` of two current ones, the row operation of
    :mod:`formcones.linalg`; the lineality step leaves a generator on the
    hyperplane as it is, since :func:`combine` would give it back.
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
        return lin, vecs, new_masks, cols, cand | bit
    new_vecs = [r for r, s in zip(vecs, values) if s >= 0]
    if len(vecs) == d - len(lin) and not reduce(and_, masks):
        # A simplicial cone: every two rays span a 2-face, so each negative
        # ray makes an edge with every positive one.  The facet opposite
        # ray ``i`` is the first candidate row tight on every other ray,
        # found for all of them by prefix and suffix ANDs.
        suffix = [cand]
        for mask in reversed(masks):
            suffix.append(suffix[-1] & mask)
        prefix, opposite = cand, []
        for i, mask in enumerate(masks):
            suffix.pop()
            rows = prefix & suffix[-1]
            if not rows:
                raise InternalError(f"no candidate row is the facet opposite "
                                    f"ray {i} at row {idx} of a "
                                    "double-description pass")
            opposite.append(rows & -rows)
            prefix &= mask
        # The positive rays in the order of their facets' rows, as the
        # pivot takes them.
        positive = [k for k, s in enumerate(values) if s > 0]
        ends = [(vecs[k], masks[k], values[k])
                for k in sorted(positive, key=opposite.__getitem__)]
        for nvec, nmask, an in zip(vecs, masks, values):
            if an < 0:
                for pvec, pmask, ap in ends:
                    new_vecs.append(combine(nvec, an, pvec, ap))
                    new_masks.append(pmask & nmask | bit)
        cand = sum(opposite) | bit if ends else (bit << 1) - 1
    else:
        everyone = (1 << len(vecs)) - 1
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
        # With no positive ray the cone drops to the face ``<a, x> = 0``,
        # which rows that are not kept may cut out: every row is a
        # candidate again.
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


def _canonical(state) -> tuple[tuple[Mat, Mat], tuple[int, ...]]:
    """The canonical ``(lineality_basis, rays)`` of a state, and each ray's mask."""
    lin, vecs, masks, _, _ = state
    lin_basis = row_space_basis(lin)
    # With no lineality each ray, primitive and nonzero, is its own form.
    reduced = [reduce_mod_rowspace(r, lin_basis) for r in vecs] if lin_basis else vecs
    tight = {r: mask for r, mask in zip(reduced, masks) if r is not None}
    pointed = tuple(sorted(tight))
    return (tuple(sorted(lin_basis)), pointed), tuple(tight[r] for r in pointed)


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
            split(_inserted(state, idx, added), idx + len(added), rest)

    rows = _validated(shared, d, "ray")
    group = _validated(omitted, d, "ray")
    if group:
        split(_inserted(_start(d), 0, rows), len(rows), group)
    return out


def _read_back(rows: Mat, masks: Sequence[int]) -> tuple[Mat, Mat]:
    """Canonical pair of a pass's input side, from its final incidence.

    ``(rows, masks)`` is the second value :func:`_polar` returns: the rows
    it inserted, in order, and the zero set of each output vector over
    them.  The rows tight on every output vector span the input side's
    lineality (or implied-equality) space.  Every output vector is extreme,
    so the face a further row cuts out is fixed by its zero set over the
    output vectors, and that face is maximal (a facet, or an extreme ray on
    the generator side) exactly when the zero set is maximal among all
    rows'.  The rows a seeded pass did not insert hold on the cone of the
    inserted ones, so they cut out nothing more.  Rows with the same zero
    set agree modulo the space up to a positive factor, so one row per
    zero set is reduced.  No rank is computed.
    """
    equalities, facets = _kept_rows(
        _transpose(masks, len(rows), (1 << len(rows)) - 1), (1 << len(masks)) - 1)
    basis = row_space_basis([rows[i] for i in equalities])
    pointed = {reduce_mod_rowspace(rows[i], basis) for i in facets}
    return tuple(sorted(basis)), tuple(sorted(pointed))


def _merge_pairs(lineality: Mat, pointed: Mat) -> Mat:
    if not lineality:
        return pointed
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


# The two sides of a cone, generators and normals.
_V, _H = 0, 1


class _Conversion:
    """The one :func:`_polar` pass over canonical ``vectors``, from both sides.

    The vectors generate a cone and cut out its dual, both views of this
    record.  ``sides[1]``, the canonical pair of the side the vectors do
    not describe, comes from the pass; ``sides[0]``, of the side they
    describe, is read back from its incidence when first asked for.  Each
    is kept with its merged list, lineality as plus/minus pairs.  ``seed``
    holds the rows the pass inserts first, and ``certified`` the sides
    whose rays passed :func:`extremal_rays`'s certificate.
    """

    __slots__ = ("ambient_rank", "vectors", "seed", "sides", "incidence", "certified")

    def __init__(self, ambient_rank: int, vectors: Mat,
                 seed: frozenset[Vec] = frozenset()):
        if ambient_rank < 1:
            raise ValueError("ambient rank must be at least 1")
        self.ambient_rank, self.vectors, self.seed = ambient_rank, vectors, seed
        self.sides: list = [None, None]
        self.incidence, self.certified = None, [False, False]

    def side(self, which: int) -> tuple[tuple[Mat, Mat], Mat]:
        """``(pair, merged list)`` of side ``which``, running the pass once."""
        if self.sides[which] is None:
            if self.sides[1] is None:
                pair, self.incidence = _polar(self.vectors, self.ambient_rank, self.seed)
                self.sides[1] = pair, _merge_pairs(*pair)
            if which == 0:
                pair, self.incidence = _read_back(*self.incidence), None
                self.sides[0] = pair, _merge_pairs(*pair)
        return self.sides[which]


class Cone:
    """A rational polyhedral cone in a fixed ambient rank.

    Build instances through :func:`cone_from_rays` or
    :func:`cone_from_halfspaces`.  A cone is a record of canonical vectors
    and the side they describe, generators (``_V``) or normals (``_H``).
    ``rays`` and ``facets`` list the lineality (respectively
    implied-equality) space as plus/minus pairs alongside the pointed
    generators (respectively proper facets).
    """

    __slots__ = ("ambient_rank", "_record", "_side")

    def __init__(self, record: _Conversion, side: int):
        self.ambient_rank, self._record, self._side = record.ambient_rank, record, side

    def _pair(self, side: int) -> tuple[Mat, Mat]:
        """Canonical pair of one side: (lineality, rays) or (equalities, facets)."""
        return self._record.side(side ^ self._side)[0]

    def _halfspace_list(self) -> Mat:
        """Some valid list of defining normals (not necessarily minimal)."""
        return self._record.vectors if self._side == _H else self.facets

    @property
    def rays(self) -> Mat:
        """Canonical minimal generators (lineality as plus/minus pairs)."""
        return self._record.side(_V ^ self._side)[1]

    @property
    def facets(self) -> Mat:
        """Canonical irredundant facet normals (equalities as pairs)."""
        return self._record.side(_H ^ self._side)[1]

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
            known = self._record.sides[side ^ self._side]
            if known is not None:
                parts.append(f"{name}={len(known[1])}")
            elif side == self._side:
                parts.append(f"{given_name}={len(self._record.vectors)}")
        return f"Cone({', '.join(parts)})"


def cone_from_rays(ambient_rank: int, rays: Iterable[Sequence[int]]) -> Cone:
    """Cone generated by integer ray vectors.

    Zero vectors raise :class:`DegenerateRay`.  An empty list gives the
    zero cone.  Equal generators, in any order or scale, give views of the
    same shared record, so its pass runs once per process.
    """
    return Cone(_generated(ambient_rank, _validated(rays, ambient_rank, "ray")), _V)


def cone_from_halfspaces(ambient_rank: int,
                         normals: Iterable[Sequence[int]]) -> Cone:
    """Cone of points satisfying ``<a, x> >= 0`` for every normal ``a``.

    An empty list gives the full space.  Redundant normals are tolerated;
    the canonical facet list prunes them.  The cone is the dual of the cone
    the normals generate, and shares its record and pass.
    """
    return Cone(_generated(ambient_rank,
                           _validated(normals, ambient_rank, "normal")), _H)


# Eff, Nef, the walk's column hulls, pieces and chambers and verify's cones
# recur, from either side.  fans-verify's commands fill 546 records in one
# process (seeds 1-3, five orders each); 512 evicted 34-48 and repeated 0-14 passes.
@lru_cache(maxsize=1024)
def _generated(ambient_rank: int, vectors: Mat) -> _Conversion:
    return _Conversion(ambient_rank, vectors)


def _seeded(ambient_rank: int, normals: Iterable[Sequence[int]],
            seed: Iterable[Sequence[int]]) -> Cone:
    """The cone ``normals`` cut out, on a record of its own seeded with ``seed``."""
    return Cone(_Conversion(ambient_rank, _validated(normals, ambient_rank, "normal"),
                            frozenset(seed)), _H)


def _known(ambient_rank: int, rays: Mat, facets: Mat) -> Cone:
    """The pointed cone of canonical ``rays`` and ``facets``, on a record of its own."""
    record = _Conversion(ambient_rank, rays)
    record.sides[:] = (((), rays), rays), (((), facets), facets)
    return Cone(record, _V)


def dd_convert(c: Cone) -> Cone:
    """``c``, with both canonical pairs computed; idempotent."""
    c._pair(_V)
    c._pair(_H)
    return c


def dual(c: Cone) -> Cone:
    """The dual cone ``{a : <a, x> >= 0 for all x in c}``.

    The other side of the same record: the vectors that generate ``c`` cut
    out its dual and the other way round, so the facets of ``c`` are the
    rays of the dual, equality/lineality roles exchanged.  It runs no pass
    and reads nothing back, and ``dual(dual(c)) == c`` on canonical forms.
    """
    return Cone(c._record, 1 - c._side)


def intersect(a: Cone, b: Cone) -> Cone:
    """Intersection, by concatenating halfspace descriptions."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch(
            f"ambient ranks {a.ambient_rank} and {b.ambient_rank} differ"
        )
    return cone_from_halfspaces(a.ambient_rank,
                                set(a._halfspace_list()) | set(b._halfspace_list()))


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
    which = _V ^ c._side
    if certify and pointed and not c._record.certified[which]:
        normals = c._halfspace_list()
        for r in pointed:
            tight = [n for n in normals if dot(n, r) == 0]
            if rank(tight) != c.ambient_rank - 1:
                raise InternalError(
                    f"extremality certificate failed for ray {r}"
                )
        c._record.certified[which] = True
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
