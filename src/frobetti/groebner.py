"""Buchberger engine for submodules of graded free modules over F_p[x]/I.

Every module element inside the engine has one form: a dictionary keyed by
one int per term, laid out by the ring's ``TermLayout`` (:mod:`frobetti.ring`)
so that integer order is the position-over-term order (lower position wins,
ties broken by degrevlex).  A lead is ``max(vec)``, multiplying by x^s is one
int add, and the shift of a division step or an S-pair is a difference of
terms.  A tracked representation, which expresses a basis element in the
input generators, is a vector of the same form whose positions are generator
indices, so one multiply-subtract (``_axpy``) and one division loop
(``_reduce_vec``) serve basis elements, representations and the quotient
ring's normal forms alike.  Columns of ``Polynomial`` appear only at the API
boundary (``_normalize_columns`` in, ``vec_to_column`` out): presentations
and complexes (:mod:`frobetti.resolution`) store their spans and maps as
vectors, a colon is the reduced basis of one untracked elimination run on
vectors (``_colon_basis``), and saturation carries one reduced basis from
round to round.  The engine and
``GroebnerBasis`` keep their leads in one list per position, ``{pos: [(lead,
index), ...]}``; division and minimalisation scan only the list of the
term's position.  Pairs are chosen when a run starts, for each element
appended since the last run in turn, by the Gebauer-Moeller update
(``_Engine._update``): the new lead deletes the queued pairs of its position
that it makes redundant, and of its own pairs it queues only those whose lcm
is minimal among theirs, one per lcm, and none whose lcm is that of a
coprime pair.  An element appended after the last run is never paired.  A
pair that is not queued counts as treated, so popping a pair only checks
that it is still queued.  A queued pair carries the lcm of its two leads,
which the S-vector reuses.  S-vectors are reduced untracked; a tracked run
builds the representation only of a nonzero remainder.  A Hilbert
numerator (length, dimension, Hilbert function) needs only the minimal leads
of one engine run (``_Engine.minimal_leads``), so it takes no tail reduction
and builds no ``GroebnerBasis``.

Every engine run works over R = S/I by adjoining I * ambient: ``g * e_k``
for every g in the reduced Groebner basis of I and every ambient position k,
built from the ring's monic basis vectors (``_ideal_vecs``); over a ring with
no ideal that adds nothing, so the same run works over S.
They are untracked, so syzygies and lifts come out in the original generator
coordinates, and no pair of two of them is queued: by Buchberger's criterion
the reduced basis of I already gives their S-vector a standard representation.
"""

import heapq
from math import comb

from .errors import (
    AmbientMismatch,
    NotHomogeneous,
    ResourceBound,
    ZeroDivisorQuery,
)
from .ring import (
    Polynomial,
    _axpy,
    _lead_lists,
    _numerator,
    _order_at_one,
    _reduce_vec,
    format_terms,
    numerator_dimension,
)

INFINITE = float("inf")

MAX_BASIS_SIZE = 20000


def column_to_vec(col, ring):
    encode = ring._layout.encode
    return {encode(pos, m): c for pos, poly in enumerate(col) for m, c in poly.terms.items()}


def vec_to_column(vec, rank, ring):
    comps = [{} for _ in range(rank)]
    decode = ring._layout.decode
    for t, c in vec.items():
        pos, m = decode(t)
        comps[pos][m] = c
    return [Polynomial(ring, t) for t in comps]


def vec_to_strings(vec, rank, ring):
    """The entries of ``vec_to_column(vec, rank, ring)`` as ``str`` prints
    them, built with no ``Polynomial``: within a position integer order is
    degrevlex, so the terms are printed in descending int order.  Most
    entries of a resolution's maps are zero, and they cost one list slot."""
    comps = {}
    decode = ring._layout.decode
    for t in sorted(vec, reverse=True):
        pos, m = decode(t)
        comps.setdefault(pos, []).append((m, vec[t]))
    out = ["0"] * rank
    for pos, terms in comps.items():
        out[pos] = format_terms(terms, ring.variables)
    return out


def column_degree(col, row_degrees):
    """Module degree of a homogeneous column, or None for the zero column."""
    degs = set()
    for pos, poly in enumerate(col):
        for m in poly.terms:
            degs.add(sum(m) + row_degrees[pos])
    if not degs:
        return None
    if len(degs) > 1:
        raise NotHomogeneous("column %s is not homogeneous" % ([str(c) for c in col],))
    return degs.pop()


def _spair(leads, vecs, i, j, lcm, ring):
    """x^si * vecs[i] - x^sj * vecs[j], with x^si * lead_i = x^sj * lead_j =
    ``lcm``, the lcm of the two leads.

    Applied to basis vectors this is the S-vector of the pair; applied to
    their tracked representations it is the S-vector's representation.
    """
    out = {}
    _axpy(out, vecs[i], -1, lcm - leads[i], ring)
    _axpy(out, vecs[j], 1, lcm - leads[j], ring)
    return out


class _Engine:
    """Buchberger with normal pair selection and tracked representations.

    ``n_tracked`` marks how many of the input generators keep their syzygy
    coordinates; the elements of I * ambient that ``seed_ideal`` adjoins
    (indices ``ideal``) are untracked, projected away from every
    representation, and never paired with each other.  ``by_pos`` lists the
    leads per position in insertion order, for ``_reduce_vec``.

    Pairs are chosen by the Gebauer-Moeller update (``_update``) when a run
    starts, never when they are popped: ``unpaired`` lists the elements
    appended since the last run with the number of their partners, and
    ``run`` updates for them in the order they were appended, with the same
    partners as an update at append time; a remainder inserted during a run
    is paired at once.  So an element appended after the last run costs no
    update: in ``_minimal_generator_indices`` that is every candidate kept
    after its last run, which comes only when a candidate's remainder against
    the basis at hand is nonzero.  A run builds a representation only for a
    nonzero remainder, by reducing its S-vector a second time, tracked.
    ``queued`` holds, per position, the live pairs as ``{(i, j): lcm}``; the
    heap ``pairs`` holds them as ``(degree, i, j, lcm)``, keyed by true
    degree, sum(lcm) plus the row degree of their position, so ``run(d)``
    leaves a basis that is complete up to degree d.  A pair the update
    deletes stays on the heap and is skipped when popped, since it is no
    longer in ``queued``.  Every pair of two elements at one position that
    is not queued counts as treated: it was processed, the update dropped
    it, or both elements come from ``seed_ideal``.
    """

    def __init__(self, ring, row_degrees, n_tracked=0):
        self.ring = ring
        self.layout = ring._layout
        self.row_degrees = row_degrees
        self.n_tracked = n_tracked
        self.basis = []
        self.leads = []
        self.by_pos = {}
        self.reps = []
        self.single_pos = []
        self.pairs = []
        self.queued = {}
        self.unpaired = []
        self.ideal = range(0)

    def seed(self, vec, index):
        rep = {self.layout.unit(index): 1} if index < self.n_tracked else {}
        self._insert(vec, rep)

    def seed_ideal(self, ambient_rank):
        """Append I * ambient, untracked, pairing each g * e_k only with the
        elements at position k from before the call; called at most once per
        engine.  The S-vector of g * e_k and g' * e_k is S(g, g') * e_k, which
        has a standard representation in the g * e_k (Buchberger's criterion
        for the reduced basis of I), so that pair is treated without being
        queued.  The B criterion relies on this when a later g' * e_k deletes
        a queued pair (i, g * e_k)."""
        top = self.layout.top
        leads = self.ring._gb_lead_terms
        first = len(self.basis)
        self.ideal = range(first, first + ambient_rank * len(leads))
        for pos in range(ambient_rank):
            earlier = len(self.by_pos.get(pos, ()))
            for vec, lead in zip(_ideal_vecs(self.ring, pos), leads):
                self._append(vec, lead - (pos << top), {}, True, earlier)

    def _insert(self, vec, rep, at_once=False):
        """Append ``vec`` made monic, ``rep`` scaled with it; its pairs with
        the earlier elements at its position are chosen at once if
        ``at_once``, else when the next run starts."""
        lead = max(vec)
        layout = self.layout
        if lead & layout.guard:
            raise layout.overflow(lead)
        c = vec[lead]
        if c != 1:
            p = self.ring.p
            inv = self.ring.inverse(c)
            vec = {t: (v * inv) % p for t, v in vec.items()}
            rep = {t: (v * inv) % p for t, v in rep.items()}
        top = layout.top
        single = min(vec) >> top == lead >> top
        n_partners = None if at_once else len(self.by_pos.get(-(lead >> top), ()))
        self._append(vec, lead, rep, single, n_partners)

    def _append(self, vec, lead, rep, single_pos, n_partners):
        """Add the monic ``vec``.  Its partners are the first ``n_partners``
        elements listed at its position, and ``run`` pairs it with them
        before it pops a pair; ``None`` pairs it at once with every element
        listed there, which needs no copy of the list."""
        if len(self.basis) >= MAX_BASIS_SIZE:
            raise ResourceBound("Groebner basis exceeded %d elements" % MAX_BASIS_SIZE)
        new = len(self.basis)
        same_pos = self.by_pos.setdefault(-(lead >> self.layout.top), [])
        self.basis.append(vec)
        self.leads.append(lead)
        self.reps.append(rep)
        self.single_pos.append(single_pos)
        if n_partners is None:
            self._pair(new, same_pos)
        elif n_partners:
            self.unpaired.append((new, n_partners))
        same_pos.append((lead, new))

    def _pair(self, new, partners):
        """Queue the pairs of ``new`` with ``partners``, a list of ``(lead,
        index)`` at its position, that ``_update`` keeps."""
        if not partners:
            return
        pos = -(self.leads[new] >> self.layout.top)
        queued = self.queued.setdefault(pos, {})
        shift = self.row_degrees[pos]
        for d, i, m in self._update(new, partners, queued):
            queued[(i, new)] = m
            heapq.heappush(self.pairs, (d + shift, i, new, m))

    def _update(self, new, partners, queued):
        """The Gebauer-Moeller update (Becker-Weispfenning, UPDATE) for the
        element ``new``, whose lead is h.

        B criterion: delete from ``queued``, the live pairs of its position,
        each (i, j) whose lcm m is divisible by h, unless lcm(lead_i, h) or
        lcm(lead_j, h) equals m.  Gebauer and Moeller need both lcms to differ
        from m so that two deletions cannot rely on each other; a pair of two
        elements from ``seed_ideal`` relies on no other pair, so (x, new) may
        have lcm m when both come from there.  M and F criteria: take the
        pairs with ``partners`` so that a proper divisor of an lcm comes
        first, and a coprime pair first among equal lcms, and keep a pair iff
        no kept lcm divides its lcm; any such order keeps the same pairs.
        Returns the kept pairs that are not coprime (product criterion) as
        ``(degree of lcm, i, lcm)``.  Coprime means the lcm is the product of
        the leads and both elements live only at their lead position; the
        product criterion does not hold for module elements otherwise.
        """
        layout = self.layout
        lcm, guard = layout.lcm, layout.guard
        leads = self.leads
        h = leads[new]
        if queued:
            ideal = self.ideal
            ideal_new = new in ideal
            dead = [
                (i, j)
                for (i, j), m in queued.items()
                if ((m | guard) - h) & guard == guard
                and (lcm(leads[i], h) != m or ideal_new and i in ideal)
                and (lcm(leads[j], h) != m or ideal_new and j in ideal)
            ]
            for key in dead:
                del queued[key]
        single = self.single_pos
        single_new = single[new]
        # Integer order on one position is degree first, so a proper divisor
        # sorts first; a + h_times is the term a * h, as the encoding is affine.
        h_times = h - layout.unit(-(h >> layout.top))
        records = []
        for a, i in partners:
            m = lcm(a, h)
            records.append((m, not (single_new and single[i] and m == a + h_times), i))
        records.sort()
        kept, fresh = [], []
        for m, not_coprime, i in records:
            b = m | guard
            for k in kept:
                if (b - k) & guard == guard:
                    break
            else:
                kept.append(m)
                if not_coprime:
                    fresh.append((layout.degree(m), i, m))
        return fresh

    def run(self, degree=INFINITE):
        """Pair the elements appended since the last run, in the order they
        were appended, then process the pairs of true degree at most
        ``degree``.  Each S-vector is reduced untracked; only a nonzero
        remainder of a tracked engine has its representation built, by the
        same reduction again with the S-vector's representation."""
        track = self.n_tracked > 0
        ring = self.ring
        pairs, queued, top = self.pairs, self.queued, self.layout.top
        by_pos, basis, leads = self.by_pos, self.basis, self.leads
        for new, n_partners in self.unpaired:
            self._pair(new, by_pos[-(leads[new] >> top)][:n_partners])
        self.unpaired = []
        while pairs and pairs[0][0] <= degree:
            _, i, j, lcm = heapq.heappop(pairs)
            if queued[-(lcm >> top)].pop((i, j), None) is None:
                continue
            vec = _spair(leads, basis, i, j, lcm, ring)
            if not vec:
                continue
            rem = _reduce_vec(vec, by_pos, basis, ring)
            if not rem:
                continue
            rep = {}
            if track:
                rep = _spair(leads, self.reps, i, j, lcm, ring)
                rem = _reduce_vec(vec, by_pos, basis, ring, rep, self.reps)
            self._insert(rem, rep, at_once=True)

    def minimal_leads(self, first_pos=0):
        """(kept, by_pos): the indices of the elements whose lead no other
        lead divides, in lead order, and their leads per position as
        ``{pos: [(lead, index in kept), ...]}``.  These are the leads of the
        reduced basis, so they alone give its Hilbert numerator.  Only the
        elements led at a position >= ``first_pos`` are visited: divisibility
        never crosses positions, and higher positions sort first."""
        guard, top, leads = self.layout.guard, self.layout.top, self.leads
        kept, by_pos = [], {}
        for i in sorted(range(len(leads)), key=leads.__getitem__):
            lead = leads[i]
            pos = -(lead >> top)
            if pos < first_pos:
                break
            b = lead | guard
            same_pos = by_pos.setdefault(pos, [])
            if any((b - a) & guard == guard for a, _ in same_pos):
                continue
            same_pos.append((lead, len(kept)))
            kept.append(i)
        return kept, by_pos

    def reduced(self, first_pos=0):
        """Minimalize and tail-reduce; returns (vecs, leads, reps) sorted.
        With ``first_pos``, only the elements led at a position >= first_pos:
        every term of such an element lies there too (position over term),
        so only their leads can reduce its tail."""
        kept, by_pos = self.minimal_leads(first_pos)
        vecs = [self.basis[i] for i in kept]
        leads = [self.leads[i] for i in kept]
        reps = [dict(self.reps[i]) for i in kept]
        track = self.n_tracked > 0
        # No other lead divides a lead, and every tail term is below its own
        # lead, so the tail alone is reduced against the whole basis.
        for a, lead in enumerate(leads):
            tail = dict(vecs[a])
            c = tail.pop(lead)
            rest = _reduce_vec(tail, by_pos, vecs, self.ring, reps[a] if track else None, reps)
            vecs[a] = {lead: c, **rest}
        return vecs, leads, reps


class GroebnerBasis:
    """A reduced Groebner basis of a submodule span (plus I per position).

    ``columns`` lists the basis elements as columns of polynomials; the
    internal vector form, with its leads listed per position (``by_pos``,
    built once) for ``_reduce_vec``, drives normal forms and membership tests.
    """

    __slots__ = ("ring", "ambient_rank", "row_degrees", "vecs", "leads", "by_pos", "reps")

    def __init__(self, ring, ambient_rank, row_degrees, vecs, leads, reps=None):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.row_degrees = tuple(row_degrees)
        self.vecs = vecs
        self.leads = leads
        self.by_pos = _lead_lists(leads, ring)
        self.reps = reps

    @property
    def columns(self):
        return [vec_to_column(v, self.ambient_rank, self.ring) for v in self.vecs]

    def normal_form_vec(self, vec, rep=None):
        """Normal form of ``vec``; a given ``rep`` receives every division
        step applied to the tracked representations (see ``_reduce_vec``)."""
        return _reduce_vec(vec, self.by_pos, self.vecs, self.ring, rep, self.reps)

    def normal_form(self, column):
        if len(column) != self.ambient_rank:
            raise AmbientMismatch(
                "column has %d components, ambient rank is %d" % (len(column), self.ambient_rank)
            )
        vec = column_to_vec(column, self.ring)
        return vec_to_column(self.normal_form_vec(vec), self.ambient_rank, self.ring)

    def contains(self, column):
        return not self.normal_form_vec(column_to_vec(column, self.ring))

    def same_basis(self, other):
        return (
            self.ambient_rank == other.ambient_rank
            and sorted(self.leads) == sorted(other.leads)
            and sorted(self.vecs, key=max) == sorted(other.vecs, key=max)
        )

    def __len__(self):
        return len(self.vecs)


def _normalize_columns(columns, ring, ambient_rank, row_degrees):
    """(engine vectors, ambient rank, row degrees) of ``columns``, with the
    rank inferred and the row degrees zero when not given.  A column given as
    polynomials (one polynomial is a column of rank one) is converted, and
    raises unless it has the ambient rank and is homogeneous; a column given
    as a vector passes unchanged."""
    if ambient_rank is None:
        first = columns[0] if columns else None
        if isinstance(first, dict):
            raise AmbientMismatch("columns given as vectors need the ambient rank")
        ambient_rank = 1 if first is None or isinstance(first, Polynomial) else len(first)
    row_degrees = tuple(row_degrees) if row_degrees else (0,) * ambient_rank
    vecs = []
    for col in columns:
        if not isinstance(col, dict):
            if isinstance(col, Polynomial):
                col = [col]
            if len(col) != ambient_rank:
                raise AmbientMismatch("matrix column has wrong number of rows")
            col = [ring.convert(c) for c in col]
            column_degree(col, row_degrees)
            col = column_to_vec(col, ring)
        vecs.append(col)
    return vecs, ambient_rank, row_degrees


def _ideal_vecs(ring, pos, gens=None):
    """g * e_pos for each g in ``gens``, monic vectors at position 0 (by
    default the reduced basis of I), in order."""
    shift = pos << ring._layout.top
    return [{t - shift: c for t, c in g.items()} for g in (ring._gb_vecs if gens is None else gens)]


def _ideal_basis(ring, ambient_rank, row_degrees, gens=None):
    """J * ambient as a ``GroebnerBasis``, built without an engine run, for
    the ideal J of S whose reduced basis is ``gens`` (I by default)."""
    vecs = [v for pos in range(ambient_rank) for v in _ideal_vecs(ring, pos, gens)]
    return GroebnerBasis(ring, ambient_rank, row_degrees, vecs, [max(v) for v in vecs])


def _run_engine(vecs, ring, ambient_rank, row_degrees, n_tracked=0):
    """One Buchberger run over the vectors ``vecs`` plus I * ambient."""
    engine = _Engine(ring, row_degrees, n_tracked=n_tracked)
    zero_indices = []
    for index, vec in enumerate(vecs):
        if vec:
            engine.seed(vec, index)
        elif index < n_tracked:
            zero_indices.append(index)
    engine.seed_ideal(ambient_rank)
    engine.run()
    return engine, zero_indices


def _basis_of_vecs(vecs, ring, ambient_rank, row_degrees):
    """Reduced Groebner basis of the span of ``vecs`` plus I * ambient."""
    engine, _ = _run_engine(vecs, ring, ambient_rank, row_degrees)
    vecs, leads, _ = engine.reduced()
    return GroebnerBasis(ring, ambient_rank, row_degrees, vecs, leads)


def groebner_basis(gens, ring, ambient_rank=None, row_degrees=None):
    """Reduced Groebner basis of the span of ``gens`` plus I per ambient
    position, so normal forms answer membership in the span as a submodule
    over R = S/I (over a ring with no ideal, in the span over S)."""
    vecs, ambient_rank, row_degrees = _normalize_columns(gens, ring, ambient_rank, row_degrees)
    return _basis_of_vecs(vecs, ring, ambient_rank, row_degrees)


def reduced_ideal_groebner(gens, ring):
    """Reduced Groebner basis of an ideal of the underlying polynomial ring,
    as monic vectors at position 0, lowest lead first."""
    vecs = [column_to_vec([g], ring) for g in gens]
    engine, _ = _run_engine(vecs, ring, 1, (0,))
    return engine.reduced()[0]


def syzygy_generators(columns, ring, ambient_rank=None, row_degrees=None):
    """Generators of the syzygy module of the given columns over the ring.

    Over a quotient ring the relations of the defining ideal are adjoined
    before the Schreyer pass and projected away afterwards, so the result
    satisfies ``matrix * result == 0`` modulo the ideal, exactly.
    """
    vecs, ambient_rank, row_degrees = _normalize_columns(columns, ring, ambient_rank, row_degrees)
    return [vec_to_column(v, len(vecs), ring) for v in _syzygy_vecs(vecs, ring, ambient_rank, row_degrees)]


def _syzygy_vecs(gens, ring, ambient_rank, row_degrees):
    """Syzygies of the vectors ``gens``, as vectors whose positions are generator indices."""
    n = len(gens)
    if n == 0:
        return []
    engine, zero_indices = _run_engine(gens, ring, ambient_rank, row_degrees, n)
    gb = GroebnerBasis(ring, ambient_rank, row_degrees, *engine.reduced())
    leads, vecs, reps = gb.leads, gb.vecs, gb.reps
    unit, top, lcm = ring._layout.unit, ring._layout.top, ring._layout.lcm
    # Zero input columns are syzygies outright.
    syz_vecs = [{unit(idx): 1} for idx in zero_indices]

    # Columns of (Id - T U): each original generator minus its expression in
    # the reduced basis.  Untracked (ideal) generators contribute relations too.
    ideal = [v for pos in range(ambient_rank) for v in _ideal_vecs(ring, pos)]
    for idx, vec in enumerate(gens + ideal):
        if not vec:
            continue
        rep = {unit(idx): 1} if idx < n else {}
        if gb.normal_form_vec(vec, rep):
            raise AssertionError("span generator failed to reduce to zero against its own basis")
        if rep:
            syz_vecs.append(rep)

    # Schreyer pass: every same-position S-pair of the reduced basis yields a
    # syzygy; no pair criteria here, completeness needs them all.
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if leads[i] >> top != leads[j] >> top:
                continue
            m = lcm(leads[i], leads[j])
            rep = _spair(leads, reps, i, j, m, ring)
            if gb.normal_form_vec(_spair(leads, vecs, i, j, m, ring), rep):
                raise AssertionError("S-polynomial of a Groebner basis did not reduce to zero")
            if rep:
                syz_vecs.append(rep)
    return _dedupe_vecs(syz_vecs)


def _dedupe_vecs(vecs):
    seen = set()
    out = []
    for v in vecs:
        key = tuple(sorted(v.items()))
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _colon_basis(vecs, elements, ring, r, row_degrees):
    """Reduced Groebner basis of (N : (f_1, ..., f_k)) + I * R^r, for N the
    span of ``vecs`` in R^r and each f_i a homogeneous vector at position 0,
    by elimination in one untracked engine run.

    Positions i * r + j (block i) hold the block matrix [f_i * e_j | vecs
    moved to block i], with row degree row_degrees[j] + dmax - deg f_i (dmax
    the largest deg f_i); column j also carries the tag e'_j at position
    k * r + j, with row degree row_degrees[j] + dmax.  An element of the span
    with no block terms is h * e' with f_i * h in N for every i, and every
    such h arises.  Position-over-term puts the tag positions below every
    block position, so the basis elements whose lead is at a tag position
    have no block terms and form a Groebner basis of the colon; being part of
    the reduced basis, moved back to positions 0..r-1 they are its reduced
    basis.  Only they are minimalised and tail-reduced (``reduced(tags)``).
    """
    layout = ring._layout
    top, k = layout.top, len(elements)
    degs = [layout.degree(max(f)) for f in elements]
    dmax = max(degs)
    tags = k * r
    big_degrees = [row_degrees[j] + dmax - d for d in degs for j in range(r)]
    big_degrees += [row_degrees[j] + dmax for j in range(r)]
    matrix = []
    for j in range(r):
        col = {t - ((i * r + j) << top): c for i, f in enumerate(elements) for t, c in f.items()}
        col[layout.unit(tags + j)] = 1
        matrix.append(col)
    for i in range(k):
        shift = (i * r) << top
        matrix += [{t - shift: c for t, c in v.items()} for v in vecs]
    engine, _ = _run_engine(matrix, ring, tags + r, big_degrees)
    shift = tags << top
    tagged, tag_leads, _ = engine.reduced(tags)
    kept_vecs = [{t + shift: c for t, c in vec.items()} for vec in tagged]
    colon = GroebnerBasis(ring, r, row_degrees, kept_vecs, [lead + shift for lead in tag_leads])
    # N lies in N : (f_1, ..., f_k).
    if any(map(colon.normal_form_vec, vecs)):
        raise AssertionError("span generator failed to reduce to zero against its colon")
    return colon


def _minimal_generator_indices(vecs, ring, ambient_rank, row_degrees):
    """Indices of a minimal generating set of the R-span of the homogeneous
    vectors ``vecs``, lowest degree first.

    Candidates are visited greedily, lowest degree first and, within a
    degree, larger leading term first; a candidate is kept unless it lies in
    the R-span of the kept vectors plus I * ambient.  One engine, seeded with
    I * ambient, holds a basis of that span, and no basis is rebuilt.  Each
    candidate is reduced first against the basis at hand: every element of
    it lies in the span, so a zero remainder proves membership, and the
    candidate is dropped with no run.  A nonzero remainder decides only
    against a Groebner basis up to the candidate's degree d, so the first
    one of degree d runs the engine on the pairs of degree <= d, and is
    reduced again if the run added an element.  A candidate is kept iff its
    remainder is nonzero, and the remainder is then inserted.  It is fully
    reduced, so its pairs have degree > d and the basis stays complete up to
    degree d; by graded Nakayama, with R_0 = F_p, the engine then spans
    (kept of degree < d) * R + I * ambient plus the F_p-span of the degree-d
    vectors kept so far, which is the span in degree d.  A degree whose
    candidates all reduce to zero at hand processes no pair: its pairs stay
    queued, and the elements appended since the last run stay unpaired,
    until a later run.
    """
    layout = ring._layout
    ranked = []
    for index, vec in enumerate(vecs):
        if vec:
            lead = max(vec)
            ranked.append((layout.degree(lead) + row_degrees[-(lead >> layout.top)], lead, index))
    # Lowest degree first; within a degree, larger leading term first, so
    # the irrelevant ideal of F_p[x,y] presents as [x y].
    ranked.sort(key=lambda t: t[1], reverse=True)
    ranked.sort(key=lambda t: t[0])
    engine = _Engine(ring, row_degrees)
    engine.seed_ideal(ambient_rank)
    by_pos, basis = engine.by_pos, engine.basis
    kept = []
    complete = None
    for deg, _, index in ranked:
        rem = _reduce_vec(vecs[index], by_pos, basis, ring)
        if rem and deg != complete:
            complete, size = deg, len(basis)
            engine.run(deg)
            if len(basis) > size:
                rem = _reduce_vec(rem, by_pos, basis, ring)
        if rem:
            engine._insert(rem, {})
            kept.append(index)
    return kept


class SubmodulePresentation:
    """A finitely presented graded module over R.

    ``mode`` is "submodule" (the span of the columns inside the ambient free
    module) or "cokernel" (ambient modulo the span).  Length and dimension
    queries answer for the cokernel interpretation.  The span is stored as
    engine vectors (``vecs``); ``columns`` builds polynomials on each read.
    """

    __slots__ = (
        "ring",
        "ambient_rank",
        "row_degrees",
        "vecs",
        "mode",
        "_gb",
        "_tracked",
        "_mingens",
        "_resolution",
        "_numerator",
    )

    def __init__(self, ring, columns, ambient_rank=None, row_degrees=None, mode="submodule"):
        self.ring = ring
        self.vecs, self.ambient_rank, self.row_degrees = _normalize_columns(
            columns, ring, ambient_rank, row_degrees
        )
        if mode not in ("submodule", "cokernel"):
            raise ValueError("mode must be 'submodule' or 'cokernel'")
        self.mode = mode
        self._gb = None
        self._tracked = None
        self._mingens = None
        self._resolution = None
        self._numerator = None

    # -- basic structure -------------------------------------------------------

    @property
    def columns(self):
        """The span as columns of polynomials, built on each read."""
        return [vec_to_column(v, self.ambient_rank, self.ring) for v in self.vecs]

    def gb(self):
        if self._gb is None:
            self._gb = _basis_of_vecs(self.vecs, self.ring, self.ambient_rank, self.row_degrees)
        return self._gb

    def _tracked_gb(self):
        if self._tracked is None:
            args = (self.ring, self.ambient_rank, self.row_degrees)
            engine, _ = _run_engine(self.vecs, *args, n_tracked=len(self.vecs))
            self._tracked = GroebnerBasis(*args, *engine.reduced())
        return self._tracked

    def contains(self, column):
        if isinstance(column, Polynomial):
            column = [column]
        return self.gb().contains(column)

    def same_span(self, other):
        if self.ambient_rank != other.ambient_rank:
            return False
        return self.gb().same_basis(other.gb())

    def is_zero_submodule(self):
        """True when the span is contained in I * ambient."""
        ideal = _ideal_basis(self.ring, self.ambient_rank, self.row_degrees)
        return not any(map(ideal.normal_form_vec, self.vecs))

    # -- lifts ------------------------------------------------------------------

    def lift(self, column):
        """Coefficients c with columns * c = column over R, or None."""
        if isinstance(column, Polynomial):
            column = [column]
        if len(column) != self.ambient_rank:
            raise AmbientMismatch("lift target has wrong ambient rank")
        # The division steps leave rep = -c, the negated coefficients.
        rep = {}
        if self._tracked_gb().normal_form_vec(column_to_vec(column, self.ring), rep):
            return None
        p = self.ring.p
        return vec_to_column({t: p - c for t, c in rep.items()}, len(self.vecs), self.ring)

    # -- generators ---------------------------------------------------------------

    def minimal_generators(self):
        """A minimal generating set of the span, lowest degree first (see
        ``_minimal_generator_indices``)."""
        if self._mingens is None:
            ring, r = self.ring, self.ambient_rank
            kept = _minimal_generator_indices(self.vecs, ring, r, self.row_degrees)
            self._mingens = [vec_to_column(self.vecs[i], r, ring) for i in kept]
        return self._mingens

    # -- colon and saturation ----------------------------------------------------------

    def colon(self, element):
        """(N : f) as a submodule of the same ambient free module."""
        element = self.ring.poly(element)
        if element.is_zero():
            raise ZeroDivisorQuery("colon by zero is rejected")
        return self.colon_by_elements([element])

    def colon_by_elements(self, elements):
        """(N : (f_1, ..., f_k)), spanned by the elements of its reduced basis
        (``_colon_basis``) outside I * ambient; it carries that basis."""
        ring = self.ring
        elements = [ring.poly(f) for f in elements]
        if not elements or any(f.is_zero() for f in elements):
            raise ZeroDivisorQuery("colon by zero is rejected")
        elements = _normalize_columns(elements, ring, 1, None)[0]
        colon = _colon_basis(self.vecs, elements, ring, self.ambient_rank, self.row_degrees)
        return _carrying_basis(_outside_ideal(colon), colon, self.mode)

    def saturate(self):
        """(N : m^infinity), computed by iterating the colon with the variables.

        The span is carried as engine vectors, together with one reduced
        Groebner basis of it plus I * ambient.  Each round takes the reduced
        basis of the colon by the variables in one engine run
        (``_colon_basis``).  As N lies in N : m, equal lead sets mean equal
        modules, and the loop stops; otherwise the colon's basis is carried,
        and its elements outside I * ambient are the next span, so the next
        colon problem is as small as the span allows.  k rounds take k + 1
        engine runs, counting the basis of the input.  Unless N is already
        saturated, the columns returned are that reduced basis, which the
        result carries.
        """
        ring, r, degs = self.ring, self.ambient_rank, self.row_degrees
        variables = _normalize_columns(ring.gens(), ring, 1, None)[0]
        vecs = self.vecs
        gb = self.gb()
        while True:
            colon = _colon_basis(vecs, variables, ring, r, degs)
            if colon.leads == gb.leads:
                break
            gb = colon
            vecs = _outside_ideal(gb)
        if gb is self.gb():
            return self
        return _carrying_basis(vecs, gb, self.mode)

    # -- numerical invariants -----------------------------------------------------------

    def numerator(self):
        """Hilbert numerator of the cokernel, HS = N(t) / (1 - t)^n
        (``cokernel_numerator``); a fresh copy of the memoised value."""
        if self._numerator is None:
            self._numerator = cokernel_numerator(self.vecs, self.ring, self.row_degrees)
        return dict(self._numerator)

    def length(self):
        """Length of the cokernel; Infinite exactly when its dimension is positive."""
        return numerator_length(self.numerator(), self.ring.n)

    def dimension(self):
        """Krull dimension of the cokernel; -1 for the zero module."""
        return numerator_dimension(self.numerator(), self.ring.n)

    def hilbert_function(self, degree):
        """K-dimension of the cokernel in the given internal degree."""
        n = self.ring.n
        return sum(
            c * comb(degree - j + n - 1, n - 1) for j, c in self.numerator().items() if j <= degree
        )

    def __repr__(self):
        return "<%s presentation: ambient R^%d, %d generators over %r>" % (
            self.mode,
            self.ambient_rank,
            len(self.vecs),
            self.ring,
        )


def _outside_ideal(gb):
    """The elements of the reduced basis ``gb`` outside I * ambient."""
    ideal = _ideal_basis(gb.ring, gb.ambient_rank, gb.row_degrees)
    return [v for v in gb.vecs if ideal.normal_form_vec(v)]


def _carrying_basis(vecs, gb, mode="submodule"):
    """The presentation of ``vecs`` that carries ``gb``, the reduced basis
    of their span plus I * ambient, so its ``gb()`` runs no engine."""
    out = SubmodulePresentation(gb.ring, vecs, gb.ambient_rank, gb.row_degrees, mode)
    out._gb = gb
    return out


def cokernel_numerator(vecs, ring, row_degrees):
    """Hilbert numerator of the cokernel of ``vecs`` in the free module with
    twists ``row_degrees``: the numerators of the positions' lead-term ideals
    (minimal leads of one engine run, so ``_numerator`` takes them without
    minimalising), each shifted by its row degree."""
    engine, _ = _run_engine(vecs, ring, len(row_degrees), row_degrees)
    by_pos = engine.minimal_leads()[1]
    layout = ring._layout
    mask, degree = layout.mask, layout.degree
    num = {}
    for pos, shift in enumerate(row_degrees):
        gens = sorted((degree(t), t & mask) for t, _ in by_pos.get(pos, ()))
        for d, c in _numerator(gens, layout).items():
            num[d + shift] = num.get(d + shift, 0) + c
    return {d: c for d, c in num.items() if c}


def numerator_length(num, n):
    """Q(1) for a Hilbert numerator num = (1 - t)^n * Q; INFINITE if there is no such Q."""
    k, value = _order_at_one(num, n)
    return value if k == n else INFINITE


def ideal(ring, gens):
    """The span of ring elements inside R itself (rank-one submodule mode)."""
    return SubmodulePresentation(ring, [[ring.poly(g)] for g in gens], 1, None, "submodule")


def quotient_module(ring, gens):
    """R/(gens) as a cokernel presentation."""
    return SubmodulePresentation(ring, [[ring.poly(g)] for g in gens], 1, None, "cokernel")


def cokernel_presentation(ring, columns, ambient_rank=None, row_degrees=None):
    return SubmodulePresentation(ring, columns, ambient_rank, row_degrees, "cokernel")
