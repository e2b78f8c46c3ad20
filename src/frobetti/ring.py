"""Prime-field coefficients, sparse polynomials, degrevlex, and quotient rings.

Polynomials are stored as sparse dictionaries mapping exponent tuples to
coefficients in [1, p).  Every polynomial is tagged with the ring it lives
over; arithmetic never reduces modulo the defining ideal (elements of the
quotient ring are represented by their normal forms against the reduced
Groebner basis of the ideal, computed on demand via :meth:`QuotientRing.nf`).

Module elements are vectors: dictionaries keyed by one int per term
x^e * e_pos, laid out by the ring's ``TermLayout``.  The encoding is additive
(multiplying a term by x^s adds one int), its integer order is the
position-over-term order (lower position first, then degrevlex), and its low
bits are the packed exponents of ``_pack``, so one subtraction tests
divisibility.  ``_axpy`` and ``_reduce_vec`` are the one multiply-subtract
and the one division loop for vectors; the Buchberger engine in
:mod:`frobetti.groebner` and :meth:`QuotientRing.nf` (a polynomial is a
vector at position 0) both run on them.  ``_reduce_vec`` reduces its vector
in place, takes terms from a heap and tests them against the leads of their
position only
(``_lead_lists``), or against one lead list at every position, as
:meth:`QuotientRing.nf_vec` reduces modulo I * G.  A lead list
(``LeadList``) is scanned while it is short; once it is long, its divisor
index of per-variable bitsets finds the same first divisor.  Hilbert
numerators (``_numerator``) read the same lead terms, as ``(degree, packed
exponents)`` pairs, so lengths, dimensions and Hilbert functions never
decode a term.
Exponent tuples remain only at the API boundary.
"""

import sys
from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from math import comb
from struct import Struct

from .errors import (
    NotHomogeneous,
    NotPrime,
    Overflow,
    ParseError,
    UnitIdeal,
    UnknownVariable,
)

MAX_MODULUS = 2**31
MAX_EXPONENT = 2**31


def is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def drl_key(exps):
    """Sort key for degrevlex: bigger key means bigger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def format_terms(terms, names):
    """The polynomial whose ``(exponents, coefficient)`` pairs ``terms``
    lists, largest monomial first, printed in the variables ``names``: "0"
    when there are none."""
    parts = []
    for m, c in terms:
        factors = [str(c)] if c != 1 or not any(m) else []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimal_pairs(pairs, guard):
    """The inclusion-minimal ``(degree, packed exponents)`` pairs, in degree
    order; ``guard`` is the top bit of every 64-bit field, so a divides b iff
    ``((b | guard) - a) & guard == guard``."""
    out = []
    for pair in sorted(pairs):
        b = pair[1] | guard
        if all((b - a) & guard != guard for _, a in out):
            out.append(pair)
    return out


def hilbert_numerator(terms, layout):
    """N(t) with HS(S/L) = N(t) / (1 - t)^n for L the monomial ideal of the
    lead ``terms`` of one position, encoded by ``layout``.

    N is returned as ``{degree: coeff}`` without zero coefficients.  This is
    the Bayer-Stillman pivot recursion N(L) = N(L + (x_i^k)) + t^k N(L : x_i^k),
    with the base cases and pivot of Bigatti ("Computation of Hilbert-Poincare
    series", J. Pure Appl. Algebra 119, 1997), see ``_numerator``.
    Generators are ``(degree, packed exponents)`` pairs (the low bits of a
    term, see ``TermLayout``), so a colon by x_i^k is a subtraction of fields.
    """
    guard, mask, degree = layout.guard, layout.mask, layout.degree
    gens = _minimal_pairs([(degree(t), t & mask) for t in terms], guard)
    return _numerator(gens, layout)


_FIELD = (1 << 64) - 1


def _numerator(gens, layout):
    """``hilbert_numerator`` of minimal ``(degree, packed exponents)`` pairs.

    A generator whose variables occur in no other generator splits off as
    the factor 1 - t^deg.  When the others use at most two variables, they
    form a staircase g_1, ..., g_m, ordered by the exponent of one variable,
    and N = 1 - sum t^deg g_k + sum t^deg lcm(g_k, g_k+1).  Otherwise the
    pivot variable x_i, among those in two or more generators, has the
    fewest distinct nonzero exponents (ties go to the most generators), and
    k is the median exponent of x_i among the generators that are not pure
    powers, so the depth grows with the logarithm of the exponents.
    """
    guard = layout.guard
    ones = guard >> 63
    # Field i of the sum counts the generators with a nonzero exponent i.
    counts = layout.exps(sum((((g | guard) - ones) & guard) >> 63 for _, g in gens))
    shared = sum(_FIELD << 64 * i for i, c in enumerate(counts) if c > 1)
    rest = [(d, g) for d, g in gens if g & shared]
    num = _shared_numerator(rest, counts, layout) if rest else {0: 1}
    for d, g in gens:
        if not g & shared:
            out = dict(num)
            for j, c in num.items():
                out[j + d] = out.get(j + d, 0) - c
            num = {j: c for j, c in out.items() if c}
    return num


def _shared_numerator(gens, counts, layout):
    """``_numerator`` of minimal generators that each share a variable with
    another; ``counts`` holds the number of generators using each variable."""
    guard = layout.guard
    ones = guard >> 63
    used = 0
    for _, g in gens:
        used |= ((g | guard) - ones) & guard
    fields = [64 * i for i, u in enumerate(layout.exps(used >> 63)) if u]
    if len(fields) == 2:
        a, b = fields
        stairs = sorted(((g >> a) & _FIELD, (g >> b) & _FIELD) for _, g in gens)
        num = {0: 1}
        for x, y in stairs:
            num[x + y] = num.get(x + y, 0) - 1
        for (_, y), (x, _) in zip(stairs, stairs[1:]):
            num[x + y] = num.get(x + y, 0) + 1
        return {d: c for d, c in num.items() if c}
    at = min(
        (len({e for _, g in gens if (e := (g >> 64 * i) & _FIELD)}), -c, 64 * i)
        for i, c in enumerate(counts)
        if c > 1
    )[2]
    exps = sorted(e for d, g in gens if 0 < (e := (g >> at) & _FIELD) < d)
    k = exps[len(exps) // 2]
    pivot = k << at
    # L + (x_i^k) keeps the generators with g_i < k, as x_i^k divides the
    # others; no pure power of x_i divides x_i^k, since every other
    # generator's x_i-exponent lies below that power's.  In L : x_i^k the
    # generators with g_i <= k lose field i, and only they need minimalising.
    # The others shift down by the pivot and all stay: the shift keeps them
    # minimal among themselves, and if h (h_i <= k) without field i divided
    # g - x_i^k (g_i > k), h would divide g.
    plus, low, high = [], [], []
    for d, g in gens:
        e = (g >> at) & _FIELD
        if e < k:
            plus.append((d, g))
        if e <= k:
            low.append((d - e, g - (e << at)))
        else:
            high.append((d - k, g - pivot))
    num = _numerator(plus + [(k, pivot)], layout)
    for d, c in _numerator(_minimal_pairs(low, guard) + high, layout).items():
        num[d + k] = num.get(d + k, 0) + c
    return {d: c for d, c in num.items() if c}


def _order_at_one(num, n):
    """(k, Q(1)) with num = (1 - t)^k * Q, k the order of the root t = 1 capped at n.

    ``num`` is a sparse Laurent polynomial ``{degree: coeff}``.  After the
    lowest degree is shifted to 0, its Taylor coefficients at t = 1 are
    a_k = sum_j c_j * C(j, k); they vanish below the order, and the first
    nonzero one (or a_n) is (-1)^k * Q(1).  Nothing is expanded densely, so
    degrees like 5^11 from bracket powers cost no more than small ones.  The
    zero numerator gives (n, 0).
    """
    low = min(num, default=0)
    for k in range(n + 1):
        a = sum(c * comb(d - low, k) for d, c in num.items())
        if a or k == n:
            return k, (-1) ** k * a


def numerator_dimension(num, n):
    """Krull dimension of a module with Hilbert numerator ``num``; -1 if num = 0.

    It is n minus the order of the root t = 1 of num.
    """
    return n - _order_at_one(num, n)[0] if num else -1


_WIDE = "exponent %d does not fit the 63-bit field of a packed monomial"


def _pack(exps):
    """Exponents as one int of 64-bit fields, field i (bits 64i and up) holding
    exps[i] on every platform, each exponent below 2^63.

    With G = ``_pack((1,) * n) << 63`` the top bit of every field, a divides b
    iff ``((_pack(b) | G) - _pack(a)) & G == G``: no field borrows from the
    next, and each keeps its top bit iff a_i <= b_i.  Wider exponents raise.
    """
    try:
        fields = array("q", exps)
    except OverflowError:
        raise Overflow(_WIDE % max(exps)) from None
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields, "little")


class TermLayout:
    """Module terms x^e * e_pos over n variables as single ints.

    From the low bits up a term holds n exponent fields of 64 bits (``_pack``,
    with the guard bit 63 of each field clear), n - 1 degrevlex tie fields
    2^63 - e_i for the variables 2..n (the last variable most significant),
    a degree field, and ``-pos`` on top.  The encoding is affine in e, so
    x^s times a term is one add of ``t - u`` for any terms t = x^s * u of one
    position; integer order is the position-over-term order (lower position
    first, then degrevlex), so a vector's lead is ``max(vec)``; and u divides
    t at one position iff ``((t | guard) - u) & guard == guard``.  A term
    whose exponent reaches 2^63 sets its field's guard bit without carrying
    into the next field, so testing ``t & guard`` catches it.
    """

    __slots__ = (
        "guard",
        "mask",
        "tie",
        "deg",
        "deg_mask",
        "top",
        "base",
        "nbytes",
        "_fields",
        "_ones",
        "_wide",
    )

    def __init__(self, n):
        ones = _pack((1,) * n)
        self.guard = ones << 63
        self.mask = (1 << 64 * n) - 1
        self.tie = 64 * n
        self.deg = 64 * (2 * n - 1)
        self.deg_mask = (1 << (64 + max(8, n.bit_length()))) - 1
        self.top = self.deg + self.deg_mask.bit_length()
        self.base = (ones >> 64) << (self.tie + 63)
        self.nbytes = 8 * n
        self._fields = Struct("<%dQ" % n).unpack
        self._ones = ones
        # The top n.bit_length() bits of every field: while none is set, the
        # n fields sum to less than 2^64 (see ``shift``).
        self._wide = ones * (_FIELD ^ (_FIELD >> n.bit_length()))

    def encode(self, pos, exps):
        x = _pack(exps)
        return self.base - (pos << self.top) + x - ((x >> 64) << self.tie) + (sum(exps) << self.deg)

    def unit(self, pos):
        """The term 1 * e_pos."""
        return self.base - (pos << self.top)

    def exps(self, t):
        return self._fields((t & self.mask).to_bytes(self.nbytes, "little"))

    def decode(self, t):
        return -(t >> self.top), self.exps(t)

    def degree(self, t):
        return (t >> self.deg) & self.deg_mask

    def shift(self, d):
        """x^d as a difference of terms, for the exponent word ``d`` (packed
        exponents, each below 2^63): adding it to a term multiplies by x^d.

        The degree field takes the sum of d's fields.  Multiplying d by
        ``_pack((1,) * n)`` puts that sum in field n - 1 of the product,
        exactly while every partial sum stays below 2^64, which holds when
        no field of d reaches 2^(64 - n.bit_length()); wider words add their
        fields one by one."""
        if d & self._wide:
            deg, rest = 0, d
            while rest:
                deg += rest & _FIELD
                rest >>= 64
        else:
            deg = (d * self._ones >> (self.tie - 64)) & _FIELD
        return d - ((d >> 64) << self.tie) + (deg << self.deg)

    def lcm(self, a, b):
        """The term at a's position whose exponents are the maxima of a's and
        b's: a times x^d for the delta d = max(b - a, 0), by ``shift``, which
        also sums d's fields for the degree field."""
        guard = self.guard
        d = ((b | guard) - a) & self.mask
        # Field i of d is 2^63 + b_i - a_i: its guard bit is set iff b_i >= a_i.
        # Keeping those fields without their guard bits leaves max(b - a, 0).
        keep = d & guard
        return a + self.shift((d ^ keep) & ((keep >> 63) * 0xFFFFFFFFFFFFFFFF))

    def overflow(self, t):
        return Overflow(_WIDE % max(self.exps(t)))


def _axpy(target, vec, c, shift, ring):
    """target -= c * x^shift * vec, in place; ``shift`` is a difference of terms."""
    p = ring.p
    layout = ring._layout
    guard = layout.guard
    for t, v in vec.items():
        t += shift
        if t & guard:
            raise layout.overflow(t)
        nc = (target.get(t, 0) - c * v) % p
        if nc:
            target[t] = nc
        else:
            target.pop(t, None)


# Lead lists of at least this many entries carry a divisor index (``LeadList``);
# shorter ones are scanned, which costs less than the index's lookups.
LEAD_INDEX_LENGTH = 32


class LeadList(list):
    """``[(lead, index), ...]`` in insertion order, for ``_reduce_vec`` and
    minimalisation.  Entries are only ever appended.  A query on a list of
    at least ``LEAD_INDEX_LENGTH`` entries answers from a divisor index,
    which it first extends by the entries appended since the last such
    query, so building and appending cost what they cost on a plain list.

    For each variable the index keeps the sorted distinct exponents of the
    leads and, for each of them, the bitset of the entries whose exponent is
    at most that value (0 comes first, for none).  The entries whose lead
    divides a term t are then the AND of one bitset per variable, each found
    by one ``bisect``, and the lowest set bit is the first divisor in list
    order: the entry that a scan of the list finds.  Only exponent fields
    are read, so a list of leads at position 0 serves every position.
    """

    # The index, built on the first query that needs it: the number of
    # entries it holds, and per variable the exponents and their bitsets.
    _size = 0
    _values = _sets = None

    def _index(self, layout):
        """Add the entries appended since the last indexed query."""
        if self._sets is None:
            n = len(layout.exps(self[0][0]))
            self._values = [[] for _ in range(n)]
            self._sets = [[0] for _ in range(n)]
        for k in range(self._size, len(self)):
            bit = 1 << k
            for e, values, sets in zip(layout.exps(self[k][0]), self._values, self._sets):
                j = bisect_left(values, e)
                if j == len(values) or values[j] != e:
                    values.insert(j, e)
                    sets.insert(j + 1, sets[j])
                for m in range(j + 1, len(sets)):
                    sets[m] |= bit
        self._size = len(self)

    def first_divisor(self, t, layout):
        """The first entry whose lead divides the term ``t`` of ``layout``,
        or None."""
        if len(self) < LEAD_INDEX_LENGTH:
            guard = layout.guard
            b = t | guard
            for entry in self:
                if (b - entry[0]) & guard == guard:
                    return entry
            return None
        if self._size < len(self):
            self._index(layout)
        hits = -1
        for e, values, sets in zip(layout.exps(t), self._values, self._sets):
            hits &= sets[bisect_right(values, e)]
            if not hits:
                return None
        return self[(hits & -hits).bit_length() - 1]


def _lead_lists(leads, ring):
    """``{position: LeadList}`` of a list of lead terms, in list order."""
    top = ring._layout.top
    by_pos = {}
    for i, t in enumerate(leads):
        pos = -(t >> top)
        if pos not in by_pos:
            by_pos[pos] = LeadList()
        by_pos[pos].append((t, i))
    return by_pos


def _reduce_vec(vec, by_pos, basis, ring, rep=None, reps=None):
    """Full normal form of ``vec`` against a list of monic basis vectors,
    as a new dict.  ``vec`` is reduced in place and is empty on return, so
    a caller that keeps its vector passes a copy.

    ``by_pos`` holds the leads of ``basis`` per position as ``LeadList``s,
    as ``_lead_lists`` builds them; each step clears the largest term by the
    first basis vector in its position's list whose lead divides it, and no
    other position's leads are read.  A list shorter than
    ``LEAD_INDEX_LENGTH`` is scanned, a longer one answers from its divisor
    index, which finds the same first divisor.  One ``LeadList`` of leads at
    position 0 serves every position: the test reads only the exponent
    fields, and ``t - lead`` moves the basis vector to t's position (the
    encoding is affine).  A term is pushed (negated) onto a heap when it
    enters the working vector, and popped terms that were cancelled are
    skipped.  Each division step ``vec -= c * x^shift * basis[i]`` is
    applied to ``rep`` as ``rep -= c * x^shift * reps[i]``, so a ``rep`` that
    starts as the representation of ``vec`` ends as that of the remainder.
    Terms introduced by a step are strictly smaller than the term being
    cleared, so a single descending sweep terminates.
    """
    p = ring.p
    layout = ring._layout
    guard, top = layout.guard, layout.top
    leads_at = by_pos.get if isinstance(by_pos, dict) else lambda _pos, _none: by_pos
    work = vec
    heap = [-t for t in work]
    heapify(heap)
    rem = {}
    while heap:
        t = -heappop(heap)
        c = work.get(t)
        if c is None:
            continue
        if t & guard:
            raise layout.overflow(t)
        leads = leads_at(-(t >> top), ())
        if len(leads) < LEAD_INDEX_LENGTH:
            b = t | guard
            for found in leads:
                if (b - found[0]) & guard == guard:
                    break
            else:
                found = None
        else:
            found = leads.first_divisor(t, layout)
        if found is None:
            rem[t] = work.pop(t)
            continue
        a, i = found
        shift = t - a
        for u, v in basis[i].items():
            u += shift
            old = work.get(u)
            nc = ((old or 0) - c * v) % p
            if nc:
                work[u] = nc
                if old is None:
                    heappush(heap, -u)
            elif old is not None:
                del work[u]
        if rep is not None:
            _axpy(rep, reps[i], c, shift, ring)
    return rem


class Polynomial:
    """A sparse polynomial over F_p tagged with its ring context.

    ``terms`` maps exponent tuples to nonzero residues.  Instances are
    treated as immutable: every operation builds a fresh dictionary.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- construction helpers -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- degree and homogeneity ----------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """The common degree of all terms, or None if not homogeneous or zero."""
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading(self):
        """(exponents, coefficient) of the degrevlex-leading term."""
        m = max(self.terms, key=drl_key)
        return m, self.terms[m]

    def constant_term(self):
        return self.terms.get(self.ring._zero_exps, 0)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and (
            self.ring.p != other.ring.p or self.ring.variables != other.ring.variables
        ):
            raise ValueError("polynomials over incompatible rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = (terms.get(m, 0) + c) % p
            if nc:
                terms[m] = nc
            elif m in terms:
                del terms[m]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero
            return Polynomial(self.ring, {m: (c * a) % self.ring.p for m, a in self.terms.items()})
        self._check(other)
        p = self.ring.p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                nc = (out.get(m, 0) + c1 * c2) % p
                if nc:
                    out[m] = nc
                elif m in out:
                    del out[m]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale_term(self, coeff, exps):
        """coeff * x^exps * self, the inner-loop primitive of reduction."""
        p = self.ring.p
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(m, exps)): (c * coeff) % p for m, c in self.terms.items()},
        )

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        terms = self.terms
        ordered = ((m, terms[m]) for m in sorted(terms, key=drl_key, reverse=True))
        return format_terms(ordered, self.ring.variables)

    def __repr__(self):
        return "<%s over F_%d[%s]>" % (self, self.ring.p, ",".join(self.ring.variables))


class QuotientRing:
    """A standard-graded quotient R = F_p[x_1..x_n] / I.

    ``_layout`` is the ring's ``TermLayout``: every module term of the engine
    over this ring is one int in it.  ``_gb_vecs`` holds the reduced
    degrevlex Groebner basis of I as monic vectors at position 0,
    ``_gb_lead_terms`` their leads and ``_gb_leads`` one lead list that
    serves every position, so ``nf_vec`` reduces modulo I * G with no copy
    of I; ``ideal_groebner`` builds the basis as polynomials on each read.
    The constructor takes the basis only as the engine's monic vectors, as
    ``make_ring`` hands them over (``_reduce_vec`` needs them monic).  ``dim``
    is the Krull dimension, read off the Hilbert numerator of the
    leading-term ideal on first use, so it always matches the basis given.
    An empty ideal gives the polynomial ring itself.
    """

    __slots__ = (
        "p",
        "variables",
        "n",
        "ideal_gens",
        "_zero_exps",
        "_layout",
        "_gb_vecs",
        "_gb_leads",
        "_gb_lead_terms",
        "_std_cache",
        "_inv_cache",
        "_memo",
        "zero",
        "one",
    )

    def __init__(self, p, variables, ideal_gens, ideal_groebner):
        self.p = p
        self.variables = tuple(variables)
        self.n = len(self.variables)
        self._zero_exps = (0,) * self.n
        self._layout = TermLayout(self.n)
        self.ideal_gens = tuple(ideal_gens)
        self._std_cache = {}
        self._inv_cache = {}
        self._gb_vecs = list(ideal_groebner)
        self._gb_lead_terms = tuple(max(v) for v in self._gb_vecs)
        self._gb_leads = LeadList((t, i) for i, t in enumerate(self._gb_lead_terms))
        self._memo = {}
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {self._zero_exps: 1})

    def numerator(self):
        """Hilbert numerator of R = S/I, HS(R) = N(t) / (1 - t)^n; memoised.
        The leads of a reduced basis are minimal, so ``_numerator`` takes them."""
        if "numerator" not in self._memo:
            layout = self._layout
            gens = sorted((layout.degree(t), t & layout.mask) for t in self._gb_lead_terms)
            self._memo["numerator"] = _numerator(gens, layout)
        return self._memo["numerator"]

    @property
    def dim(self):
        return numerator_dimension(self.numerator(), self.n)

    @property
    def ideal_groebner(self):
        """The reduced Groebner basis of I as polynomials, built on each read."""
        exps = self._layout.exps
        return tuple(Polynomial(self, {exps(t): c for t, c in v.items()}) for v in self._gb_vecs)

    # -- element construction ---------------------------------------------------

    def constant(self, c):
        c = c % self.p
        if c == 0:
            return self.zero
        return Polynomial(self, {self._zero_exps: c})

    def monomial(self, exps, coeff=1):
        coeff = coeff % self.p
        if coeff == 0:
            return self.zero
        return Polynomial(self, {tuple(exps): coeff})

    def gens(self):
        out = []
        for i in range(self.n):
            e = [0] * self.n
            e[i] = 1
            out.append(self.monomial(e))
        return out

    def variable(self, name):
        try:
            i = self.variables.index(name)
        except ValueError:
            raise UnknownVariable("unknown variable %r" % name)
        e = [0] * self.n
        e[i] = 1
        return self.monomial(e)

    def poly(self, source):
        """Coerce text, int, or a compatible Polynomial into this ring."""
        if isinstance(source, Polynomial):
            return self.convert(source)
        if isinstance(source, int):
            return self.constant(source)
        return poly_parse(source, self)

    def convert(self, poly):
        """Reinterpret a polynomial from a ring with the same p and variables."""
        if poly.ring is self:
            return poly
        if poly.ring.p != self.p or poly.ring.variables != self.variables:
            raise ValueError("cannot convert between incompatible rings")
        return Polynomial(self, dict(poly.terms))

    def inverse(self, c):
        c = c % self.p
        v = self._inv_cache.get(c)
        if v is None:
            v = pow(c, self.p - 2, self.p)
            self._inv_cache[c] = v
        return v

    # -- reduction modulo the defining ideal -------------------------------------

    def nf(self, poly):
        """Normal form of ``poly`` against the reduced Groebner basis of I."""
        if not poly.terms or not self._gb_vecs:
            return self.convert(poly)
        encode, exps = self._layout.encode, self._layout.exps
        rem = self.nf_vec({encode(0, m): c for m, c in poly.terms.items()})
        return Polynomial(self, {exps(t): c for t, c in rem.items()})

    def nf_vec(self, vec):
        """Normal form of the engine vector ``vec`` modulo I * G, a new dict;
        ``vec`` is left as it is."""
        return _reduce_vec(dict(vec), self._gb_leads, self._gb_vecs, self)

    def is_zero_mod(self, poly):
        return not self.nf(poly).terms

    def standard_monomials(self, degree):
        """Exponent tuples of degree ``degree`` outside the leading-term ideal of I."""
        got = self._std_cache.get(degree)
        if got is not None:
            return got
        leads = [self._layout.exps(t) for t in self._gb_lead_terms]
        out = []
        for m in monomials_of_degree(self.n, degree):
            if not any(monomial_divides(l, m) for l in leads):
                out.append(m)
        self._std_cache[degree] = out
        return out

    def __repr__(self):
        if self.ideal_gens:
            return "F_%d[%s]/(%s)" % (
                self.p,
                ",".join(self.variables),
                ", ".join(str(g) for g in self.ideal_gens),
            )
        return "F_%d[%s]" % (self.p, ",".join(self.variables))


def monomials_of_degree(n, d):
    """All exponent tuples of length n and total degree d."""
    if n == 1:
        return [(d,)]
    out = []
    stack = [((), d)]
    while stack:
        prefix, rest = stack.pop()
        if len(prefix) == n - 1:
            out.append(prefix + (rest,))
            continue
        for e in range(rest + 1):
            stack.append((prefix + (e,), rest - e))
    return out


def make_ring(p, variables, ideal_gens):
    """Build a validated quotient ring F_p[variables]/(ideal_gens).

    Generators may be text in the expression grammar or Polynomial values.
    The reduced Groebner basis of the ideal is computed eagerly, as monic
    engine vectors that the ring keeps as they are, so the returned ring is
    ready for normal forms, standard-monomial counts, and length queries;
    ``dim`` is read off the basis's leading terms by :class:`QuotientRing`
    itself.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime("characteristic %r is not a prime" % (p,))
    if p >= MAX_MODULUS:
        raise NotPrime("characteristic %d exceeds the supported bound 2^31" % p)
    variables = tuple(variables)
    if not variables:
        raise ParseError("a ring needs at least one variable")
    if len(set(variables)) != len(variables):
        raise ParseError("variable names must be distinct")
    for v in variables:
        if not v.isidentifier():
            raise ParseError("invalid variable name %r" % (v,))

    bare = QuotientRing(p, variables, (), ())
    gens = []
    for g in ideal_gens:
        poly = bare.poly(g) if not isinstance(g, Polynomial) else bare.convert(g)
        if not poly.is_homogeneous():
            raise NotHomogeneous("ideal generator %s is not homogeneous" % poly)
        if poly:
            gens.append(poly)

    from .groebner import reduced_ideal_groebner

    gb = reduced_ideal_groebner(gens, bare)
    if any(bare._layout.degree(max(v)) == 0 for v in gb):
        raise UnitIdeal("1 lies in the ideal; the quotient ring is zero")
    return QuotientRing(p, variables, gens, gb)


# -- expression parsing --------------------------------------------------------

_TOKEN_OPS = "+-*^()"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, position=i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent for the grammar: + - * ^ and parentheses, ^ tightest."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r" % kind, position=tok[2])
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek()[0] == "*":
            self.next()
            value = value * self.parse_unary()
        return value

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer literal", position=tok[2])
            if tok[1] >= MAX_EXPONENT:
                raise Overflow("exponent %d exceeds the configured width" % tok[1])
            return base ** tok[1]
        return base

    def parse_atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return self.ring.constant(value)
        if kind == "name":
            return self.ring.variable(value)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError("unexpected token %r" % (value,), position=pos)


def poly_parse(text, ring):
    """Parse an expression into a canonical sparse polynomial over ``ring``."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, ring)
    value = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError("trailing input", position=end[2])
    return value
