"""Prime-field coefficients, sparse polynomials, degrevlex, and quotient rings.

Polynomials are stored as sparse dictionaries mapping exponent tuples to
coefficients in [1, p).  Every polynomial is tagged with the ring it lives
over; arithmetic never reduces modulo the defining ideal (elements of the
quotient ring are represented by their normal forms against the reduced
Groebner basis of the ideal, computed on demand via :meth:`QuotientRing.nf`).

Module elements are vectors: dictionaries keyed by ``(position, exponents)``
in the position-over-term order.  ``_axpy`` and ``_reduce_vec`` are the one
multiply-subtract and the one division loop for vectors; the Buchberger
engine in :mod:`frobetti.groebner` and :meth:`QuotientRing.nf` (a polynomial
is a vector at position 0) both run on them.  ``_reduce_vec`` takes terms
from a heap and tests divisibility by leads packed into one int (``_pack``),
kept in one list per position (``_lead_lists``).
"""

import sys
from array import array
from heapq import heapify, heappop, heappush
from math import comb

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


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize_monomials(gens):
    """Inclusion-minimal exponent tuples."""
    out = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(monomial_divides(h, g) for h in out):
            out.append(g)
    return out


def hilbert_numerator(gens, n):
    """N(t) with HS(S/L) = N(t) / (1 - t)^n for L = (gens) in n variables.

    N is returned as ``{degree: coeff}`` without zero coefficients.  This is
    the Bayer-Stillman pivot recursion N(L) = N(L + (x_i^k)) + t^k N(L : x_i^k),
    down to pairwise coprime generators, where N = prod (1 - t^deg g).  The
    pivot variable x_i occurs in the most generators and k is the median
    exponent of x_i among those that are not pure powers, so the depth grows
    with the logarithm of the exponents.
    """
    gens = minimalize_monomials(gens)
    counts = [sum(1 for g in gens if g[i]) for i in range(n)]
    if max(counts, default=0) <= 1:
        num = {0: 1}
        for g in gens:
            d = sum(g)
            out = dict(num)
            for j, c in num.items():
                out[j + d] = out.get(j + d, 0) - c
            num = {j: c for j, c in out.items() if c}
        return num
    i = counts.index(max(counts))
    exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    k = exps[len(exps) // 2]
    pivot = tuple(k if j == i else 0 for j in range(n))
    num = hilbert_numerator(gens + [pivot], n)
    colon = [g[:i] + (max(g[i] - k, 0),) + g[i + 1 :] for g in gens]
    for d, c in hilbert_numerator(colon, n).items():
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


def _vec_key(t):
    """Sort key of a vector term: lower position wins, then degrevlex."""
    pos, e = t
    return (-pos, sum(e), tuple(-x for x in reversed(e)))


def _axpy(target, vec, c, shift, p):
    """target -= c * x^shift * vec, in place."""
    for (pos, e), v in vec.items():
        key = (pos, tuple(x + y for x, y in zip(e, shift)))
        nc = (target.get(key, 0) - c * v) % p
        if nc:
            target[key] = nc
        else:
            target.pop(key, None)


def _pack(exps):
    """Exponents as one int of 64-bit fields, each exponent below 2^63.

    With G = ``_pack((1,) * n) << 63`` the top bit of every field, a divides b
    iff ``((_pack(b) | G) - _pack(a)) & G == G``: no field borrows from the
    next, and each keeps its top bit iff a_i <= b_i.  Wider exponents raise.
    """
    try:
        return int.from_bytes(array("q", exps), sys.byteorder)
    except OverflowError:
        raise Overflow(
            "exponent %d does not fit the 63-bit field of a packed monomial" % max(exps)
        ) from None


def _unpack(packed, n):
    return tuple(array("q", packed.to_bytes(8 * n, sys.byteorder)))


def _lead_lists(leads):
    """``{position: [(_pack(exponents), index), ...]}`` of a list of leads, in list order."""
    by_pos = {}
    for i, (pos, e) in enumerate(leads):
        by_pos.setdefault(pos, []).append((_pack(e), i))
    return by_pos


def _reduce_vec(vec, by_pos, basis, p, rep=None, reps=None):
    """Full normal form of ``vec`` against a list of monic basis vectors.

    ``by_pos`` holds the leads of ``basis`` per position, as ``_lead_lists``
    builds them; each step clears the largest term by the first basis vector
    in its position's list whose lead divides it, and no other position's
    leads are scanned.  A term is keyed onto a heap when it enters the working
    vector, and popped keys of cancelled terms are skipped.  Each division
    step ``vec -= c * x^shift * basis[i]`` is applied to ``rep`` as
    ``rep -= c * x^shift * reps[i]``, so a ``rep`` that starts as the
    representation of ``vec`` ends as that of the remainder.  Terms introduced
    by a step are strictly smaller than the term being cleared, so a single
    descending sweep terminates.
    """
    work = dict(vec)
    # The smallest key is the largest term: lowest position, highest degree,
    # then degrevlex, which is the lexicographically smallest reversed tuple.
    heap = [(pos, -sum(e), e[::-1], e) for pos, e in work]
    heapify(heap)
    guard = _pack((1,) * len(heap[0][3])) << 63 if heap else 0
    rem = {}
    while heap:
        tpos, _, _, te = heappop(heap)
        t = (tpos, te)
        c = work.get(t)
        if c is None:
            continue
        b = _pack(te) | guard
        for a, i in by_pos.get(tpos, ()):
            if (b - a) & guard == guard:
                shift = _unpack((b - a) ^ guard, len(te))
                for (pos, e), v in basis[i].items():
                    e = tuple(x + y for x, y in zip(e, shift))
                    key = (pos, e)
                    old = work.get(key)
                    nc = ((old or 0) - c * v) % p
                    if nc:
                        work[key] = nc
                        if old is None:
                            heappush(heap, (pos, -sum(e), e[::-1], e))
                    elif old is not None:
                        del work[key]
                if rep is not None:
                    _axpy(rep, reps[i], c, shift, p)
                break
        else:
            rem[t] = work.pop(t)
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
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m in sorted(self.terms, key=drl_key, reverse=True):
            c = self.terms[m]
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "<%s over F_%d[%s]>" % (self, self.ring.p, ",".join(self.ring.variables))


class QuotientRing:
    """A standard-graded quotient R = F_p[x_1..x_n] / I.

    ``ideal_groebner`` holds the reduced degrevlex Groebner basis of I, and
    ``_gb_vecs``/``_gb_leads`` the same basis as monic rank-one vectors with
    their leads listed per position (``_lead_lists``); ``_gb_lead_data`` holds
    each lead's exponents and packed form, for seeding I * ambient.  ``dim`` is
    the Krull dimension, read off the Hilbert numerator of the leading-term
    ideal on first use, so it always matches the basis given.  An empty ideal
    gives the polynomial ring itself.
    """

    __slots__ = (
        "p",
        "variables",
        "n",
        "ideal_gens",
        "ideal_groebner",
        "_zero_exps",
        "_gb_vecs",
        "_gb_leads",
        "_gb_lead_data",
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
        self.ideal_gens = tuple(ideal_gens)
        self.ideal_groebner = tuple(self.convert(g) for g in ideal_groebner)
        self._std_cache = {}
        self._inv_cache = {}
        # _reduce_vec needs monic vectors; a basis given to the constructor may not be.
        self._gb_vecs = []
        for g in self.ideal_groebner:
            inv = self.inverse(g.leading()[1])
            self._gb_vecs.append({(0, m): (c * inv) % p for m, c in g.terms.items()})
        leads = [g.leading()[0] for g in self.ideal_groebner]
        self._gb_lead_data = tuple((e, _pack(e)) for e in leads)
        self._gb_leads = _lead_lists([(0, e) for e in leads])
        self._memo = {}
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {self._zero_exps: 1})

    def numerator(self):
        """Hilbert numerator of R = S/I, HS(R) = N(t) / (1 - t)^n; memoised."""
        if "numerator" not in self._memo:
            leads = [e for e, _ in self._gb_lead_data]
            self._memo["numerator"] = hilbert_numerator(leads, self.n)
        return self._memo["numerator"]

    @property
    def dim(self):
        return numerator_dimension(self.numerator(), self.n)

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
        vec = {(0, m): c for m, c in poly.terms.items()}
        rem = _reduce_vec(vec, self._gb_leads, self._gb_vecs, self.p)
        return Polynomial(self, {m: c for (_, m), c in rem.items()})

    def is_zero_mod(self, poly):
        return not self.nf(poly).terms

    def standard_monomials(self, degree):
        """Exponent tuples of degree ``degree`` outside the leading-term ideal of I."""
        got = self._std_cache.get(degree)
        if got is not None:
            return got
        leads = [e for e, _ in self._gb_lead_data]
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
    The reduced Groebner basis of the ideal is computed eagerly, so the
    returned ring is ready for normal forms, standard-monomial counts, and
    length queries; ``dim`` is read off the basis's leading terms by
    :class:`QuotientRing` itself.
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
    if any(not any(g.leading()[0]) for g in gb):
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
