"""Minimal graded free resolutions, complex minimization, syzygy data.

A ``FreeComplex`` stores free modules G_0 .. G_L with maps phi_j : G_j ->
G_{j-1} only as lists of engine column vectors; ``matrix(j)`` builds
``Polynomial`` columns on demand, and syzygy presentations take the stored
vectors as they are, with lengths and dimensions from Hilbert series alone.
``resolve`` builds a minimal resolution one kernel at a time on vectors:
syzygy generators of phi_j are pruned to a minimal generating set, which
keeps every matrix entry inside the irrelevant ideal; unit entries of
phi_1, and of complexes given to ``minimize``, split off on vectors too.
Syzygies use the image convention Omega_i = im(phi_i), with Omega_0 = M.
"""

from .errors import NotHomogeneous
from .groebner import (
    INFINITE,
    _minimal_generator_indices,
    _normalize_columns,
    _syzygy_vecs,
    numerator_length,
    vec_to_column,
    vec_to_strings,
)
from .ring import _axpy, numerator_dimension


class FreeComplex:
    """A chain complex of free modules over a quotient ring.

    ``maps[j]`` (j = 1..L) lists the columns of phi_j as engine vectors,
    shared between complexes and never modified; the constructor also takes
    a column as ``ranks[j-1]`` homogeneous polynomials (``_normalize_columns``).
    ``row_degrees[j]`` carries the twists of G_j, so column c of phi_j has
    degree ``row_degrees[j][c]``.
    """

    __slots__ = ("ring", "ranks", "row_degrees", "maps")

    def __init__(self, ring, ranks, row_degrees, maps):
        self.ring = ring
        self.ranks = list(ranks)
        self.row_degrees = [list(d) for d in row_degrees]
        self.maps = [None] + list(maps)
        for j in range(1, len(self.ranks)):
            mat = self.maps[j]
            if len(mat) != self.ranks[j]:
                raise ValueError("phi_%d has %d columns, expected %d" % (j, len(mat), self.ranks[j]))
            self.maps[j] = _normalize_columns(mat, ring, self.ranks[j - 1], self.row_degrees[j - 1])[0]

    @property
    def length(self):
        return len(self.ranks) - 1

    def vectors(self, j):
        """Columns of phi_j as stored engine vectors; [] outside the stored range."""
        if 1 <= j < len(self.maps):
            return self.maps[j]
        return []

    def matrix(self, j):
        """Columns of phi_j as lists of polynomials, built on each call."""
        return [vec_to_column(v, self.rank(j - 1), self.ring) for v in self.vectors(j)]

    def rank(self, i):
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0

    def degrees(self, i):
        if 0 <= i < len(self.row_degrees):
            return self.row_degrees[i]
        return []

    def check_complex(self):
        """Every consecutive composition is zero modulo the defining ideal."""
        return all(self._composes_to_zero(j) for j in range(1, self.length))

    def _composes_to_zero(self, j):
        """phi_j * phi_{j+1} is zero modulo the defining ideal."""
        ring = self.ring
        unit, top = ring._layout.unit, ring._layout.top
        for vec in self.maps[j + 1]:
            image = {}
            for t, c in vec.items():
                # t is c * x^m * e_r: add c * x^m times column r of phi_j.
                r = -(t >> top)
                _axpy(image, self.maps[j][r], -c, t - unit(r), ring)
            if ring.nf_vec_in_place(image):
                return False
        return True

    def check_homogeneous(self):
        """Every term of column c of phi_j has degree ``row_degrees[j][c]``:
        its own degree plus the twist of its row."""
        layout = self.ring._layout
        for j in range(1, len(self.maps)):
            rows, twists = self.row_degrees[j - 1], self.row_degrees[j]
            for c, vec in enumerate(self.maps[j]):
                degs = {layout.degree(t) + rows[-(t >> layout.top)] for t in vec}
                if degs - {twists[c]}:
                    raise NotHomogeneous(
                        "column %d of phi_%d has degrees %s, twist says %d" % (c, j, sorted(degs), twists[c])
                    )
        return True

    def has_unit_entry(self):
        """Some entry has a nonzero constant term: a term of degree 0."""
        degree = self.ring._layout.degree
        return any(degree(t) == 0 for mat in self.maps[1:] for vec in mat for t in vec)

    def copy(self):
        return FreeComplex(self.ring, self.ranks, self.row_degrees, self.maps[1:])

    def __repr__(self):
        return "<complex of free modules, ranks %s>" % (tuple(self.ranks),)


def minimize(complex_):
    """The complex with its unit entries split off (``_split_units``) on
    copies of the stored vectors, which stay as they were; the homology of a
    complex is unchanged.  A column of two degrees raises
    ``NotHomogeneous``."""
    ranks, degs = list(complex_.ranks), [list(d) for d in complex_.row_degrees]
    maps = [None] + [[dict(v) for v in mat] for mat in complex_.maps[1:]]
    _split_units(complex_.ring, ranks, degs, maps)
    return FreeComplex(complex_.ring, ranks, degs, maps[1:])


def _split_units(ring, ranks, row_degrees, maps):
    """``minimize`` in place on engine vectors: ``maps[j]`` (j >= 1) lists the
    columns of phi_j as dicts this call may change.  Map by map, a column of
    two degrees raises ``NotHomogeneous`` (as in ``column_degree``), so a
    term of degree 0 is a whole entry a * e_r.  The first column c with one,
    at its least row r, splits off: column operations clear row r, one
    ``_axpy`` per term s there (adding s - e_r multiplies by s's monomial);
    then phi_j loses column c and row r, phi_{j+1} row c and phi_{j-1}
    column r.  The row operations that would clear column c, and the
    mirrors on phi_{j+1} and phi_{j-1}, change only what is dropped.  No
    split makes a unit in an earlier map or column.
    """
    layout = ring._layout
    top, degree = layout.top, layout.degree

    def drop(vecs, r):
        # Position r goes; the later positions move up one, adding 1 << top.
        vecs[:] = [
            {t + (1 << top) if -(t >> top) > r else t: v for t, v in vec.items() if -(t >> top) != r}
            for vec in vecs
        ]

    for j in range(1, len(maps)):
        mat, rows, c = maps[j], row_degrees[j - 1], 0
        for vec in mat:
            if len({degree(t) + rows[-(t >> top)] for t in vec}) > 1:
                raise NotHomogeneous("column %s is not homogeneous" % (vec_to_strings(vec, len(rows), ring),))
        while c < len(mat):
            units = [t for t in mat[c] if degree(t) == 0]
            if not units:
                c += 1
                continue
            pivot, u = mat.pop(c), max(units)
            r = -(u >> top)
            w = ring.inverse(pivot[u])
            for vec in mat:
                for s, a in [(s, a) for s, a in vec.items() if -(s >> top) == r]:
                    _axpy(vec, pivot, a * w, s - u, ring)
            drop(mat, r)
            if j + 1 < len(maps):
                drop(maps[j + 1], c)
            if j > 1:
                del maps[j - 1][r]
            ranks[j] -= 1
            ranks[j - 1] -= 1
            del row_degrees[j][c]
            del rows[r]


class MinimalResolution(FreeComplex):
    """A minimal free resolution through a requested homological degree.

    ``betti`` equals the ranks; minimality means no matrix entry has a
    nonzero constant term, which ``resolve`` guarantees by pruning each
    kernel to a minimal generating set.  ``_frobenius`` is the memo of the
    Frobenius twists of the maps and of their cokernel numerators
    (``frobenius.frobenius_vectors``, ``homology``), which ``resolve`` keeps
    beside the module's stored maps.
    """

    __slots__ = ("module", "_checked", "_frobenius")

    def __init__(self, ring, ranks, row_degrees, maps, module, checked=None, frobenius=None):
        super().__init__(ring, ranks, row_degrees, maps)
        self.module = module
        self._checked = checked
        self._frobenius = {} if frobenius is None else frobenius

    def _composes_to_zero(self, j):
        """As for any complex, but ``resolve`` hands over the set of the j
        already checked on the module's stored maps (``checked``), so each
        stored composition is checked once over all its resolutions."""
        checked = self._checked
        if checked is None:
            return super()._composes_to_zero(j)
        if j not in checked and super()._composes_to_zero(j):
            checked.add(j)
        return j in checked

    @property
    def betti(self):
        return tuple(self.ranks)

    def syzygy_numerator(self, i):
        """Hilbert numerator of Omega_i, HS = N(t) / (1 - t)^n, with no engine
        run: HS(M) for i = 0, and for i >= 1 the exact sequence 0 -> Omega_i
        -> G_{i-1} -> Omega_{i-1} -> 0 (exact for i <= ``length``) gives
        N(Omega_i) = sum over the twists tw of G_{i-1} of t^tw * N(R), minus
        N(Omega_{i-1})."""
        if not 0 <= i <= self.length:
            raise ValueError("syzygy %d needs a resolution through step %d" % (i, i))
        num, ring_num = self.module.numerator(), self.ring.numerator()
        for twists in self.row_degrees[:i]:
            free = {}
            for tw in twists:
                for d, c in ring_num.items():
                    free[d + tw] = free.get(d + tw, 0) + c
            for d, c in num.items():
                free[d] = free.get(d, 0) - c
            num = {d: c for d, c in free.items() if c}
        return num

    def syzygy(self, i):
        """Omega_i with its generators, the stored columns of phi_i, in G_{i-1}."""
        j = max(i - 1, 0)
        return SyzygyPresentation(
            i, self.ring, self.rank(j), self.degrees(j), self.vectors(i), self.syzygy_numerator(i)
        )

    def __repr__(self):
        return "<minimal resolution, betti %s>" % (self.betti,)


def resolve(module, steps):
    """Minimal free resolution of a cokernel presentation through ``steps``.

    The returned complex has ranks G_0..G_steps and matrices phi_1..phi_steps;
    exactness ker(phi_j) = im(phi_{j+1}) holds for j < steps by construction.
    phi_1 is the module's minimal generators with unit entries split off, and
    each later map is a minimal generating set of the syzygies of the one
    before.  The ranks, twists and maps are kept on the module and extended
    on later calls; past a zero rank the resolution is padded with zeros.
    The kept vectors are stored as they come, each twisted by the degree of
    its lead, together with the set of the j whose composition phi_j *
    phi_{j+1} ``check_complex`` has checked and the memo of Frobenius twists
    (``MinimalResolution._frobenius``).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if module.mode != "cokernel":
        raise ValueError("resolve expects a cokernel presentation")
    ring = module.ring
    layout = ring._layout
    if module._resolution is None:
        # phi_1: the minimal generators, with their unit entries split off on
        # copies of the vectors (module.vecs is shared) when some entry has a
        # term of degree 0.
        rank, rows = module.ambient_rank, list(module.row_degrees)
        vecs = [module.vecs[i] for i in _minimal_generator_indices(module.vecs, ring, rank, rows)]
        ranks, degs = [rank, len(vecs)], [rows, _twists(vecs, rows, layout)]
        if any(layout.degree(t) == 0 for vec in vecs for t in vec):
            vecs = [dict(v) for v in vecs]
            _split_units(ring, ranks, degs, [None, vecs])
        module._resolution = (ranks, degs, [vecs], set(), {})
    ranks, row_degrees, maps, checked, frobenius = module._resolution
    while len(maps) < steps and ranks[-1]:
        ker = _syzygy_vecs(maps[-1], ring, ranks[-2], row_degrees[-2])
        vecs = [ker[i] for i in _minimal_generator_indices(ker, ring, ranks[-1], row_degrees[-1])]
        row_degrees.append(_twists(vecs, row_degrees[-1], layout))
        maps.append(vecs)
        ranks.append(len(vecs))
    pad = steps + 1 - len(ranks)
    return MinimalResolution(
        ring,
        ranks[: steps + 1] + [0] * pad,
        row_degrees[: steps + 1] + [[]] * pad,
        maps[:steps] + [[]] * pad,
        module,
        checked,
        frobenius,
    )


def _twists(vecs, row_degrees, layout):
    """The degree of each nonzero homogeneous vector: its lead's degree plus
    the twist of the lead's row."""
    return [layout.degree(t) + row_degrees[-(t >> layout.top)] for t in map(max, vecs)]


class SyzygyPresentation:
    """Omega_i = im(phi_i) with its length and dimension.

    ``vecs`` are the generators, the stored columns of phi_i (none for
    Omega_0 = M), in the free module of rank ``ambient_rank`` with twists
    ``row_degrees``; the length and dimension are read off the Hilbert
    numerator ``numerator`` (``MinimalResolution.syzygy_numerator``).
    """

    __slots__ = ("index", "ring", "ambient_rank", "row_degrees", "vecs", "length", "dimension")

    def __init__(self, index, ring, ambient_rank, row_degrees, vecs, numerator):
        self.index = index
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.row_degrees = row_degrees
        self.vecs = vecs
        self.length = numerator_length(numerator, ring.n)
        self.dimension = numerator_dimension(numerator, ring.n)

    @property
    def generators(self):
        """The generators as columns of polynomials, built on each read."""
        return [vec_to_column(v, self.ambient_rank, self.ring) for v in self.vecs]

    def __repr__(self):
        lam = "oo" if self.length is INFINITE else self.length
        return "<syzygy %d: %d generators, length %s, dim %d>" % (
            self.index,
            len(self.vecs),
            lam,
            self.dimension,
        )


def syzygy(module, i):
    """The i-th syzygy (image convention) of the module, from its
    resolution through step i."""
    if i < 0:
        raise ValueError("syzygy index must be nonnegative")
    return resolve(module, i).syzygy(i)
