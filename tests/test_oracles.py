"""Second routes to the library's answers that share none of its shortcuts.

An invertible linear change of coordinates g over F_p preserves every answer
of the library: (sum a_j x_j)^q = sum a_j x_j^q in characteristic p, so g maps
J^[q] to g(J)^[q] and m^[q] to itself.  Dense coordinates fill long lead
lists at many positions, where the divisor index of ``LeadList`` answers.
Diagonal hypersurfaces have a second exact Hilbert-Kunz route
(``diagonal_hk``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobetti import decide_beta_vanishing, hk_sequence, make_ring, quotient_module, resolve
from frobetti.homology import tor_length

from conftest import R5_QUADRICS, diagonal_hk, residue_field
from reference import random_instances


def _is_invertible(g, p):
    rows = [list(r) for r in g]
    n = len(rows)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return True


def _coordinate_changes(p, n):
    """Matrices g in GL_n(F_p), as rows (x_i goes to sum_j g[i][j] x_j),
    with uniform entries, so the coordinates are dense."""

    def draw(seed):
        rng = random.Random(seed)
        while True:
            g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if _is_invertible(g, p):
                return g

    return st.integers(0, 2**32).map(draw)


def _transform(polys, g, ring):
    """Each polynomial (text or ``Polynomial``) of ``ring``'s variables with
    x_i replaced by sum_j g[i][j] x_j, over ``ring``'s polynomial ring."""
    S = make_ring(ring.p, ring.variables, [])
    n = len(ring.variables)
    images = [
        sum((S.monomial([int(k == j) for k in range(n)], g[i][j]) for j in range(n)), S.zero)
        for i in range(n)
    ]
    out = []
    for f in polys:
        f = S.poly(f)
        total = S.zero
        for m, c in f.terms.items():
            term = S.constant(c)
            for image, e in zip(images, m):
                term = term * image**e
            total = total + term
        out.append(total)
    return out


def _changed_ring(ring, gens, g):
    return make_ring(ring.p, ring.variables, _transform(gens, g, ring))


_TWO_VARIABLE_IDEALS = {"R1": ["x^2", "x*y"], "R3": ["x*y"], "R4": ["x^2"]}


@settings(max_examples=6, deadline=None)
@given(_coordinate_changes(5, 2), st.sampled_from(sorted(_TWO_VARIABLE_IDEALS)))
def test_betti_numbers_of_the_two_variable_fixtures_ignore_coordinates(g, name):
    gens = _TWO_VARIABLE_IDEALS[name]
    ring = make_ring(5, ["x", "y"], gens)
    changed = _changed_ring(ring, gens, g)
    assert resolve(residue_field(changed), 3).betti == resolve(residue_field(ring), 3).betti


@settings(max_examples=2, deadline=None)
@given(_coordinate_changes(101, 5))
def test_betti_numbers_of_r5_ignore_coordinates(R5, g):
    changed = _changed_ring(R5, R5_QUADRICS, g)
    assert resolve(residue_field(changed), 3).betti == (1, 5, 22, 96)


@settings(max_examples=2, deadline=None)
@given(_coordinate_changes(5, 3))
def test_hk_and_tor_lengths_of_the_f5_cubic_ignore_coordinates(g):
    cubic = ["x^3 + y^3 + z^3"]
    ring = make_ring(5, list("xyz"), cubic)
    changed = _changed_ring(ring, cubic, g)
    levels = [1, 2]
    assert hk_sequence(changed, list("xyz"), levels).raw_values() == [55, 1405]
    for i in (1, 2):
        assert [tor_length(residue_field(changed), i, e) for e in levels] == [
            tor_length(residue_field(ring), i, e) for e in levels
        ]


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_beta_vanishing_decisions_ignore_coordinates(data):
    instances = [(ring, module) for ring, module in random_instances(11, 30) if ring.dim == 1]
    ring, module = data.draw(st.sampled_from(instances))
    g = data.draw(_coordinate_changes(ring.p, ring.n))
    changed = _changed_ring(ring, ring.ideal_gens, g)
    moved = quotient_module(changed, _transform([col[0] for col in module.columns], g, ring))
    for i in (0, 1):
        assert decide_beta_vanishing(moved, i) == decide_beta_vanishing(module, i)


@pytest.mark.parametrize(
    "p, degrees",
    [(5, (3, 3, 3)), (7, (3, 3, 3)), (7, (2, 2, 2))],
)
def test_hk_of_diagonal_hypersurfaces_matches_the_han_monsky_splitting(p, degrees):
    form = " + ".join("%s^%d" % (v, d) for v, d in zip("xyz", degrees))
    ring = make_ring(p, list("xyz"), [form])
    levels = [1, 2, 3]
    expected = [diagonal_hk(p, degrees, p**e) for e in levels]
    assert hk_sequence(ring, list("xyz"), levels).raw_values() == expected
