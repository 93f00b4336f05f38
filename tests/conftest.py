import pytest

from replalg.algebra import AlgebraData
from replalg.quiver import kronecker, linear_quiver
from replalg.replicated import auslander_generator
from support import ext_inventory


@pytest.fixture(scope="session")
def kronecker_m1_bundle():
    """The generator-cogenerator M of A^(1) for the Kronecker quiver."""
    return auslander_generator(kronecker(), 1)


@pytest.fixture(scope="module")
def a2_ext_inventory():
    """The extcheck inventory of A2, m=1, inside the ambient A^(3): cosyzygy
    chains of the embedded projectives and simples, and the
    projective-injectives."""
    return ext_inventory(linear_quiver(2), 1)


@pytest.fixture(scope="module")
def local_corner_algebra():
    """Two-cycle a: 1 -> 2, b: 2 -> 1 with b*a = 0, in the basis e1, e2, a, b,
    d = e1 + a*b: the corner at 1 is span{e1, d}, dual numbers, with radical
    spanned by the non-unit vector d - e1 = a*b."""
    e1, e2, x, y, d = range(5)
    mult = [[() for _ in range(5)] for _ in range(5)]
    mult[e1][e1], mult[e1][x], mult[e1][d], mult[d][e1] = ((e1, 1),), ((x, 1),), ((d, 1),), ((d, 1),)
    mult[d][d], mult[d][x], mult[y][d] = ((e1, -1), (d, 2)), ((x, 1),), ((y, 1),)
    mult[x][e2], mult[x][y], mult[e2][e2] = ((x, 1),), ((e1, -1), (d, 1)), ((e2, 1),)
    mult[e2][y], mult[y][e1] = ((y, 1),), ((y, 1),)
    return AlgebraData(["e1", "e2", "a", "b", "e1+ab"], mult, [1, 1, 0, 0, 0],
                       [("1", [1, 0, 0, 0, 0]), ("2", [0, 1, 0, 0, 0])])
