import pytest

from replalg.homology import cosyzygy
from replalg.modules import projective_module, simple_module
from replalg.quiver import linear_quiver
from replalg.replicated import build_replicated, embed, projective_injectives


@pytest.fixture(scope="module")
def a2_ext_inventory():
    """The extcheck inventory of A2, m=1, inside the ambient A^(3): cosyzygy
    chains of the embedded projectives and simples, and the
    projective-injectives."""
    amb = build_replicated(linear_quiver(2), 3)
    pis = [mod for _, mod in projective_injectives(amb)]
    inventory = []
    for make in (projective_module, simple_module):
        for v in range(2):
            chain = [embed(make(amb.base, v), 0, amb)]
            for _ in range(2):
                nxt = cosyzygy(chain[-1])
                if nxt.dim == 0:
                    break
                chain.append(nxt)
            inventory.extend(chain)
    return inventory + pis, pis
