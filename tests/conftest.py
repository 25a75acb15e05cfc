from __future__ import annotations

import pytest

from resint.poset import StraighteningRelation
from resint.residual import build_instance
from resint.ring import GF


@pytest.fixture(scope="session")
def inst42():
    return build_instance(4, 2)


@pytest.fixture(scope="session")
def inst33():
    return build_instance(3, 3)


@pytest.fixture(scope="session")
def inst32():
    return build_instance(3, 2)


@pytest.fixture(scope="session")
def inst22():
    return build_instance(2, 2)


@pytest.fixture(scope="session")
def fp():
    return GF(32003)


@pytest.fixture
def reexpansions(monkeypatch) -> list:
    """Every relation that `StraighteningRelation.verify` re-expands."""
    seen = []
    real = StraighteningRelation._reexpands

    def counted(rel, instance):
        seen.append(rel)
        return real(rel, instance)

    monkeypatch.setattr(StraighteningRelation, "_reexpands", counted)
    return seen
