import sys
import weakref
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from schurlab import enumerate_catalog, liealg, multiplier_report


@pytest.fixture(scope="session")
def catalog6():
    """Every catalog entry up to dimension 6, as (name, algebra) pairs."""
    return enumerate_catalog(6)


@pytest.fixture(scope="session")
def reports6(catalog6):
    """Full multiplier reports for the dimension-6 catalog, by name."""
    return {name: multiplier_report(algebra) for name, algebra in catalog6}


@pytest.fixture
def empty_memos(monkeypatch):
    """An empty per-value memo registry for one test.  The session
    fixtures keep algebras alive, and with them the memos of every
    equal algebra; an algebra built under this fixture shares none of
    them, so its memoised values are computed again."""
    registry = weakref.WeakKeyDictionary()
    monkeypatch.setattr(liealg, "_MEMOS", registry)
    return registry
