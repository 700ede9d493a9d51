import collections
import functools
import pathlib
import weakref

import pytest

from gsi import constructors, duality, ideal
from gsi.ideal import Tables, frobenius

TABLES = ("fiber_table", "open_table", "fiber_layers", "p1")

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def n1():
    return constructors.numerical([3, 4, 5])


@pytest.fixture(scope="session")
def n2():
    return constructors.numerical([2, 3])


@pytest.fixture(scope="session")
def node2():
    return constructors.node(2)


@pytest.fixture(scope="session")
def node3():
    return constructors.node(3)


@pytest.fixture(scope="session")
def ex2():
    return constructors.from_small_elements(
        2, (0, 0), (5, 5), {(0, 0), (3, 3), (3, 4), (4, 3), (5, 5)})


@pytest.fixture(scope="session")
def prod22():
    n2 = constructors.numerical([2, 3])
    return constructors.product(n2, n2)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture
def canonical_runs(monkeypatch):
    """The ideals S, one entry per run, whose K(S) body runs during the test.

    The body reads S's empty mask reflected at frobenius(S) over S's own
    grid [m_S - e, c_S], whose top is S.c.  A fiber region over S reflects
    at some f with top f + 2e - m_S, never f + e, since an argument of
    canonical_ideal holds 0 (m_S <= 0).
    Count with ``is``: value-equal copies are distinct runs.
    """
    runs = []

    def counted(E, f, lo, hi, original=duality._empty_mask):
        if hi == E.c and f == frobenius(E):
            runs.append(E)
        return original(E, f, lo, hi)

    monkeypatch.setattr(duality, "_empty_mask", counted)
    return runs


@pytest.fixture
def holders(monkeypatch):
    """An empty registry of fiber-table holders (``ideal._holders``) for
    the test, so that its reps share tables only with one another; clearing
    it gives the next rep read a holder of its own."""
    registry = weakref.WeakValueDictionary()
    monkeypatch.setattr(ideal, "_holders", registry)
    return registry


@pytest.fixture
def table_builds(holders, monkeypatch):
    """The tables and layers built during the test, in an empty holder
    registry, counted per (name, dims, grid)."""
    builds = collections.Counter()
    for name in TABLES:
        def counted(self, build=vars(Tables)[name].func, name=name):
            builds[name, self.layout.dims, self.grid] += 1
            return build(self)
        prop = functools.cached_property(counted)
        prop.__set_name__(Tables, name)
        monkeypatch.setattr(Tables, name, prop)
    return builds
