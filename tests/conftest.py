import pytest
from hypothesis import settings

from afpath import builtin_diagram

# ``--hypothesis-profile=deep`` runs each property test on many more fresh
# examples, with no example database, so a divergence that a default run
# meets only by chance shows up.  The default profile is left as it is.
settings.register_profile("deep", max_examples=2000, database=None, deadline=None)


@pytest.fixture(scope="session")
def car():
    return builtin_diagram("car")


@pytest.fixture(scope="session")
def pascal():
    return builtin_diagram("pascal")


@pytest.fixture(scope="session")
def fibonacci():
    return builtin_diagram("fibonacci")


@pytest.fixture(scope="session")
def uhf3():
    return builtin_diagram("uhf3")


@pytest.fixture(scope="session")
def builtins(car, pascal, fibonacci, uhf3):
    return {"car": car, "pascal": pascal, "fibonacci": fibonacci, "uhf3": uhf3}
