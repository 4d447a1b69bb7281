"""Shared fixtures: a two-generator basis, the canonical small measures, the
seed-42 suite's decompositions, and empty fresh-pair, fresh-pair covering
and bracket caches around every test."""

import math

import pytest

from natspec import decomposition, spectrum, suite
from natspec.angles import GeneratorBasis
from natspec.measures import make_rho, make_theta0, make_theta1


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test starts and ends with no cached fresh pair, fresh-pair
    covering or spectral bracket, so that spy and call-count tests do not
    depend on the tests run before them."""
    caches = (decomposition._fresh_pair, decomposition._pair_covering, spectrum._memo_bracket)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture()
def walked_brackets(monkeypatch) -> list:
    """The measures whose spectral bracket is walked, not read from the
    memo, in call order."""
    walked = []
    real = spectrum._bracket
    monkeypatch.setattr(spectrum, "_bracket",
                        lambda m, max_grid: walked.append(m) or real(m, max_grid))
    return walked


@pytest.fixture(scope="session")
def basis() -> GeneratorBasis:
    return GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))


@pytest.fixture(scope="session")
def theta0(basis):
    return make_theta0(basis)


@pytest.fixture(scope="session")
def theta1(basis):
    return make_theta1(basis)


@pytest.fixture(scope="session")
def rho(basis):
    return make_rho(basis.generator("a"), basis.generator("b"), basis)


@pytest.fixture()
def suite_verifications(monkeypatch) -> list:
    """(mu, result, report) of each verification in the seed-42 suite's
    decomposition step, at N = 8192 and tol 0.05."""
    calls = []
    real = suite.verify_decomposition

    def spy(mu, result, **kwargs):
        report = real(mu, result, **kwargs)
        calls.append((mu, result, report))
        return report

    monkeypatch.setattr(suite, "verify_decomposition", spy)
    assert suite.run_suite(42)[0]
    monkeypatch.undo()
    assert len(calls) == 2
    return calls
