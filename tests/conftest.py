import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("fast")


@pytest.fixture(scope="session")
def corpus_pairs():
    from corpus import all_pairs

    return all_pairs(seed=0)


@pytest.fixture(scope="session")
def gauge_corpus():
    from corpus import gauge_examples

    return gauge_examples()
