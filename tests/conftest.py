import warnings

import pytest
from hypothesis import HealthCheck, settings

# hypothesis imports this module to report a failing example, and its libcst
# import warns (mypy_extensions.TypedDict is deprecated); under -W error that
# warning aborts the session instead of reporting the failure.  Import it
# here with that warning ignored; warnings from nullag stay errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "fast",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# the identity properties run under this one in CI (--hypothesis-profile deep)
settings.register_profile("deep", parent=settings.get_profile("fast"), max_examples=500)
settings.load_profile("fast")


@pytest.fixture(scope="session")
def corpus_pairs():
    from corpus import all_pairs

    return all_pairs(seed=0)


@pytest.fixture(scope="session")
def gauge_corpus():
    from corpus import gauge_examples

    return gauge_examples()
