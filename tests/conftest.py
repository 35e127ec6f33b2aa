import pytest

from scimetrics.indices import CitationProfile

pytest_plugins = ["pytester"]

# Three demonstration profiles: a top paper that is not dominant (k=0),
# moderately dominant (k=2), and strongly dominant (k=3).
CASE_NO_WEIGHT = (15, 13, 10, 7, 3, 2, 1, 1, 1, 0)
CASE_WEIGHT_2 = (65, 9, 8, 7, 5, 5, 2, 2, 1, 0)
CASE_WEIGHT_3 = (205, 150, 85, 40, 25, 5, 4, 4, 2, 1)


@pytest.fixture
def golden_profiles():
    return {
        "case1": CitationProfile(CASE_NO_WEIGHT),
        "case2": CitationProfile(CASE_WEIGHT_2),
        "case3": CitationProfile(CASE_WEIGHT_3),
    }
