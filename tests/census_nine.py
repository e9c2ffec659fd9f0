"""The n = 9 lambda census against its golden table: about 15 s with two
shards, so it is left out of the default run (pytest collects only test_*.py
from tests/).  Run it by path:

    PYTHONPATH=src python -m pytest -q tests/census_nine.py
"""

from golden import CENSUS_9
from ramapoly.trees import _k_lambda_counts


def test_census_at_nine_matches_golden():
    assert _k_lambda_counts(9) == CENSUS_9
