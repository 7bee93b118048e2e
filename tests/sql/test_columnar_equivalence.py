"""Columnar equivalence properties: columnar ≡ row-path ≡ naive.

The columnar access path must be invisible in every result: for any
generated statement over a plain relation, the planner's vectorized
path (column arrays + selection vectors, late materialization) has to
agree byte-for-byte with the row-at-a-time planned path, the
unoptimized plan (``planner=False``), and the naive AST-walking
reference.  Access-path choice ignores relation size, so even the tiny
generated relations take the columnar path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.experiments.naive import naive_execute
from repro.sql import clear_plan_cache, execute

from tests.sql.test_planner_equivalence import (
    canonical,
    plain_relations,
    statements,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def assert_columnar_three_way(sql, relation):
    clear_plan_cache()
    columnar_cold = canonical(execute(sql, relation))
    columnar_cached = canonical(execute(sql, relation))  # plan-cache hit
    row_planned = canonical(execute(sql, relation, columnar=False))
    unplanned = canonical(execute(sql, relation, planner=False))
    naive = canonical(naive_execute(sql, relation))
    assert columnar_cold == columnar_cached
    assert columnar_cold == row_planned
    assert columnar_cold == unplanned
    assert columnar_cold == naive


class TestColumnarEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(plain_relations(), statements(quality=False))
    def test_plain(self, relation, sql):
        assert_columnar_three_way(sql, relation)
