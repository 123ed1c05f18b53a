"""The shared conditioning kernel behind the SP, EO and KS gaps, and NaN
scores at the metric boundary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_toy_dataset
from fairpen import metrics
from fairpen.errors import DegenerateMetricError, DivergenceError, UndefinedMetricError
from fairpen.training import evaluate_snapshot


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except (DegenerateMetricError, UndefinedMetricError) as exc:
        return type(exc)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_unconditional_forms_equal_conditional_with_one_outcome_level(data):
    n = data.draw(st.integers(2, 40))
    column = st.lists(st.integers(0, 10), min_size=n, max_size=n).map(lambda v: np.array(v) / 10)
    s, a_cont = data.draw(column), data.draw(column)
    a_disc = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    a_bin = np.minimum(a_disc, 1)
    yhat = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    zeros = np.zeros(n)
    grid = metrics.quantile_grid(a_cont)
    for unconditional, conditional, values in ((metrics.ks_gsp, metrics.ks_geo, s), (metrics.sp, metrics.eo, yhat)):
        for a, kind in ((a_disc, "discrete"), (a_bin, "discrete"), (a_cont, "continuous")):
            assert _outcome(unconditional, values, a, kind, grid) == _outcome(
                conditional, values, a, zeros, kind, grid
            )


def test_nan_score_is_undefined_for_auc_and_threshold():
    s = np.array([np.nan, 0.2, 0.8, np.nan])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(UndefinedMetricError, match="NaN"):
        metrics.auc(s, y)
    with pytest.raises(UndefinedMetricError, match="NaN"):
        metrics.choose_threshold(s, y)


def test_nan_score_is_degenerate_for_ks():
    s = np.array([0.1, np.nan, 0.3, 0.4])
    with pytest.raises(DegenerateMetricError, match="NaN"):
        metrics.ks_gsp(s, np.array([0, 0, 1, 1]), "discrete")
    # the cell A=0, Y=0 holds only 0.1; its reference, the Y=0 rows, holds the NaN
    with pytest.raises(DegenerateMetricError, match="NaN"):
        metrics.ks_geo(s, np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))


class _NanScorer:
    """Stands in for a scorer whose forward pass overflowed on one row."""

    def forward(self, x, train=False):
        out = np.linspace(0.1, 0.9, len(x)).reshape(-1, 1)
        out[0] = np.nan
        return out


def test_evaluate_snapshot_refuses_nan_scores():
    """A NaN score is refused where it leaves the scorer, naming how many
    rows, instead of reaching the metrics as NaN cells."""
    with pytest.raises(DivergenceError, match=r"^1 of 60 rows scored non-finite$"):
        evaluate_snapshot(_NanScorer(), binary_toy_dataset(60))
