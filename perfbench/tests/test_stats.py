import pytest

import stats


def test_high_percentile_keeps_ten_samples_beyond_it():
    for n in (21, 25, 100, 706, 1500):
        pct = stats.high_percentile(n)
        values = list(range(n))
        beyond = sum(v > stats.percentile(values, pct) for v in values)
        assert beyond >= stats.TAIL_SAMPLES
        # the next whole percentile up would leave fewer than ten
        above = sum(v > stats.percentile(values, pct + 1) for v in values)
        assert above < stats.TAIL_SAMPLES


@pytest.mark.parametrize("n", [1, 9, 19, 20])
def test_small_samples_report_only_the_median(n):
    assert stats.high_percentile(n) is None
    assert set(stats.summarize(range(n))) == {"n", "p50", "mean"}


def test_summarize_names_the_percentile_it_reports():
    s = stats.summarize(range(1, 101))
    assert (s["n"], s["p50"], s["hi_pct"], s["hi"]) == (100, 50.5, 90.0, 90)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
