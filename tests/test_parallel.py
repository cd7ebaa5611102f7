import pytest

from ordquant.parallel import ordered_map


def square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative task {x}")
    return x * x


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_in_task_order(jobs):
    assert list(ordered_map(square_or_fail, range(7), jobs)) == [x * x for x in range(7)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_errors_propagate(jobs):
    with pytest.raises(ValueError, match="negative task -3"):
        list(ordered_map(square_or_fail, [0, -3, 3], jobs))
