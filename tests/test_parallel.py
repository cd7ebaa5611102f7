import pytest

from ordquant.errors import ChainDivergedError
from ordquant.parallel import ordered_map


def square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative task {x}")
    if x % 3 == 1:
        raise ChainDivergedError(f"task {x}")
    return x * x


@pytest.mark.parametrize("jobs", [1, 2])
def test_listed_errors_take_their_task_place(jobs):
    out = ordered_map(square_or_fail, range(7), jobs, errors=(ChainDivergedError,))
    assert [v if isinstance(v, int) else str(v) for v in out] == [0, "task 1", 4, 9, "task 4", 25, 36]


@pytest.mark.parametrize("jobs", [1, 2])
def test_other_errors_propagate(jobs):
    with pytest.raises(ValueError, match="negative task -3"):
        list(ordered_map(square_or_fail, [0, -3, 3], jobs, errors=(ChainDivergedError,)))
