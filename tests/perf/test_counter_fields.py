"""Field coverage of the counter arithmetic.

``Traffic`` and ``TagStats`` spell out every field in their arithmetic
instead of reflecting over ``dataclasses.fields`` on each call.  These
tests give every declared field a distinct value, so a field added to
the dataclass but missed by any operation fails here.
"""

import dataclasses

import pytest

from repro.perf.counters import TagStats, Traffic

COUNTERS = [Traffic, TagStats]


def _distinct(cls, base):
    names = [f.name for f in dataclasses.fields(cls)]
    return {name: base * (index + 2) + index for index, name in enumerate(names)}


@pytest.fixture(params=COUNTERS, ids=lambda cls: cls.__name__)
def operands(request):
    cls = request.param
    a, b = _distinct(cls, 1000), _distinct(cls, 7)
    return cls, a, b


def test_as_dict_lists_every_field_in_order(operands):
    cls, a, _ = operands
    assert list(cls(**a).as_dict().items()) == list(a.items())


def test_add(operands):
    cls, a, b = operands
    total = cls(**a) + cls(**b)
    assert type(total) is cls
    assert total.as_dict() == {name: a[name] + b[name] for name in a}


def test_iadd_accumulates_in_place(operands):
    cls, a, b = operands
    left = cls(**a)
    same = left
    left += cls(**b)
    assert left is same
    assert dataclasses.asdict(left) == {name: a[name] + b[name] for name in a}


def test_sub(operands):
    cls, a, b = operands
    delta = cls(**a).sub(cls(**b))
    assert dataclasses.asdict(delta) == {name: a[name] - b[name] for name in a}


def test_copy_is_equal_and_independent(operands):
    cls, a, _ = operands
    original = cls(**a)
    duplicate = original.copy()
    assert duplicate == original and duplicate is not original
    assert dataclasses.asdict(duplicate) == a


def test_scaled(operands):
    cls, a, _ = operands
    scaled = cls(**a).scaled(3)
    assert dataclasses.asdict(scaled) == {name: 3 * a[name] for name in a}
    with pytest.raises(ValueError):
        cls(**a).scaled(-1)
