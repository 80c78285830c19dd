"""Shared exception types, and the size model every budget reads: a plan
lists what a run, or one builder, holds at once, each `Array` named with
the config key that sizes it, and the `Work` counts of steps it takes."""

from math import prod
from typing import NamedTuple

BYTE_BUDGET = 2**30  # bytes the arrays of one plan may hold together
WORK_BUDGET = 10**7  # steps one work count of a plan may take, unless it names its own limit

# bytes per entry: numpy's dtypes; a Python float in a list (the object and its
# slot), a Python int's, and a slot whose object is counted elsewhere
ITEMSIZE = {"bool": 1, "uint8": 1, "uint16": 2, "uint32": 4, "int64": 8, "uint64": 8, "float64": 8,
            "pyfloat": 32, "pyint": 36, "pyslot": 8}


class BudgetError(Exception):
    """An enumeration or experiment would exceed its configured budget."""


class AbsoluteContinuityError(ValueError):
    """A prior puts mass where its reference measure has none."""


class Array(NamedTuple):
    name: str
    shape: tuple[int, ...]
    dtype: str
    key: str

    @property
    def nbytes(self) -> int:
        return prod(self.shape) * ITEMSIZE[self.dtype]


class Work(NamedTuple):
    name: str
    count: int
    key: str
    limit: int = WORK_BUDGET


def capped_power(base: int, exp: int) -> int:
    """base**exp, exp cut at BYTE_BUDGET's bit length: past it any base >= 2 passes every budget."""
    return base ** min(exp, BYTE_BUDGET.bit_length())


def plan_bytes(plan) -> int:
    return sum(entry.nbytes for entry in plan if isinstance(entry, Array))


def check_plan(plan) -> list:
    """`plan`, after a BudgetError naming the config key when a work count passes its limit, or
    when its arrays together pass BYTE_BUDGET: then the message names the largest array."""
    for work in plan:
        if isinstance(work, Work) and work.count > work.limit:
            raise BudgetError(f"'{work.key}': {work.count} {work.name} exceed the limit of {work.limit}")
    if plan_bytes(plan) > BYTE_BUDGET:
        big = max((entry for entry in plan if isinstance(entry, Array)), key=lambda entry: entry.nbytes)
        raise BudgetError(
            f"'{big.key}': the plan holds {plan_bytes(plan)} bytes, over the budget of {BYTE_BUDGET};"
            f" its largest array, {big.name}, holds {'x'.join(map(str, big.shape))} {big.dtype}"
            f" ({big.nbytes} bytes)"
        )
    return list(plan)
