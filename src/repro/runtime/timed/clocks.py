"""Hardware clocks and the scaling algebra (Section 7).

A hardware clock is a real-valued, invertible, increasing function of
real time.  Theorem 8's construction needs exact composition and
inversion — the ring of covering nodes runs clocks ``q ∘ h⁻ⁱ`` with
``h = p⁻¹ ∘ q`` — so clocks here form a small closed algebra:

* :class:`LinearClock` — ``t ↦ rate·t + offset`` (closed under inverse
  and composition; covers Corollaries 12–14);
* :class:`PowerClock` — ``t ↦ scale·t^exponent`` on ``t > 0`` (for
  nonlinear examples);
* :class:`ComposedClock` / :func:`iterate` — formal compositions,
  with algebraic simplification for linear chains.

All clocks support ``__call__``, :meth:`ClockFunction.inverse`, and
:meth:`ClockFunction.then`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


class ClockError(ValueError):
    """Raised for invalid clock constructions (non-increasing, etc.)."""


class ClockFunction(abc.ABC):
    """An increasing, invertible function of time."""

    @abc.abstractmethod
    def __call__(self, t: float) -> float:
        """The clock reading at real time ``t``."""

    @abc.abstractmethod
    def inverse(self) -> "ClockFunction":
        """The functional inverse."""

    def then(self, outer: "ClockFunction") -> "ClockFunction":
        """``outer ∘ self``: apply ``self`` first, then ``outer``."""
        return compose(outer, self)

    def iterate(self, times: int) -> "ClockFunction":
        """``self`` composed with itself ``times`` times.

        Negative ``times`` iterates the inverse; zero is the identity.
        """
        base = self if times >= 0 else self.inverse()
        return base.powers(abs(times) + 1)[-1]

    def powers(self, count: int) -> list["ClockFunction"]:
        """``[self⁰, self¹, …, self^(count-1)]`` in ``O(count)``
        compositions, each power composed onto the previous one.

        ``powers(n)[i]`` is built exactly as ``iterate(i)`` builds it,
        so the two agree bit for bit (Theorem 8's ring of clocks
        ``q ∘ h⁻ⁱ`` takes its ``h⁻ⁱ`` from ``h.inverse().powers(n)``).
        """
        result = [identity()]
        if count > 1:
            result.append(self)
        while len(result) < count:
            result.append(compose(self, result[-1]))
        return result


@dataclass(frozen=True)
class LinearClock(ClockFunction):
    """``t ↦ rate · t + offset`` with ``rate > 0``."""

    rate: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ClockError("clock rate must be positive")

    def __call__(self, t: float) -> float:
        return self.rate * t + self.offset

    def inverse(self) -> "LinearClock":
        return LinearClock(rate=1.0 / self.rate, offset=-self.offset / self.rate)

    def __repr__(self) -> str:
        return f"LinearClock({self.rate} * t + {self.offset})"


def identity() -> LinearClock:
    """The identity clock (perfect real-time clock)."""
    return LinearClock(1.0, 0.0)


@dataclass(frozen=True)
class PowerClock(ClockFunction):
    """``t ↦ scale · t^exponent`` for ``t > 0``; increasing when both
    parameters are positive."""

    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.exponent <= 0:
            raise ClockError("scale and exponent must be positive")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ClockError("PowerClock is defined for t >= 0 only")
        return self.scale * (t ** self.exponent)

    def inverse(self) -> "PowerClock":
        return PowerClock(
            scale=self.scale ** (-1.0 / self.exponent),
            exponent=1.0 / self.exponent,
        )


class ComposedClock(ClockFunction):
    """Formal composition ``outer ∘ inner``."""

    def __init__(self, outer: ClockFunction, inner: ClockFunction) -> None:
        self._outer = outer
        self._inner = inner

    def __call__(self, t: float) -> float:
        return self._outer(self._inner(t))

    def inverse(self) -> ClockFunction:
        return ComposedClock(self._inner.inverse(), self._outer.inverse())

    def __repr__(self) -> str:
        return f"({self._outer!r} ∘ {self._inner!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComposedClock):
            return NotImplemented
        return self._outer == other._outer and self._inner == other._inner

    def __hash__(self) -> int:
        return hash((ComposedClock, self._outer, self._inner))


def compose(outer: ClockFunction, inner: ClockFunction) -> ClockFunction:
    """``outer ∘ inner``, simplified when both are linear."""
    if isinstance(outer, LinearClock) and isinstance(inner, LinearClock):
        return LinearClock(
            rate=outer.rate * inner.rate,
            offset=outer.rate * inner.offset + outer.offset,
        )
    return ComposedClock(outer, inner)


def drift_map(p: ClockFunction, q: ClockFunction) -> ClockFunction:
    """The paper's ``h = p⁻¹ ∘ q``; satisfies ``h(t) >= t`` when
    ``p(t) <= q(t)`` for all ``t``."""
    return compose(p.inverse(), q)


def verify_clock_order(
    p: ClockFunction,
    q: ClockFunction,
    sample_times: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0),
) -> None:
    """Sanity check ``p(t) <= q(t)`` at sample times; raise otherwise."""
    for t in sample_times:
        if p(t) > q(t) + 1e-12:
            raise ClockError(
                f"clock order violated: p({t}) = {p(t)} > q({t}) = {q(t)}"
            )
