"""Built-in arrangements used by the command line tool and the test sweeps.

``BUILTINS`` maps each name to its generator; a builtin takes ``--m``
exactly when its generator takes a parameter.
"""

from __future__ import annotations

import inspect
from typing import Callable

from .geometry import ProjArrangement

__all__ = ["BUILTINS", "BadParameterError", "build_named", "sweep_members",
           "braid_a3", "pencil", "near_pencil", "generic", "fermat", "fig3", "b3", "deleted_b3",
           "pappus"]


class BadParameterError(ValueError):
    """Missing, extraneous, or unrealizable size parameter."""


def braid_a3() -> ProjArrangement:
    """The six lines x, y, z, x-y, x-z, y-z."""
    return ProjArrangement.from_coeffs(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    )


def pencil(m: int) -> ProjArrangement:
    """m lines through the single point (0:0:1)."""
    if m < 3:
        raise BadParameterError(f"pencil needs m >= 3, got {m}")
    return ProjArrangement.from_coeffs([(0, 1, 0)] + [(1, -k, 0) for k in range(m - 1)])


def near_pencil(m: int) -> ProjArrangement:
    """m - 1 lines through (0:0:1) plus the transversal z."""
    if m < 3:
        raise BadParameterError(f"near-pencil needs m >= 3, got {m}")
    return ProjArrangement.from_coeffs(
        [(0, 1, 0)] + [(1, -k, 0) for k in range(m - 2)] + [(0, 0, 1)]
    )


def generic(m: int) -> ProjArrangement:
    """m lines tangent to a conic: no three concurrent, all points double."""
    if m < 3:
        raise BadParameterError(f"generic needs m >= 3, got {m}")
    return ProjArrangement.from_coeffs([(1, t, t * t) for t in range(m)])


def fermat(m: int) -> ProjArrangement:
    """The 3m lines splitting x^m - y^m, y^m - z^m, x^m - z^m.

    Rational line factors exist only for m <= 2, larger m is rejected.
    """
    if m not in (1, 2):
        raise BadParameterError(
            f"fermat arrangement is rational only for m in (1, 2), got {m}"
        )
    if m == 1:
        return ProjArrangement.from_coeffs([(1, -1, 0), (0, 1, -1), (1, 0, -1)])
    return ProjArrangement.from_coeffs(
        [(1, -1, 0), (1, 1, 0), (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1)]
    )


def fig3() -> ProjArrangement:
    """Five affine lines plus the infinity line z: two horizontals y = 1, 2,
    the diagonal y = x, and two verticals x = 1, 2.

    Deconed at line 0 this has parallel classes {1,2}, {3}, {4,5}.
    """
    return ProjArrangement.from_coeffs(
        [(0, 0, 1), (0, 1, -1), (0, 1, -2), (1, -1, 0), (1, 0, -1), (1, 0, -2)]
    )


def b3() -> ProjArrangement:
    """x, y, z, x±y, x±z, y±z: 3 quadruple, 4 triple and 6 double points."""
    return ProjArrangement.from_coeffs([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
                                        (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)])


def deleted_b3() -> ProjArrangement:
    """x, y, z, x-y, x-z, y-z, x-y-z, x-y+z: 1 quadruple, 6 triple, 4 double points."""
    return ProjArrangement.from_coeffs([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
                                        (0, 1, -1), (1, -1, -1), (1, -1, 1)])


def pappus() -> ProjArrangement:
    """The Pappus configuration: 9 lines, 9 triple and 9 double points."""
    return ProjArrangement.from_coeffs([(0, 1, 0), (0, 1, -1), (1, -2, 3), (1, -4, 3), (1, 1, 1),
                                        (1, -2, 1), (1, 2, 0), (1, 1, 0), (1, 4, -1)])


BUILTINS: dict[str, Callable[..., ProjArrangement]] = {
    "braid-a3": braid_a3,
    "pencil": pencil,
    "near-pencil": near_pencil,
    "generic": generic,
    "fermat": fermat,
    "fig3": fig3,
    "b3": b3,
    "deleted-b3": deleted_b3,
    "pappus": pappus,
}


def build_named(name: str, m: int | None = None) -> ProjArrangement:
    """Instantiate a catalog entry by name, with its size parameter if any."""
    if name not in BUILTINS:
        raise BadParameterError(
            f"unknown builtin {name!r}; choose from {sorted(BUILTINS)}"
        )
    generator = BUILTINS[name]
    if inspect.signature(generator).parameters:
        if m is None:
            raise BadParameterError(f"builtin {name!r} needs --m")
        return generator(m)
    if m is not None:
        raise BadParameterError(f"builtin {name!r} takes no --m")
    return generator()


def sweep_members() -> list[tuple[str, ProjArrangement]]:
    """Every catalog instance with at most 12 lines, for test sweeps."""
    members = [("braid-a3", braid_a3()), ("fig3", fig3()), ("fermat-2", fermat(2)),
               ("deleted-b3", deleted_b3()), ("b3", b3()), ("pappus", pappus()),
               ("fermat-1", fermat(1))]
    for m in range(3, 13):
        members.append((f"pencil-{m}", pencil(m)))
        members.append((f"near-pencil-{m}", near_pencil(m)))
        members.append((f"generic-{m}", generic(m)))
    return members
