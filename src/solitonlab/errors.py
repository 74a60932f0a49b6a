"""Error and warning types shared across the package.

Every domain failure raises a subclass of SolitonLabError so the CLI can map
validation problems to a single exit code.  Indices attached to the soliton
errors refer to positions in the caller's parameter list (0-based).
"""

from __future__ import annotations


class SolitonLabError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroDenominator(SolitonLabError):
    """A rational map hit a vanishing denominator."""

    def __init__(self, site: int):
        self.site = site
        super().__init__(f"map denominator vanished at site n={site}")


class WindowTooSmall(SolitonLabError):
    """The lattice window has no room for the requested operation."""


class GridTooSmall(SolitonLabError):
    """A scan grid has too few points to compare neighbours on both halves."""


class NonPositiveParameter(SolitonLabError):
    """A parameter that must be strictly positive is not."""


class InvalidInterval(SolitonLabError):
    """alpha + beta <= 1: the admissible wavenumber interval is empty."""


class ParamOutOfRange(SolitonLabError):
    """A system parameter lies outside its open interval."""


class POutOfRange(SolitonLabError):
    """A wavenumber lies outside (0, alpha + beta - 1)."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"soliton {index}: p outside the admissible interval"
                         + (f" ({detail})" if detail else ""))


class GammaSignCondition(SolitonLabError):
    """gamma_i does not have the sign that makes the mode a soliton."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"soliton {index}: gamma must satisfy "
                         "gamma * (p - midpoint) > 0")


class DegenerateP(SolitonLabError):
    """A wavenumber sits exactly on a degenerate point."""

    def __init__(self, index: int, detail: str = "p equals the interval midpoint"):
        self.index = index
        super().__init__(f"soliton {index}: {detail}")


class DenominatorClash(SolitonLabError):
    """Two modes make a matrix denominator vanish."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"solitons {i} and {j}: denominator vanishes for this pair")


class DuplicateP(SolitonLabError):
    """Two modes share a wavenumber."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"solitons {i} and {j}: duplicated wavenumber")


class ZeroTau(SolitonLabError):
    """A tau function vanished at a lattice point, so x or y is undefined there."""

    def __init__(self, t: int, n: int):
        self.point = (t, n)
        super().__init__(f"tau function vanished at (t={t}, n={n})")


class DrawExhausted(SolitonLabError):
    """A random parameter draw found no admissible value for one mode."""

    def __init__(self, n_modes: int, index: int):
        self.n_modes, self.index = n_modes, index
        super().__init__(f"mode {index} of a {n_modes}-mode draw: no admissible "
                         "(p, q, gamma) in 200 draws from the pool of small fractions")


class ConstraintViolated(SolitonLabError):
    """A parameter set does not satisfy the constraint required by the check."""


class CapacityViolation(SolitonLabError):
    """A box occupancy lies outside [0, c_box]."""


class NonPositiveEpsilon(SolitonLabError):
    """An ultradiscretization parameter must be strictly positive."""


class EmptyField(SolitonLabError):
    """An operation received an empty field or row."""


class TooFewSamples(SolitonLabError):
    """A track does not carry enough usable samples for the requested fit."""


class InconsistentCapacities(SolitonLabError):
    """States in one history disagree on box or carrier capacity."""


# The errors below are also ValueErrors: each replaces a bare ValueError, so
# callers that catch ValueError keep working.


class NegativeSteps(SolitonLabError, ValueError):
    """An evolution was asked for a negative number of steps."""


class UndrawableCapacity(SolitonLabError, ValueError):
    """A box capacity above 9 has no single-digit drawing."""


class UnorderedEpsilons(SolitonLabError, ValueError):
    """Ultradiscretization parameters are not strictly decreasing."""


class MixedTrackKinds(SolitonLabError, ValueError):
    """One report was given both trough and cluster tracks."""


class RaggedField(SolitonLabError, ValueError):
    """Field rows, or a left-edge y column, that do not form one rectangle."""


class ZeroFieldValue(SolitonLabError, ValueError):
    """A field holds a zero x or y, so its product x*y is not conserved."""


class UnknownValueMode(SolitonLabError, ValueError):
    """A CSV writer was asked for a value format it does not have."""


class OutputNotWritable(SolitonLabError, ValueError):
    """An output path cannot be opened for writing."""


class SolitonEscapedWindow(UserWarning):
    """The right window edge is no longer at the background value.

    Raised as a warning, not an error: the evolution stays exact inside the
    window, but content has reached the edge and is being truncated.
    """
