"""Error and warning types shared across the package.

Every domain failure raises a subclass of SolitonLabError so the CLI can map
validation problems to a single exit code.  The raise site writes the
message and passes the failure's location as keywords, which become
attributes: ``site`` or ``box`` (a lattice site or box index), ``point``
((t, n)), ``index`` (a mode's 0-based position in the caller's parameter
list), ``pair`` (two such positions), ``n_modes`` and ``p`` (a wavenumber).
Only the message is in ``args``, so every error pickles and copies with its
location.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class SolitonLabError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str = "", **where):
        super().__init__(message)
        self.__dict__.update(where)


class ZeroDenominator(SolitonLabError):
    """A rational map hit a vanishing denominator."""


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


class GammaSignCondition(SolitonLabError):
    """gamma_i does not have the sign that makes the mode a soliton."""


class DegenerateP(SolitonLabError):
    """A wavenumber sits exactly on a degenerate point."""


class DenominatorClash(SolitonLabError):
    """Two modes make a matrix denominator vanish."""


class DuplicateP(SolitonLabError):
    """Two modes share a wavenumber."""


class ZeroTau(SolitonLabError):
    """A tau function vanished at a lattice point, so x or y is undefined there."""


class FloatLawUndefined(SolitonLabError):
    """A float quotient of the speed law leaves the float range, which needs
    both 1 - alpha or 1 - beta and p's distance from an interval edge below
    ~1e-308 of scale; ``p`` names the point."""


class DrawExhausted(SolitonLabError):
    """A random parameter draw found no admissible value for one mode."""


class TooManyModes(SolitonLabError):
    """A parameter set has more modes than the subset expansion is built for."""


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


# This one is also a FrozenInstanceError, as a frozen dataclass raises, so
# callers that catch FrozenInstanceError keep working.


class FrozenState(SolitonLabError, FrozenInstanceError):
    """An attribute of an immutable state was assigned or deleted."""


class SolitonEscapedWindow(UserWarning):
    """The right window edge is no longer at the background value.

    Raised as a warning, not an error: the evolution stays exact inside the
    window, but content has reached the edge and is being truncated.
    """
