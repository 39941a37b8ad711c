"""Exception types shared across the package."""
from __future__ import annotations


class GroupDeconvError(Exception):
    """Base class for groupdeconv-specific failures; the CLI exits 3 on any
    that is not a ParameterError."""


class ParameterError(GroupDeconvError, ValueError):
    """A parameter or input violates a documented precondition (CLI exit 2)."""


class DataFormatError(ParameterError):
    """An input file could not be parsed; carries the offending location."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    @classmethod
    def undecodable(cls, path, exc: UnicodeDecodeError) -> DataFormatError:
        """The error for a byte of ``path`` that is not UTF-8, on the line
        after the line feeds before it."""
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return cls(f"{path}: line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 text", line=line)


class DenominatorTooSmall(GroupDeconvError, RuntimeError):
    """|phi_hat(u)| fell below the integration floor inside the requested range."""

    def __init__(self, u, value, floor):
        super().__init__(
            f"|phi_hat({u:.6g})| = {value:.3e} is below the integration floor "
            f"{floor:.3e}; the log-derivative is unreliable past this point"
        )
        self.u = u
        self.value = value
        self.floor = floor


class LevelNotReached(GroupDeconvError, RuntimeError):
    """A characteristic-function modulus never fell to the requested level."""
