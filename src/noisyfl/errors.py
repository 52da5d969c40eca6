"""Exception types shared across the toolkit.

Plain ``ValueError`` / ``IndexError`` / ``OSError`` are used for generic
argument, bounds, and I/O failures; the classes here carry semantics that
callers (notably the CLI) need to distinguish.
"""


class NoisyFLError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(NoisyFLError):
    """Invalid run configuration; message carries the offending field path ("" for the whole document)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class ParseError(NoisyFLError):
    """Malformed input file, labels not contiguous from 0 included; carries row/column location when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column!r})" if column is not None else ")"
        super().__init__(message + loc)


class DegeneratePartitionError(NoisyFLError):
    """A partition cannot be built: a client would be empty (K > N, or the redraws ran out), or
    label-quantity cannot give each client c classes and cover every class (c > C or K*c < C)."""


class ArtifactMismatchError(NoisyFLError):
    """Pipeline stage inputs do not match the hashes recorded upstream.

    ``listed`` holds the outputs (name -> sha256) that a rejected stage manifest names.
    """

    def __init__(self, message: str, listed: dict | None = None):
        self.listed = listed or {}
        super().__init__(message)


class NumericalAbortError(NoisyFLError):
    """Training produced non-finite parameters; carries the failing round."""

    def __init__(self, round_t: int):
        self.round_t = round_t
        super().__init__(f"non-finite parameters at round {round_t}")
