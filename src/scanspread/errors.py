"""Exception types shared across the package."""


class ScanSpreadError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(ScanSpreadError, ValueError):
    """A caller-supplied value is out of range or inconsistent."""


class CapacityError(ParameterError):
    """A group was asked to hold more distinct hosts than its block has addresses."""


class UnsupportedStrategyError(ParameterError):
    """The requested operation is not defined for this scanning strategy."""


class HostListParseError(ScanSpreadError, ValueError):
    """A host-list file contains a line that is not a valid IPv4 address.

    Carries the 1-based line number and the offending text.
    """

    def __init__(self, line_no: int, text: str, origin: str | None = None):
        self.line_no = line_no
        self.text = text
        self.origin = origin
        where = f"{origin}:{line_no}" if origin else f"line {line_no}"
        super().__init__(f"{where}: not a valid IPv4 address: {text!r}")


class DistributionFormatError(ScanSpreadError, ValueError):
    """A group-distribution CSV file is malformed or internally inconsistent."""


class InputFileError(ScanSpreadError, OSError):
    """An input file cannot be opened or read; the message starts with its path."""


class InternalConsistencyError(ScanSpreadError, RuntimeError):
    """An internal invariant was violated; results cannot be trusted."""
