"""Exception types shared across the package."""

import copyreg


class FairdpError(Exception):
    """Base class for all library-specific errors."""

    def __reduce__(self):
        # A subclass's __init__ may take other arguments than the formatted
        # message in args, so rebuild through __new__ (which sets args) and
        # restore attributes such as row and iteration from __dict__.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SchemaError(FairdpError):
    """CSV schema is inconsistent with the declared column roles."""


class ParseError(FairdpError):
    """A cell could not be parsed; carries the offending 0-based row index."""

    def __init__(self, message: str, row: int):
        super().__init__(f"{message} (row {row})")
        self.row = row


class EmptyDatasetError(FairdpError):
    """Input contained no data rows."""


class DegenerateGroupError(FairdpError):
    """A sensitive group is empty, so group statistics are undefined."""


class DegenerateConditionalError(FairdpError):
    """A required (label, group) conditional cell is empty."""


class CheckpointError(FairdpError):
    """A checkpoint file lacks a field or holds a malformed one."""


class CalibrationError(FairdpError):
    """Privacy parameters violate the calibration preconditions."""


class DivergenceError(FairdpError):
    """A parameter became non-finite; carries the iteration index."""

    def __init__(self, iteration: int, what: str = "parameters"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration
