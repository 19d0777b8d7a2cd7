"""Exception taxonomy shared by all eegfpn modules.

The CLI maps these onto process exit codes: usage problems exit 1,
data/format/configuration problems exit 2, numeric failures exit 3.
"""


class EegFpnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(EegFpnError, ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class ConfigError(EegFpnError, ValueError):
    """A configuration value violates its documented constraints."""


class ParseError(EegFpnError, ValueError):
    """A text input (config file) could not be parsed; names the line."""


class FormatError(EegFpnError, ValueError):
    """An input file is not a regular file or is malformed; names where."""


class NumericError(EegFpnError, ArithmeticError):
    """A computation produced or received non-finite values."""
