"""brixel's only exception classes; ``cli.main`` maps each to one exit code."""


class ConfigError(ValueError):
    """Invalid configuration (unknown key, bad value, inconsistent shapes). Exit 2."""


class DataIOError(Exception):
    """Unreadable, malformed or missing data/artifact files. Exit 3."""


class NumericError(Exception):
    """Non-finite loss, gradient, image or feature map, or the log of x <= 0. Exit 4."""
