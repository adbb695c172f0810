"""Error taxonomy shared across modules; the CLI maps these to exit codes."""


class ConfigError(ValueError):
    """Invalid configuration (unknown key, bad value, inconsistent shapes). Exit 2."""


class DataIOError(Exception):
    """Unreadable or missing data/artifact files. Exit 3."""


class NumericError(Exception):
    """Non-finite loss or gradients; training cannot continue. Exit 4."""
