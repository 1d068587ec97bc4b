"""posdec: ordinal max-min decision making over possibility distributions."""

__version__ = "0.1.0"
