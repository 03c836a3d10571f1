"""Exact constructions and verifiers for ring planes, their quadric
varieties over small fields, and the associated combinatorial designs."""

__version__ = "0.1.0"


class RinggeomError(ValueError):
    """Base of the errors raised for a refused input or a failed
    construction; the command line reports them in one line, exit code 2."""
