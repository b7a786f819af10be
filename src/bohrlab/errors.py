"""Exception types shared across the package."""


class BohrlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BohrlabError):
    """An argument lies outside the mathematical domain of the operation."""
