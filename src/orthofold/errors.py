"""Exception types shared across the package."""

from __future__ import annotations


class OrthofoldError(Exception):
    """Base class for all package-specific failures."""


class InputError(OrthofoldError, ValueError):
    """Malformed or out-of-contract input (bad shapes, NaNs, oversized matrices)."""


class UnknownActionError(OrthofoldError, KeyError):
    """Catalog lookup for an id that names no action."""

    # KeyError's str() is the repr of its key; this error carries a message
    __str__ = Exception.__str__


class PointSpecError(InputError):
    """Unparseable or invalid point specification."""


class StabilizerError(OrthofoldError):
    """A group element handed to a fixed-point routine does not fix the point."""


class ClassificationError(OrthofoldError):
    """Subgroup classification received inconsistent stabilizer data."""


class RepExtractionError(OrthofoldError):
    """Slice representation extraction could not round to an integer weight system."""


class CorrespondenceError(OrthofoldError):
    """A decomposition block straddles several local-model classes."""

    def __init__(self, block_index: int, model_classes: tuple):
        self.block_index = block_index
        self.model_classes = model_classes
        super().__init__(
            f"block {block_index} meets {len(model_classes)} distinct local-model "
            f"classes {sorted(model_classes)}; the induced map is not well defined"
        )
