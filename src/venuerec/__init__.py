"""Context-aware venue ranking from comment-text embeddings."""

from .errors import ConfigError, FormatError, VenuerecError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FormatError",
    "VenuerecError",
    "__version__",
]
