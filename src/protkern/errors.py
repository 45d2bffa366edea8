"""Exception types shared across the package."""


class EdgeListParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


class TooLargeForExactTreewidth(ValueError):
    """Input exceeds the vertex cap for the exact treewidth routine."""


class CanonizationCapExceeded(ValueError):
    """Graph is too large for brute-force canonization."""


class OracleCapExceeded(ValueError):
    """Instance exceeds the brute-force oracle size caps."""
