"""Exception types shared across the package."""


class BellcertError(Exception):
    """Base class for package-specific failures."""


class SizeLimitError(BellcertError):
    """A configuration exceeds an enumeration or representation cap."""


class ScenarioMismatchError(BellcertError):
    """Data does not fit the scenario supplied: another scenario, or a declared LR bound below its true maximum."""


class TrialFormatError(BellcertError):
    """A trial-record file is malformed; the message carries the line number."""


class StandardizationError(BellcertError):
    """Standardization r = (I - b)/(B - b) is undefined for the functional."""


class UnknownFunctionalError(BellcertError):
    """A catalog name does not resolve for the scenario at hand."""
