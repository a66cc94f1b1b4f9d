"""Exception hierarchy shared across the package."""


class McenError(Exception):
    """Base class for all mcenhance errors."""


# signal / spectral processing

class SignalTooShort(McenError):
    """Signal shorter than one analysis frame."""


class ShapeMismatch(McenError):
    """Matrix or vector shapes are inconsistent."""


class SilentClean(McenError):
    """Clean signal has zero power; SNR mixing undefined."""


class SilentNoise(McenError):
    """Noise signal has zero power; SNR mixing undefined."""


class NoiseTooShort(McenError):
    """Noise shorter than clean signal and tiling not enabled."""


class UnsupportedFormat(McenError):
    """WAV file is not 16-bit PCM mono at the expected rate."""


# network

class DimensionMismatch(McenError):
    """Input dimensionality does not match the network."""


class NonFiniteInput(McenError):
    """Input contains NaN or infinity."""


class NegativeSpectrum(McenError):
    """Magnitude spectrum contains negative entries."""


class CacheMismatch(McenError):
    """Backward called with a cache from a different forward pass."""


class EmptyDataset(McenError):
    """Training requested on an empty dataset."""


class LabelOutOfRange(McenError):
    """Class label outside [0, n_classes)."""


class CorruptFile(McenError):
    """Model or cache file is truncated or malformed."""


class VersionMismatch(McenError):
    """File format version is not supported."""


# Monte Carlo inference and selection

class EmptyBank(McenError):
    """Model bank contains no models."""


class InvalidConfig(McenError):
    """Configuration values are inconsistent."""


# metrics

class LengthMismatch(McenError):
    """Signals must have equal length."""


class NoVoicedFrames(McenError):
    """No frame exceeds the silence threshold."""


class DegenerateInput(McenError):
    """Correlation undefined for constant input."""


# corpus / harness

class InvalidParams(McenError):
    """Noise family parameters out of range."""


class InvalidManifest(McenError):
    """Dataset manifest violates its schema or split discipline."""


class MissingCorpus(McenError):
    """Expected corpus files not found on disk."""


class CorruptCorpus(McenError):
    """Corpus frame cache is truncated, malformed or of another version."""


class MissingModels(McenError):
    """Expected model files not found on disk."""
