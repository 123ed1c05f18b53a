"""Exception types shared across the package."""


class FairpenError(Exception):
    """Base class for all package errors."""


class DimensionError(FairpenError):
    """Shapes of inputs are incompatible."""


class StateError(FairpenError):
    """Operation called in the wrong lifecycle state (e.g. backward before forward)."""


class ConfigError(FairpenError):
    """Invalid training or run configuration."""


class IngestionError(FairpenError):
    """CSV/schema ingestion failure; message names the offending row/column."""


class DegenerateMetricError(FairpenError):
    """A fairness metric hit an empty group or a zero denominator rate."""


class UndefinedMetricError(FairpenError):
    """Metric is undefined for the given labels (e.g. AUC with a single
    class), or a gap that does not apply to this attribute or outcome
    format (the rate ratio of a discrete attribute with a level outside
    {0, 1}, or of EO under a continuous outcome)."""


class CheckpointError(FairpenError):
    """Checkpoint file is missing, corrupted, or incompatible."""


class DivergenceError(FairpenError, FloatingPointError):
    """Training produced a non-finite parameter, or a scorer a non-finite
    score; message names the layer or the number of rows (and, from the
    trainer, the iteration and lambda)."""
