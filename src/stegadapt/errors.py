"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments (out-of-range knobs, empty
inputs); the classes here carry extra context for failures that tests and
callers need to distinguish.
"""

from __future__ import annotations

import copyreg


class StegadaptError(Exception):
    """Base class for package-specific failures.

    A pickled error keeps its message and its extra field, and unpickling
    does not run a subclass's ``__init__`` again, which would format the
    message twice or miss an argument. So an error raised in a forked
    process reaches its parent unchanged.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class CorpusError(StegadaptError):
    """Malformed corpus or embedding file. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrityError(StegadaptError):
    """Duplicate ids or other uniqueness violations."""


class CapacityError(StegadaptError):
    """A pool is too small for the requested split sizes."""


class DesyncError(StegadaptError):
    """Bit extraction lost sync with the embedding walk. Carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class NumericError(StegadaptError):
    """A non-finite value appeared in a numeric stage. Carries the stage name."""

    def __init__(self, stage: str):
        super().__init__(f"non-finite values produced by stage '{stage}'")
        self.stage = stage


class CheckpointError(StegadaptError):
    """An unreadable or malformed checkpoint file. Carries the file's path."""

    def __init__(self, path, message: str):
        super().__init__(f"checkpoint {path}: {message}")
        self.path = path


class FeatureLookupError(StegadaptError):
    """A sample id is missing from a precomputed feature store."""
