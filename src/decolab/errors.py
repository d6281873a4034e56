"""Exception types that map onto the CLI exit codes."""


class NumericalError(RuntimeError):
    """A computation produced an unusable result (zero-trace renormalization,
    non-positive input state)."""


class RunfileError(ValueError):
    """A run file failed validation. Carries the offending line number."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)
