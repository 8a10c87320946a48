"""The errors capsim's commands word, one class per kind of fault.

They live apart from the layers that raise them, so ``cli.main`` can catch
each one without importing the layer a command never runs. Each layer
binds its own under its old name, such as ``capsim.kernel.SimulationError``.
"""


class ConfigError(ValueError):
    """The scenario description is invalid."""


class TraceParseError(ValueError):
    """A trace line could not be decoded; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message


class HistoryIntegrityError(ValueError):
    """The history contradicts itself; no verdict can be computed."""


class SimulationError(RuntimeError):
    """A strategy misbehaved; the message names the triggering event."""
