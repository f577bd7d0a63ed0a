"""Exception taxonomy shared by all modules.

The three classes map onto the CLI exit-code contract: bad user data is an
InputError (exit 1), a mathematically valid input that a pipeline stage
cannot accept is a PreconditionError (exit 2, the analysis degrades
gracefully), and a violated internal theorem is an
InternalInvariantViolation (exit 3, never a normal outcome).
"""

from typing import Sequence


class InputError(ValueError):
    """Malformed user input: files, normals, graphs, flags.

    An error about particular normals comes from ``about_hyperplanes``: it
    keeps their indices in ``hyperplanes`` and the message without them in
    ``reason``, so ``naming`` can restate it for another way of naming
    them, such as the lines of an input file.
    """

    hyperplanes: tuple[int, ...] = ()
    reason = ""

    @classmethod
    def about_hyperplanes(cls, reason: str, *indices: int) -> "InputError":
        err = cls(_cite("hyperplane", indices) + reason)
        err.hyperplanes, err.reason = indices, reason
        return err

    def naming(self, noun: str, names: Sequence) -> str:
        """The message with hyperplane i called ``noun names[i]``."""
        return _cite(noun, [names[i] for i in self.hyperplanes]) + self.reason


def _cite(noun: str, names: Sequence) -> str:
    # "hyperplane 3", "hyperplanes 2 and 5"
    if len(names) == 1:
        return f"{noun} {names[0]}"
    return f"{noun}s " + " and ".join(map(str, names))


class PreconditionError(ValueError):
    """Input fails a documented precondition of the requested computation."""


class InternalInvariantViolation(RuntimeError):
    """A fact that is a theorem for correct code failed to hold.

    Raising this means the implementation is wrong somewhere; it is never
    the caller's fault and is reported fatally.
    """
