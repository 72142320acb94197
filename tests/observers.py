"""An observer for ``dynamics.run`` that the tests read and the package does not."""


class ConflictedCounts(list):
    """``run``'s ``observe``: ``len(state.conflicted)`` at each call, the t = 0 count first.

    ``run`` calls it once before the first step and once after each applied
    step. A stuck ``persistent`` pick, or a step the cap cut off, changes
    nothing and is not observed, so it cannot move ``least()``.
    """

    def __call__(self, state, t, vertices, colors) -> None:
        self.append(len(state.conflicted))

    def least(self) -> int:
        """The least count after a step (t >= 1), or the t = 0 count if no step applied.

        A run that starts proper takes no step and gives 0.
        """
        return min(self[1:] or self)
