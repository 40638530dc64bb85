"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
solver/inversion failures with 3, infeasible optimizations with 4.
"""


class ConfigError(ValueError):
    """Invalid model parameters, schedules, or config files."""


class ConvergenceError(RuntimeError):
    """A finite-time solve left a residual of its discrete equations above
    the constant bound SolverSettings.etol = 1e-8. The march's residual is
    roundoff, so this flags a solve that broke down (say, into NaN)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InversionError(RuntimeError):
    """Numerical Laplace inversion produced non-finite or unstable output."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
