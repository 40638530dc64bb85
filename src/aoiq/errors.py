"""Exception types shared across the package, and the one parameter check.

The CLI maps these onto exit codes: configuration problems exit with 2,
solver/inversion failures with 3, infeasible optimizations with 4.

Every constructor and entry point validates its numeric parameters with
`check` (one value) or `check_all` (a sequence): a value that is not a
real number (a bool or a str included), not finite, or out of range is a
ConfigError naming the parameter. Evaluation-domain errors of a built
object (a rate profile outside its grid, say) stay plain ValueErrors.
"""

import math
import numbers

# check and check_all are the package's own validator, read as aoiq.errors.check
__all__ = ["ConfigError", "ConvergenceError", "InversionError"]


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


def check(value, name, low=-math.inf, high=math.inf, above=False, integer=False):
    """`value` as a float (an int with `integer`), or ConfigError naming
    `name` unless it is a real number (an integer with `integer`; numpy
    scalars pass, bools and strs do not), finite, >= low (> low with
    `above`) and <= high."""
    # a plain int or float skips the abstract-class test, which costs ~0.5 us
    if type(value) not in ((int,) if integer else (float, int)):
        kind = numbers.Integral if integer else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if integer else "a real number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        out = int(value) if integer else float(value)
    except OverflowError:    # an int beyond the float range
        out = math.inf
    if not ((integer or math.isfinite(out)) and (out > low if above else out >= low)
            and out <= high):
        rules = [] if integer else ["finite"]
        if low > -math.inf:
            rules.append(f"{'>' if above else '>='} {low}")
        if high < math.inf:
            rules.append(f"<= {high}")
        raise ConfigError(f"{name} must be {', '.join(rules)}, got {value!r}")
    return out


def check_all(values, name, low=-math.inf, high=math.inf, above=False,
              increasing=False):
    """`check` on each entry of `values`, as a tuple; with `increasing` the
    entries must also be strictly increasing. An array is read through
    tolist(), whose plain floats take check's fast path."""
    values = values.tolist() if hasattr(values, "tolist") else values
    try:
        out = tuple(check(v, name, low, high, above) for v in values)
    except TypeError as exc:
        raise ConfigError(f"{name} must be a sequence of numbers, got {values!r}") from exc
    if increasing and any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{name} must be strictly increasing, got {out}")
    return out
