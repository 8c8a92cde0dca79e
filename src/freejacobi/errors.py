"""Exceptions shared across the numerical routines, and the node-doubling
driver that raises ConvergenceError."""


class ConvergenceError(RuntimeError):
    """A node-doubling or extrapolation loop failed to settle.

    Raised instead of silently returning a value whose accuracy cannot be
    certified.  The CLI maps this to exit code 2.
    """


class PositivityError(RuntimeError):
    """Orthogonalization lost positive-definiteness (some omega <= 0).

    Indicates quadrature exhaustion during recurrence extraction.  The index
    of the last coefficient pair that is still trustworthy is stored in
    ``last_reliable``.
    """

    def __init__(self, message, last_reliable):
        super().__init__(message)
        self.last_reliable = last_reliable


def refine(compute, settled, n, n_max, message):
    """compute(n) at n, 2n, 4n, ... <= n_max until two successive passes
    satisfy settled(prev, cur); returns that last pass.

    The package's one node-doubling loop: the tanh-sinh quadrature, the
    theta kernel (renorm._thetas) and the Stieltjes extraction each supply
    their pass, their settle test and their budget.  Raises
    ConvergenceError(message) once the budget is spent.

    Callers reach it as ``errors.refine``, not by a from-import: the
    perfbench tracer takes every function that a module imports by name for
    a layer boundary, and the time spent here belongs to the caller's layer.
    """
    prev = None
    while n <= n_max:
        cur = compute(n)
        if prev is not None and settled(prev, cur):
            return cur
        prev = cur
        n *= 2
    raise ConvergenceError(message)
