"""Exception and warning types shared across the package."""


class SurfquadError(Exception):
    """Base class for all surfquad errors."""


class NoConvergence(SurfquadError):
    """Closest-point iteration exhausted its iteration budget; ``residual`` is
    the worst failing point's, ``residuals`` each one's, aligned with ``indices``."""

    def __init__(self, iterations, residual, message=None, indices=None,
                 residuals=None):
        self.iterations = iterations
        self.residual = residual
        self.indices = list(indices) if indices is not None else []
        self.residuals = list(residuals) if residuals is not None else []
        super().__init__(
            message or f"projection did not converge after {iterations} "
            f"iterations (residual {residual:.3e})"
        )


class OutsideTube(SurfquadError):
    """Seed point rejected: the projection is not well defined there."""

    def __init__(self, message, indices=None):
        self.indices = list(indices) if indices is not None else []
        super().__init__(message)


class DegeneratePoint(SurfquadError):
    """A formula is singular or not finite at a point: curvature where it is
    undefined, or an element integral that is NaN or infinite."""


class TopologyMismatch(SurfquadError):
    """Mesh generator incompatible with the surface's topology."""


class ParseError(SurfquadError):
    """Malformed OFF file."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonTriangleFace(SurfquadError):
    """OFF file contains a face that is not a triangle."""


class DegenerateJacobian(SurfquadError):
    """Curved chart is not orientation-preserving: metric determinant <= 0, or
    a fold against the outward normal (inverted flat face or mesh too coarse)."""


class UnsupportedDegree(SurfquadError):
    """No embedded quadrature rule of the requested degree."""


class InsufficientData(SurfquadError):
    """Not enough usable rows for a slope fit."""


class IntegrationError(SurfquadError):
    """One or more elements failed during surface integration."""

    def __init__(self, failures):
        # failures: list of (face index, exception), possibly several per face
        self.failures = failures
        faces = list(dict.fromkeys(f for f, _ in failures))
        shown = ", ".join(str(f) for f in faces[:10])
        more = "" if len(faces) <= 10 else f" (+{len(faces) - 10} more)"
        super().__init__(f"integration failed on faces [{shown}]{more}: {failures[0][1]}")


class IllConditionedWarning(UserWarning):
    """Interpolation basis Vandermonde condition number exceeds 1e12."""


class StagnationWarning(UserWarning):
    """Convergence-study error hit the floating-point floor."""
