"""Labeled finite-dimensional Fock-basis linear algebra.

States and density matrices live over ordered tensor products of labeled
subsystem bases (Alice's Minkowski mode, Rob's Rindler wedge modes, AntiRob's
modes behind the horizon). Everything is real: all states handled here have
real amplitudes, with fermionic signs absorbed into the amplitudes, so
complex support is deliberately omitted.

All operations are pure functions of immutable values; nothing here holds
global state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError
from .linalg import check_symmetric

DIRAC_PATTERNS = ("vac", "up", "down", "pair")

_NORM_TOL = 1e-9
_SYMMETRY_TOL = 1e-14
_TRACE_TOL = 1e-9


class Subsystem(enum.Enum):
    """The three parties of the tripartite description."""

    ALICE = "alice"
    ROB = "rob"
    ANTIROB = "antirob"


class FieldKind(enum.Enum):
    DIRAC = "dirac"
    SCALAR = "scalar"
    HARDCORE = "hardcore"


class Bipartition(enum.Enum):
    """Two-party splits obtained by tracing out the third party."""

    ALICE_ROB = ("alice", "rob")
    ALICE_ANTIROB = ("alice", "antirob")
    ROB_ANTIROB = ("rob", "antirob")

    @property
    def kept(self) -> tuple[Subsystem, Subsystem]:
        return tuple(Subsystem(v) for v in self.value)


@dataclass(frozen=True)
class SqueezingParam:
    """Acceleration parameter of the Bogoliubov transformation.

    For Dirac fields the squeezing angle is bounded, r in [0, pi/4]; for
    scalar and hardcore-boson fields r >= 0 is unbounded.
    """

    field_kind: FieldKind
    r: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError(f"squeezing parameter must be finite, got {self.r}")
        if self.r < 0:
            raise ValueError(f"squeezing parameter must be >= 0, got {self.r}")
        if self.field_kind is FieldKind.DIRAC and self.r > math.pi / 4 + 1e-12:
            raise ValueError(
                f"Dirac squeezing parameter must lie in [0, pi/4], got {self.r}")


def _r_value(r, field_kind: FieldKind) -> float:
    """r as a float, from a number or a :class:`SqueezingParam`, validated
    for ``field_kind``; scalar and hardcore parameters are interchangeable."""
    if isinstance(r, SqueezingParam):
        if (r.field_kind is FieldKind.DIRAC) != (field_kind is FieldKind.DIRAC):
            raise ValueError(
                f"expected a {field_kind.value} squeezing parameter, got {r.field_kind}")
        return r.r
    return SqueezingParam(field_kind, float(r)).r


@dataclass(frozen=True)
class LabeledBasis:
    """Ordered basis labels for one subsystem.

    Scalar subsystems use Fock occupation numbers 0..n_top in ascending
    order; Dirac subsystems use the four occupation patterns
    (vac, up, down, pair) in that fixed order.
    """

    subsystem: Subsystem
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise BasisError("basis needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise BasisError(f"basis labels must be distinct: {self.labels}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    @classmethod
    def fock(cls, subsystem: Subsystem, n_top: int) -> "LabeledBasis":
        """Occupation-number basis 0..n_top."""
        if n_top < 0:
            raise BasisError("n_top must be >= 0")
        return cls(subsystem, tuple(range(n_top + 1)))

    @classmethod
    def dirac(cls, subsystem: Subsystem) -> "LabeledBasis":
        """Single Dirac mode: vacuum, single spins, and the spin pair."""
        return cls(subsystem, DIRAC_PATTERNS)

    @classmethod
    def qubit(cls, subsystem: Subsystem, labels: tuple) -> "LabeledBasis":
        if len(labels) != 2:
            raise BasisError("qubit basis needs exactly two labels")
        return cls(subsystem, tuple(labels))


def _check_product_basis(basis: tuple[LabeledBasis, ...]):
    subs = [b.subsystem for b in basis]
    if len(set(subs)) != len(subs):
        raise BasisError(f"duplicate subsystem in product basis: {subs}")


@dataclass(frozen=True)
class StateVector:
    """Real-amplitude pure state over an ordered product basis.

    ``trace_deficit`` declares probability mass lost to Fock truncation;
    the norm must then satisfy |norm^2 - (1 - trace_deficit)| <= 1e-9.
    Exact states (Dirac) carry deficit 0 and unit norm.
    """

    basis: tuple[LabeledBasis, ...]
    amplitudes: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _check_product_basis(self.basis)
        amps = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=float).ravel())
        object.__setattr__(self, "amplitudes", amps)
        expected = int(np.prod([b.dim for b in self.basis]))
        if amps.size != expected:
            raise BasisError(
                f"amplitude count {amps.size} != product dimension {expected}")
        if not 0.0 <= self.trace_deficit < 1.0:
            raise ValueError(f"trace_deficit must lie in [0, 1), got {self.trace_deficit}")
        norm2 = float(amps @ amps)
        if abs(norm2 - (1.0 - self.trace_deficit)) > _NORM_TOL:
            raise ValueError(
                f"norm^2 = {norm2} inconsistent with declared trace deficit "
                f"{self.trace_deficit}")
        amps.setflags(write=False)

    @property
    def subsystems(self) -> tuple[Subsystem, ...]:
        return tuple(b.subsystem for b in self.basis)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.basis)

    @property
    def norm2(self) -> float:
        return float(self.amplitudes @ self.amplitudes)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def amplitude(self, labels: tuple) -> float:
        """Amplitude on a product label, e.g. ('vac', 'up', 'down')."""
        idx = np.ravel_multi_index(
            tuple(b.index(l) for b, l in zip(self.basis, labels)), self.dims)
        return float(self.amplitudes[idx])


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric matrix over a product basis with trace bookkeeping.

    Partial transposes, which need not be positive semidefinite, reuse the
    container. The trace must equal 1 - trace_deficit.
    """

    basis: tuple[LabeledBasis, ...]
    entries: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _check_product_basis(self.basis)
        m = check_symmetric(self.entries, tol=_SYMMETRY_TOL)
        object.__setattr__(self, "entries", np.ascontiguousarray(m))
        expected = int(np.prod([b.dim for b in self.basis]))
        if m.shape[0] != expected:
            raise BasisError(f"matrix dim {m.shape[0]} != product dimension {expected}")
        if not 0.0 <= self.trace_deficit < 1.0:
            raise ValueError(f"trace_deficit must lie in [0, 1), got {self.trace_deficit}")
        trace = float(np.trace(m))
        if abs(trace - (1.0 - self.trace_deficit)) > _TRACE_TOL:
            raise ValueError(
                f"trace {trace} inconsistent with declared trace deficit "
                f"{self.trace_deficit}")
        self.entries.setflags(write=False)

    @property
    def subsystems(self) -> tuple[Subsystem, ...]:
        return tuple(b.subsystem for b in self.basis)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.basis)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(basis: LabeledBasis, label) -> StateVector:
    """Unit vector on a single basis label."""
    amps = np.zeros(basis.dim)
    amps[basis.index(label)] = 1.0
    return StateVector((basis,), amps)


def tensor_state(*factors: StateVector) -> StateVector:
    """Tensor product of states over disjoint subsystems.

    The output norm is the product of the factor norms; factor deficits
    combine multiplicatively on the kept mass.
    """
    if not factors:
        raise BasisError("tensor_state needs at least one factor")
    basis: list[LabeledBasis] = []
    for f in factors:
        basis.extend(f.basis)
    _check_product_basis(tuple(basis))
    amps = factors[0].amplitudes
    for f in factors[1:]:
        amps = np.outer(amps, f.amplitudes).ravel()
    kept = 1.0
    for f in factors:
        kept *= 1.0 - f.trace_deficit
    return StateVector(tuple(basis), amps, trace_deficit=1.0 - kept)


def density_from_state(psi: StateVector) -> DensityMatrix:
    """Projector |psi><psi| as a dense matrix."""
    return DensityMatrix(psi.basis, np.outer(psi.amplitudes, psi.amplitudes),
                         trace_deficit=psi.trace_deficit)


def _validate_keep(subsystems: tuple[Subsystem, ...], keep) -> tuple[Subsystem, ...]:
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise BasisError(f"duplicate subsystems in keep: {keep}")
    for s in keep:
        if s not in subsystems:
            raise BasisError(f"{s} is not a subsystem of this operator")
    if not keep:
        raise BasisError("keep must be nonempty")
    if len(keep) == len(subsystems):
        raise BasisError("keep must be a proper subset of the subsystems")
    # preserve the operator's own subsystem order
    return tuple(s for s in subsystems if s in keep)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``; trace is preserved."""
    kept = _validate_keep(rho.subsystems, keep)
    dims = rho.dims
    k = len(dims)
    tensor = rho.entries.reshape(dims + dims)
    row, col, out_r, out_c = [], [], [], []
    for i, s in enumerate(rho.subsystems):
        a = chr(ord("a") + i)
        if s in kept:
            b = chr(ord("A") + i)
            row.append(a)
            col.append(b)
            out_r.append(a)
            out_c.append(b)
        else:
            row.append(a)
            col.append(a)
    out = np.einsum("".join(row + col) + "->" + "".join(out_r + out_c), tensor)
    d = int(np.prod([dims[i] for i, s in enumerate(rho.subsystems) if s in kept]))
    new_basis = tuple(b for b in rho.basis if b.subsystem in kept)
    return DensityMatrix(new_basis, out.reshape(d, d),
                         trace_deficit=rho.trace_deficit)


def reduced_density_matrix(psi: StateVector, keep) -> DensityMatrix:
    """Reduced state of |psi><psi| on ``keep``, without forming the projector.

    Equals ``partial_trace(density_from_state(psi), keep)`` but needs only
    O(d_keep^2 * d_traced) work and memory.
    """
    kept = _validate_keep(psi.subsystems, keep)
    tensor = psi.tensor()
    sub1 = [chr(ord("a") + i) for i in range(len(psi.basis))]
    sub2 = [chr(ord("A") + i) if s in kept else sub1[i]
            for i, s in enumerate(psi.subsystems)]
    out_r = [sub1[i] for i, s in enumerate(psi.subsystems) if s in kept]
    out_c = [sub2[i] for i, s in enumerate(psi.subsystems) if s in kept]
    subscripts = "".join(sub1) + "," + "".join(sub2) + "->" + "".join(out_r + out_c)
    out = np.einsum(subscripts, tensor, tensor)
    d = int(round(math.sqrt(out.size)))
    new_basis = tuple(b for b in psi.basis if b.subsystem in kept)
    return DensityMatrix(new_basis, out.reshape(d, d),
                         trace_deficit=psi.trace_deficit)


def partial_transpose(rho: DensityMatrix, transposed: Subsystem) -> DensityMatrix:
    """Transpose the indices of one subsystem of a bipartite matrix.

    An involution that preserves the trace and symmetry but not positivity.
    """
    if len(rho.basis) != 2:
        raise BasisError(
            f"partial transpose needs a bipartite matrix, got {len(rho.basis)} parties")
    if transposed not in rho.subsystems:
        raise BasisError(f"{transposed} is not a subsystem of this operator")
    d1, d2 = rho.dims
    t = rho.entries.reshape(d1, d2, d1, d2)
    if transposed == rho.subsystems[0]:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return DensityMatrix(rho.basis, t.reshape(d1 * d2, d1 * d2),
                         trace_deficit=rho.trace_deficit)
