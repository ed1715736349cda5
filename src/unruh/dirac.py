"""Dirac field seen from a uniformly accelerated frame.

Builds the Alice/Rob/AntiRob tripartite state of a maximally entangled
Dirac qubit pair when one observer accelerates, together with closed forms
for every bipartite density matrix, spectrum, partial-transpose spectrum,
entropy and negativity. The constructive route keeps explicit fermionic
sign bookkeeping: basis states are ordered creation-operator strings,
normal-ordered to (Rob-wedge particles, then AntiRob-wedge antiparticles,
spin up before down), and every operator transposition flips the sign.

The closed forms and the constructive route are computed independently;
their agreement is itself the test of the sign convention.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (Bipartition, DensityMatrix, FieldKind, LabeledBasis,
                   SqueezingParam, StateVector, Subsystem, _r_value,
                   reduced_density_matrix)
from .measures import bipartite_measures, mutual_informations
from .report import CorrelationReport

ORACLE_TOL = 1e-10

SPINS = ("up", "down")
_FLIP = {"up": "down", "down": "up"}

# ---------------------------------------------------------------------------
# fermionic creation-operator strings
# ---------------------------------------------------------------------------
# An operator is (wedge, spin): wedge "I" creates Rob-side particles, wedge
# "IV" creates AntiRob-side antiparticles. Canonical normal order is by rank.
_OP_RANK = {("I", "up"): 0, ("I", "down"): 1, ("IV", "up"): 2, ("IV", "down"): 3}

_PATTERN_SPINS = {"vac": (), "up": ("up",), "down": ("down",), "pair": ("up", "down")}
_SPINS_PATTERN = {v: k for k, v in _PATTERN_SPINS.items()}


def config_from_patterns(rob: str, antirob: str) -> tuple:
    """Canonical operator string for occupation patterns on both wedges."""
    ops = [("I", s) for s in _PATTERN_SPINS[rob]]
    ops += [("IV", s) for s in _PATTERN_SPINS[antirob]]
    return tuple(ops)


def patterns_from_config(config: tuple) -> tuple[str, str]:
    rob = tuple(s for w, s in config if w == "I")
    antirob = tuple(s for w, s in config if w == "IV")
    return _SPINS_PATTERN[rob], _SPINS_PATTERN[antirob]


def apply_creation(amplitudes: dict, op: tuple) -> dict:
    """Apply a creation operator to a sum of normal-ordered strings.

    Doubly occupying a mode kills the term (Pauli exclusion); otherwise the
    operator is bubbled from the left into its canonical slot, picking up
    one sign flip per operator crossed.
    """
    rank = _OP_RANK[op]
    out: dict = {}
    for config, amp in amplitudes.items():
        if op in config:
            continue
        crossed = sum(1 for o in config if _OP_RANK[o] < rank)
        new = tuple(sorted(config + (op,), key=_OP_RANK.get))
        out[new] = out.get(new, 0.0) + amp * (-1.0) ** crossed
    return out


def apply_annihilation(amplitudes: dict, op: tuple) -> dict:
    """Apply the annihilator conjugate to ``op``; unmatched terms vanish."""
    out: dict = {}
    for config, amp in amplitudes.items():
        if op not in config:
            continue
        idx = config.index(op)
        new = config[:idx] + config[idx + 1:]
        out[new] = out.get(new, 0.0) + amp * (-1.0) ** idx
    return out


def _state_from_amplitude_map(amplitudes: dict, deficit: float = 0.0) -> StateVector:
    basis = (LabeledBasis.dirac(Subsystem.ROB), LabeledBasis.dirac(Subsystem.ANTIROB))
    amps = np.zeros((4, 4))
    for config, amp in amplitudes.items():
        rob, antirob = patterns_from_config(config)
        amps[basis[0].index(rob), basis[1].index(antirob)] = amp
    return StateVector(basis, amps.ravel(), trace_deficit=deficit)


# ---------------------------------------------------------------------------
# rapidity and state builders
# ---------------------------------------------------------------------------

def rapidity_dirac(q: float) -> SqueezingParam:
    """Squeezing angle r = arctan(q) for q = exp(-pi k0 c / a) in [0, 1].

    q = 0 is the inertial limit (r = 0), q = 1 the infinite-acceleration
    limit (r = pi/4); the map is monotone increasing.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return SqueezingParam(FieldKind.DIRAC, math.atan(q))


def _vacuum_amplitude_map(r: float) -> dict:
    c, s = math.cos(r), math.sin(r)
    return {
        config_from_patterns("vac", "vac"): c * c,
        config_from_patterns("up", "down"): s * c,
        config_from_patterns("down", "up"): s * c,
        config_from_patterns("pair", "pair"): s * s,
    }


def dirac_vacuum(r) -> StateVector:
    """Minkowski vacuum of one Dirac mode in the accelerated frame.

    A four-term superposition over Rob x AntiRob: cos^2 r on (vac, vac),
    sin r cos r on (up, down) and (down, up), sin^2 r on (pair, pair).
    """
    rv = _r_value(r, FieldKind.DIRAC)
    return _state_from_amplitude_map(_vacuum_amplitude_map(rv))


def dirac_one_particle(r, spin: str) -> StateVector:
    """Minkowski one-particle state with given spin, in Rindler modes.

    Built constructively: the Minkowski creation operator is the Bogoliubov
    combination cos r b_I^dag(spin) - sin r c_IV(-spin) acting on the
    accelerated-frame vacuum, with all anticommutation signs tracked
    mechanically. The spin-down state picks up a relative minus sign on its
    (pair, down) component; spin-up does not.
    """
    if spin not in SPINS:
        raise ValueError(f"spin must be one of {SPINS}, got {spin!r}")
    rv = _r_value(r, FieldKind.DIRAC)
    vac = _vacuum_amplitude_map(rv)
    created = apply_creation(vac, ("I", spin))
    annihilated = apply_annihilation(vac, ("IV", _FLIP[spin]))
    combined: dict = {}
    for config, amp in created.items():
        combined[config] = combined.get(config, 0.0) + math.cos(rv) * amp
    for config, amp in annihilated.items():
        combined[config] = combined.get(config, 0.0) - math.sin(rv) * amp
    combined = {k: v for k, v in combined.items() if v != 0.0}
    return _state_from_amplitude_map(combined)


def dirac_tripartite_state(r, alice_spin: str = "up") -> StateVector:
    """Maximally entangled qubit pair with the second observer accelerated.

    (|0>_A x |vacuum> + |spin>_A x |one particle, -spin>)/sqrt(2) over
    Alice x Rob x AntiRob. Correlation measures are independent of which
    spin pair is chosen for the superposition.
    """
    if alice_spin not in SPINS:
        raise ValueError(f"alice_spin must be one of {SPINS}, got {alice_spin!r}")
    rv = _r_value(r, FieldKind.DIRAC)
    alice = LabeledBasis.qubit(Subsystem.ALICE, ("vac", alice_spin))
    vac = dirac_vacuum(rv)
    one = dirac_one_particle(rv, _FLIP[alice_spin])
    amps = np.zeros((2, 16))
    amps[0] = vac.amplitudes
    amps[1] = one.amplitudes
    amps /= math.sqrt(2.0)
    return StateVector((alice,) + vac.basis, amps.ravel())


# ---------------------------------------------------------------------------
# closed-form density matrices
# ---------------------------------------------------------------------------

def _assemble(basis, entries) -> DensityMatrix:
    dim = int(np.prod([b.dim for b in basis]))
    m = np.zeros((dim, dim))
    dims = tuple(b.dim for b in basis)
    for bra, ket, value in entries:
        i = np.ravel_multi_index(tuple(b.index(l) for b, l in zip(basis, bra)), dims)
        j = np.ravel_multi_index(tuple(b.index(l) for b, l in zip(basis, ket)), dims)
        m[i, j] += value
        if i != j:
            m[j, i] += value
    return DensityMatrix(tuple(basis), m)


def dirac_closed_rho(r, bipartition: Bipartition) -> DensityMatrix:
    """Closed-form bipartite density matrix in the canonical basis."""
    rv = _r_value(r, FieldKind.DIRAC)
    c, s = math.cos(rv), math.sin(rv)
    alice = LabeledBasis.qubit(Subsystem.ALICE, ("vac", "up"))
    rob = LabeledBasis.dirac(Subsystem.ROB)
    antirob = LabeledBasis.dirac(Subsystem.ANTIROB)
    if bipartition is Bipartition.ALICE_ROB:
        entries = [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "up"), ("vac", "up"), s * s * c * c / 2),
            (("vac", "down"), ("vac", "down"), s * s * c * c / 2),
            (("vac", "pair"), ("vac", "pair"), s ** 4 / 2),
            (("vac", "vac"), ("up", "down"), c ** 3 / 2),
            (("vac", "up"), ("up", "pair"), -s * s * c / 2),
            (("up", "down"), ("up", "down"), c * c / 2),
            (("up", "pair"), ("up", "pair"), s * s / 2),
        ]
        return _assemble((alice, rob), entries)
    if bipartition is Bipartition.ALICE_ANTIROB:
        entries = [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "up"), ("vac", "up"), s * s * c * c / 2),
            (("vac", "down"), ("vac", "down"), s * s * c * c / 2),
            (("vac", "pair"), ("vac", "pair"), s ** 4 / 2),
            (("vac", "pair"), ("up", "down"), -s ** 3 / 2),
            (("vac", "up"), ("up", "vac"), s * c * c / 2),
            (("up", "vac"), ("up", "vac"), c * c / 2),
            (("up", "down"), ("up", "down"), s * s / 2),
        ]
        return _assemble((alice, antirob), entries)
    if bipartition is Bipartition.ROB_ANTIROB:
        entries = [
            (("vac", "vac"), ("vac", "vac"), c ** 4 / 2),
            (("vac", "vac"), ("up", "down"), s * c ** 3 / 2),
            (("vac", "vac"), ("down", "up"), s * c ** 3 / 2),
            (("vac", "vac"), ("pair", "pair"), s * s * c * c / 2),
            (("up", "down"), ("up", "down"), s * s * c * c / 2),
            (("up", "down"), ("down", "up"), s * s * c * c / 2),
            (("down", "up"), ("down", "up"), s * s * c * c / 2),
            (("up", "down"), ("pair", "pair"), s ** 3 * c / 2),
            (("down", "up"), ("pair", "pair"), s ** 3 * c / 2),
            (("pair", "pair"), ("pair", "pair"), s ** 4 / 2),
            (("down", "vac"), ("down", "vac"), c * c / 2),
            (("pair", "down"), ("pair", "down"), s * s / 2),
            (("down", "vac"), ("pair", "down"), -c * s / 2),
        ]
        return _assemble((rob, antirob), entries)
    raise ValueError(f"unknown bipartition {bipartition}")


# ---------------------------------------------------------------------------
# closed-form spectra and measures
# ---------------------------------------------------------------------------

def dirac_closed_spectrum(r, bipartition: Bipartition) -> np.ndarray:
    """Eigenvalues of the closed-form bipartite matrix, zero-padded to full
    dimension and sorted descending."""
    rv = _r_value(r, FieldKind.DIRAC)
    c2, s2 = math.cos(rv) ** 2, math.sin(rv) ** 2
    if bipartition is Bipartition.ALICE_ROB:
        vals = [s2 * c2 / 2, s2 * s2 / 2, c2 * (1 + c2) / 2, s2 * (1 + c2) / 2]
        dim = 8
    elif bipartition is Bipartition.ALICE_ANTIROB:
        vals = [s2 * c2 / 2, c2 * c2 / 2, s2 * (1 + s2) / 2, c2 * (1 + s2) / 2]
        dim = 8
    elif bipartition is Bipartition.ROB_ANTIROB:
        vals = [0.5, 0.5]
        dim = 16
    else:
        raise ValueError(f"unknown bipartition {bipartition}")
    out = np.zeros(dim)
    out[:len(vals)] = vals
    return np.sort(out)[::-1]


def dirac_closed_pt_spectrum(r, bipartition: Bipartition) -> np.ndarray:
    """Eigenvalues of the partial transpose of the closed-form matrix,
    sorted descending."""
    rv = _r_value(r, FieldKind.DIRAC)
    c, s = math.cos(rv), math.sin(rv)
    c2, s2 = c * c, s * s
    if bipartition is Bipartition.ALICE_ROB:
        g = math.sqrt(s2 * s2 + 4 * c2)
        vals = [c2 * c2 / 2, c2 * s2 / 2, s2 / 2, c2 / 2,
                (s2 * c2 + c2 * g) / 4, (s2 * c2 - c2 * g) / 4,
                (s2 * s2 + s2 * g) / 4, (s2 * s2 - s2 * g) / 4]
    elif bipartition is Bipartition.ALICE_ANTIROB:
        h = math.sqrt(c2 * c2 + 4 * s2)
        vals = [s2 * s2 / 2, s2 * c2 / 2, c2 / 2, s2 / 2,
                (s2 * c2 + s2 * h) / 4, (s2 * c2 - s2 * h) / 4,
                (c2 * c2 + c2 * h) / 4, (c2 * c2 - c2 * h) / 4]
    elif bipartition is Bipartition.ROB_ANTIROB:
        u = math.sin(2 * rv)
        k = math.sqrt(1 + u * u)
        vals = [c2 * c2 / 2, s2 * s2 / 2, s2 * c2 / 2, s2 * c2 / 2,
                s * c ** 3 / 2, -s * c ** 3 / 2, c * s ** 3 / 2, -c * s ** 3 / 2,
                c2 * (1 + k) / 4, c2 * (1 - k) / 4,
                s2 * (1 + k) / 4, s2 * (1 - k) / 4,
                u * (1 + k) / 8, u * (1 - k) / 8,
                -u * (1 + k) / 8, -u * (1 - k) / 8]
    else:
        raise ValueError(f"unknown bipartition {bipartition}")
    return np.sort(np.asarray(vals))[::-1]


def dirac_closed_negativity(r, bipartition: Bipartition) -> float:
    """Closed-form negativity of a bipartition.

    Alice-Rob and Alice-AntiRob trade entanglement exactly: cos^2(r)/2 and
    sin^2(r)/2, summing to 1/2 for every acceleration. The Rob-AntiRob value
    is the closed-form sum of the negative branch of the partial-transpose
    spectrum, sin(2r)/4 + [(1 + sin 2r) sqrt(1 + sin^2 2r) - 1]/4, which
    grows to sqrt(2)/2 at infinite acceleration.
    """
    rv = _r_value(r, FieldKind.DIRAC)
    if bipartition is Bipartition.ALICE_ROB:
        return math.cos(rv) ** 2 / 2
    if bipartition is Bipartition.ALICE_ANTIROB:
        return math.sin(rv) ** 2 / 2
    if bipartition is Bipartition.ROB_ANTIROB:
        u = math.sin(2 * rv)
        return (u - 1 + (1 + u) * math.sqrt(1 + u * u)) / 4
    raise ValueError(f"unknown bipartition {bipartition}")


def _xlog2(v: float) -> float:
    return v * math.log2(v) if v > 0.0 else 0.0


def dirac_closed_entropies(r) -> dict:
    """Closed-form von Neumann entropies of the single parties, in bits.

    The tripartite state is pure, so these fix the joint entropies too:
    S_AR = S_Rbar, S_ARbar = S_R and S_RRbar = S_A = 1.
    """
    rv = _r_value(r, FieldKind.DIRAC)
    c2, s2 = math.cos(rv) ** 2, math.sin(rv) ** 2
    return {
        "A": 1.0,
        "R": 1.0 - _xlog2(s2) - 1.5 * _xlog2(c2) - 0.5 * _xlog2(1 + s2),
        "Rbar": 1.0 - _xlog2(c2) - 1.5 * _xlog2(s2) - 0.5 * _xlog2(1 + c2),
    }


# ---------------------------------------------------------------------------
# dual-route report
# ---------------------------------------------------------------------------

def dirac_constructive_measures(r) -> dict:
    """All six measures from the tripartite state alone.

    Builds the state, reduces it to every bipartition and eigensolves; no
    closed forms enter anywhere.
    """
    psi = dirac_tripartite_state(r)
    return bipartite_measures({bip: reduced_density_matrix(psi, bip.kept)
                               for bip in Bipartition})


def dirac_closed_measures(r) -> dict:
    """All six measures in closed form; I_AR + I_ARbar = 2 identically."""
    s = dirac_closed_entropies(r)
    out = mutual_informations(s["A"], s["R"], s["Rbar"])
    out["N_AR"] = dirac_closed_negativity(r, Bipartition.ALICE_ROB)
    out["N_ARbar"] = dirac_closed_negativity(r, Bipartition.ALICE_ANTIROB)
    out["N_RRbar"] = dirac_closed_negativity(r, Bipartition.ROB_ANTIROB)
    return out


def dirac_report(r, oracle: bool = True) -> CorrelationReport:
    """Correlation report at one acceleration, computed along two routes.

    With ``oracle`` enabled the closed forms are compared against the
    constructive state-built route; a discrepancy above 1e-10 raises
    ``OracleMismatchError`` since it can only mean an implementation bug.
    """
    rv = _r_value(r, FieldKind.DIRAC)
    constructive = dirac_constructive_measures(rv) if oracle else None
    return CorrelationReport.from_routes(rv, dirac_closed_measures(rv), constructive,
                                         deficit=0.0, tol=ORACLE_TOL)
