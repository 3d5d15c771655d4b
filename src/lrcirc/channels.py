"""Small-dimension density-matrix engine for the leakage/dephasing identity.

Leaking the value of n wires through a function l is, on the quantum side,
an isometry |s>|0> -> |s>|l(s)> followed by discarding the receiver.  The
surviving state keeps coherence exactly within the level sets of l: it is
the Schur (entrywise) product M * rho with M_ij = [l(i) = l(j)].  The same
channel is produced by a uniform mixture of diagonal phase operators
F^k = diag(w^{k l(s)}) with w a primitive d-th root of unity, d the number
of distinct values l takes.  Every channel here has diagonal Kraus
operators, so each is built from their weights and diagonals (d rows of
length 2^n, never a dense operator) and held as its multiplier M, and two
channels are compared entrywise on their multipliers, which is the footing
for treating leakage as phase noise.

Dimensions are capped at 2^4; everything is dense numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

_MAX_WIRES = 4
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_COMPLETENESS_TOL = 1e-10


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class LeakageFunction:
    """Total function from n-bit wire assignments to a finite alphabet.

    `table[s]` is the value on the basis state with index s; wire 1 is the
    most significant bit of s.  The effective alphabet is the realized image
    (relabeled 0..d-1 in value order), so unused symbols add no phases.
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.n > _MAX_WIRES:
            raise DimensionError(f"wire count must be in 1..{_MAX_WIRES}")
        if len(self.table) != 2 ** self.n:
            raise ValueError("table must cover all 2^n assignments")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def ranks(self) -> tuple[int, ...]:
        """Table relabeled onto 0..d-1 preserving value order."""
        values = sorted(set(self.table))
        rank = {v: i for i, v in enumerate(values)}
        return tuple(rank[v] for v in self.table)

    @property
    def alphabet_size(self) -> int:
        return len(set(self.table))

    @classmethod
    def identity(cls, n: int) -> LeakageFunction:
        return cls(n, tuple(range(2 ** n)))

    @classmethod
    def constant(cls, n: int, value: int = 0) -> LeakageFunction:
        return cls(n, (value,) * 2 ** n)

    @classmethod
    def parity(cls, n: int) -> LeakageFunction:
        return cls(n, tuple(bin(s).count("1") & 1 for s in range(2 ** n)))

    @classmethod
    def random(cls, n: int, d: int, rng: np.random.Generator) -> LeakageFunction:
        return cls(n, tuple(int(v) for v in rng.integers(0, d, size=2 ** n)))


@dataclass(frozen=True, eq=False)
class Channel:
    """Map rho -> sum_k weights[k] D_k rho D_k^dag with D_k = diag(diags[k]).

    `weights` is a (k,) array and `diags` a (k, dim) array, row k the
    diagonal of D_k.  That is the Schur product rho -> M * rho with
    multiplier M = sum_k weights[k] d_k d_k^*, stored as `multiplier`;
    trace preservation is diag(M) = 1.  Channels are compared by
    `channel_distance`, not by `==`, which is identity.
    """

    weights: np.ndarray
    diags: np.ndarray
    multiplier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        diags = np.asarray(self.diags, dtype=complex)
        # numpy would broadcast one weight over every row
        if diags.ndim != 2 or weights.shape != diags.shape[:1]:
            raise DimensionError("need a (k,) weight array and a (k, dim) diagonal array")
        m = (weights[:, None] * diags).T @ diags.conj()
        # written so that a NaN fails it
        if not np.abs(np.diag(m) - 1.0).max() <= _COMPLETENESS_TOL:
            raise ValueError("operator-sum terms are not trace preserving")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "diags", diags)
        object.__setattr__(self, "multiplier", m)

    @property
    def dim(self) -> int:
        return self.diags.shape[1]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        # numpy would broadcast a 1x1 or a flat state up to dim x dim
        if np.shape(rho) != self.multiplier.shape:
            raise DimensionError(
                f"state must be {self.dim}x{self.dim}, got shape {np.shape(rho)}")
        return self.multiplier * rho


def leakage_channel(l: LeakageFunction) -> Channel:
    """Isometry-then-discard form: one projector per realized leak value."""
    ranks = np.array(l.ranks())
    return Channel(np.ones(l.alphabet_size), np.arange(l.alphabet_size)[:, None] == ranks)


def _phase_terms(l: LeakageFunction) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1/d and diagonal rows of the phase powers F^k, k = 0..d-1."""
    d = l.alphabet_size
    omega = np.exp(2j * np.pi / d)
    return np.full(d, 1.0 / d), omega ** (np.arange(d)[:, None] * np.array(l.ranks()))


def dephasing_channel(l: LeakageFunction) -> Channel:
    """Uniform mixture of the diagonal phase powers F^k, k = 0..d-1."""
    return Channel(*_phase_terms(l))


def mixture_channel(requests: list[tuple[LeakageFunction, float]]) -> Channel:
    """Convex combination of per-function dephasing channels.

    Each function is normalized by its own alphabet size (1/d_j); the
    probabilities must sum to 1.
    """
    if not requests:
        raise ValueError("empty request list")
    probs = [p for _, p in requests]
    # written so that a NaN fails it
    if not (all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
        raise ValueError("request probabilities must be a distribution")
    dim = requests[0][0].dim
    if any(l.dim != dim for l, _ in requests):
        raise DimensionError("mixed functions must share a wire count")
    terms = [(_phase_terms(l), p) for l, p in requests]
    return Channel(np.concatenate([p * weights for (weights, _), p in terms]),
                   np.concatenate([diags for (_, diags), _ in terms]))


def channel_distance(c1: Channel, c2: Channel) -> float:
    """Max entrywise output difference over the spanning probe basis.

    The probes are the pure states |i>, (|i>+|j>)/sqrt2 and (|i>+i|j>)/sqrt2
    (i < j), which span operator space.  On Schur multipliers the maximum
    over them is closed form: max(max_i |dM_ii|, max_{i!=j} |dM_ij| / 2) for
    dM = M1 - M2.  Zero exactly when the channels are equal.
    """
    if c1.dim != c2.dim:
        raise DimensionError("channels act on different dimensions")
    delta = np.abs(c1.multiplier - c2.multiplier)
    return float(max(np.diag(delta).max(), delta.max() / 2))


# -- density-matrix utilities ------------------------------------------------


def assert_density_matrix(rho: np.ndarray) -> None:
    if np.abs(rho - rho.conj().T).max() > _HERMITIAN_TOL:
        raise ValueError("not Hermitian")
    if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
        raise ValueError("trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -_PSD_TOL:
        raise ValueError("not positive semidefinite")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def equivalence_sweep(max_exhaustive_wires: int = 2, alphabet: int = 4,
                      random_wires: int = 3, trials: int = 20,
                      seed: int = 0) -> dict:
    """Compare the two channel constructions across a function sweep.

    Exhausts every function on up to `max_exhaustive_wires` wires with
    values below `alphabet`, then adds seeded random functions on
    `random_wires` wires (1 to 4).  Returns the worst distances observed.
    """
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if not 1 <= random_wires <= 4:
        raise ValueError(f"random_wires must be 1 to 4, got {random_wires}")
    worst = 0.0
    count = 0
    for n in range(1, max_exhaustive_wires + 1):
        for table in product(range(alphabet), repeat=2 ** n):
            l = LeakageFunction(n, table)
            worst = max(worst, channel_distance(leakage_channel(l), dephasing_channel(l)))
            count += 1
    rng = np.random.default_rng(seed)
    worst_random = 0.0
    for _ in range(trials):
        l = LeakageFunction.random(random_wires, 2 ** random_wires, rng)
        worst_random = max(
            worst_random, channel_distance(leakage_channel(l), dephasing_channel(l))
        )
    return {
        "exhaustive_functions": count,
        "exhaustive_max_distance": worst,
        "random_functions": trials,
        "random_wires": random_wires,
        "random_max_distance": worst_random,
        "seed": seed,
    }
