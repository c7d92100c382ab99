"""Finite Markov chains: specification and stationary distributions.

Chains here are tiny (edge processes, typically 2-32 states), so everything
is dense.  A chain is either continuous-time (generator matrix ``Q`` with
zero row sums) or discrete-time (stochastic matrix ``P``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import NumericalFailure, ReducibleChain

_ROW_TOL = 1e-12
_RESIDUAL_TOL = 1e-10

CT = "ct"
DT = "dt"


@dataclass
class MarkovChainSpec:
    """A finite time-homogeneous Markov chain.

    ``matrix`` is the generator Q for ``time == "ct"`` (off-diagonal rates
    >= 0, rows sum to 0) or the transition matrix P for ``time == "dt"``
    (entries in [0, 1], rows sum to 1).  ``initial_state`` of None means
    "draw from the stationary distribution" wherever an initial state is
    needed.
    """

    states: tuple
    time: str
    matrix: np.ndarray
    initial_state: object = None

    def __post_init__(self):
        self.states = tuple(self.states)
        m = np.array(self.matrix, dtype=float)
        k = len(self.states)
        if m.shape != (k, k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} states")
        if self.time == CT:
            off = m[~np.eye(k, dtype=bool)]
            if off.size and off.min() < -_ROW_TOL:
                raise ValueError("generator has a negative off-diagonal rate")
            if np.abs(m.sum(axis=1)).max() > _ROW_TOL * max(1.0, np.abs(m).max()):
                raise ValueError("generator rows must sum to 0")
        elif self.time == DT:
            if m.min() < -_ROW_TOL or m.max() > 1 + _ROW_TOL:
                raise ValueError("transition probabilities must lie in [0, 1]")
            if np.abs(m.sum(axis=1) - 1).max() > _ROW_TOL:
                raise ValueError("transition matrix rows must sum to 1")
        else:
            raise ValueError(f"time base must be 'ct' or 'dt', got {self.time!r}")
        if self.initial_state is not None and self.initial_state not in self.states:
            raise ValueError(f"initial state {self.initial_state!r} not in state set")
        m.setflags(write=False)
        self.matrix = m

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self.states.index(state)

    def is_irreducible(self) -> bool:
        if self.n_states == 1:
            return True
        # positive entries are the possible jumps; self-loops cannot change
        # the strongly connected components
        adj = sp.csr_matrix((self.matrix > 0).astype(np.int8))
        ncomp, _ = csgraph.connected_components(adj, directed=True, connection="strong")
        return ncomp == 1


def stationary_distribution(chain: MarkovChainSpec) -> np.ndarray:
    """Unique stationary distribution of an irreducible chain.

    Dense LU solve of the balance equations with one equation replaced by
    the normalization row.  Raises ReducibleChain for chains whose positive
    transition graph is not strongly connected, NumericalFailure if the
    residual exceeds 1e-10.
    """
    if not chain.is_irreducible():
        raise ReducibleChain("chain state graph is not strongly connected")
    k = chain.n_states
    if k == 1:
        return np.ones(1)
    if chain.time == CT:
        a = chain.matrix.T.copy()          # pi Q = 0  <=>  Q^T pi = 0
    else:
        a = chain.matrix.T - np.eye(k)     # pi P = pi  <=>  (P^T - I) pi = 0
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"stationary solve failed: {exc}") from exc
    scale = max(1.0, float(np.abs(chain.matrix).max()))
    if chain.time == CT:
        residual = float(np.abs(pi @ chain.matrix).max())
    else:
        residual = float(np.abs(pi @ chain.matrix - pi).max())
    if residual > _RESIDUAL_TOL * scale or pi.min() < -1e-12:
        raise NumericalFailure(
            f"stationary residual {residual:.2e} exceeds tolerance {_RESIDUAL_TOL:.0e}"
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
