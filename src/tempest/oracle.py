"""Ground-truth machinery for small instances.

The exponential-size exact stability condition of a continuous-time graph
(the Kronecker sum of the switching edges' chain generators over
mixed-radix labels, one digit per edge chain state, of dimension
n * prod_e k_e, solved through its two sparse factors by the power loop
that a Lanczos vector starts where the block is symmetric under a diagonal
similarity, an ARPACK Ritz vector elsewhere, and assembled only on request
or when that solve cannot be certified), exhaustive and Monte-Carlo evaluation of
the expected spectral statistics of the certificate random matrices
M1..M4, and empirical verification of the matrix concentration tail bound
that powers every linear-size certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import rng as rngmod
from .errors import TooManyConfigurations, TooManyEdges, WrongKind
from .graphs import AMAI, AMEI, STATIC_ON, DynamicGraphModel, MeanMatrix, arcs
from .markov import CT
from .spectral import kappa, spectral_abscissa
from .thresholds import EpidemicParams, kappa_params

_EDGE_CAP = 20
_DIM_CAP = 2_000_000
_CONFIG_CAP = 2 ** 20


@dataclass
class SubgraphEnumeration:
    """The joint chain of a dynamic graph's switching edges, over mixed-radix labels.

    Label ``l`` in [0, prod(size)) is one state of every switching edge:
    digit k, of radix ``size[k]``, is the chain state of edge k, and edge 0
    is the least significant digit.  Edge k is present in the subgraph of
    ``l`` where ``output[k, digit_k] > 0``; for 2-state Markov edges (state 1
    on) the label is the present-edge bitmask.  ``generator`` holds each
    edge's generator, padded with zeros to the widest chain, as
    ``EdgeTable.layout`` lays it out.  Statically-on edges are folded into
    ``static_base`` and belong to every subgraph.
    """

    n: int
    kind: str
    edge_keys: list
    size: np.ndarray        # (m,) states of each switching edge's chain
    generator: np.ndarray   # (m, w, w) their generators
    output: np.ndarray      # (m, w) their output maps
    static_base: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edge_keys)

    @property
    def n_labels(self) -> int:
        return math.prod(self.size.tolist())

    @property
    def stride(self) -> np.ndarray:
        return np.cumprod(np.concatenate([[1], self.size[:-1]])).astype(np.int64)

    def adjacency(self, label: int) -> np.ndarray:
        f = self.static_base.copy()
        digits = label // self.stride % self.size
        for k, key in enumerate(self.edge_keys):
            if self.output[k, digits[k]] > 0:
                for i, j in arcs(self.kind, *key):
                    f[i, j] = 1.0
        return f


def _chain_layout(graph: DynamicGraphModel):
    """The chains of the graph's switching edges; raises unless the graph is CT."""
    if graph.time != CT:
        raise WrongKind("the exact condition applies to continuous-time graphs; "
                        "discrete time needs a label operator of its own")
    return graph.table.layout(law=None)


def _enumerate(graph: DynamicGraphModel, nodes: np.ndarray, lay) -> SubgraphEnumeration:
    """Joint edge chain of the subgraph induced on ``nodes``, relabelled
    0..len-1; ``lay`` is the graph's ``_chain_layout``.  Both caps are checked
    before any label array exists."""
    table = graph.table
    local = np.full(graph.n, -1)
    local[nodes] = np.arange(nodes.size)
    li, lj = local[table.i], local[table.j]
    inside = (li >= 0) & (lj >= 0)
    static_on = inside & (table.template == STATIC_ON)
    static_base = np.zeros((nodes.size, nodes.size))
    for i, j in arcs(graph.kind, li[static_on], lj[static_on]):
        static_base[i, j] = 1.0
    keep = inside[lay.rows]
    if keep.sum() > _EDGE_CAP:
        raise TooManyEdges(f"{keep.sum()} switching edges exceed the cap of {_EDGE_CAP}")
    dim = nodes.size * math.prod(lay.size[keep].tolist())
    if dim > _DIM_CAP:
        raise TooManyEdges(f"generator dimension {dim} (nodes times the product of the "
                           f"chain sizes) exceeds the cap of {_DIM_CAP}")
    rows = lay.rows[keep]
    keys = list(zip(li[rows].tolist(), lj[rows].tolist()))
    return SubgraphEnumeration(nodes.size, graph.kind, keys, lay.size[keep],
                               lay.matrix[keep], lay.output[keep], static_base)


def enumerate_subgraphs(graph: DynamicGraphModel) -> SubgraphEnumeration:
    """The joint chain of a CT graph's switching edges (any finite chains)."""
    return _enumerate(graph, np.arange(graph.n), _chain_layout(graph))


def pi_matrix(enum: SubgraphEnumeration) -> sp.csr_matrix:
    """Generator of the joint edge process over the labels: the Kronecker sum
    of the edges' generators.

    A positive rate s -> t of edge k moves every label whose digit k is s to
    ``label + (t - s) * stride_k``; diagonal entries make rows sum to zero.
    Written as CSR directly, edge by edge: over edges 0..k, the row of label
    s * stride_k + l' is edge k's moves down from s (ascending t), the row of
    l' over edges 0..k-1 shifted by s * stride_k, then edge k's moves up.  So
    every row lists the moves down from the last edge to the first, its
    diagonal, then the moves up, and its columns ascend.  The rows are kept
    as one table of equal width, padded with negative columns.  A label
    without moves has no diagonal entry; a diagonal is minus the sum of its
    row's moves in column order.
    """
    big_l = enum.n_labels
    if enum.m == 0:
        return sp.csr_matrix((1, 1))
    columns, rates = np.zeros((1, 1), dtype=np.int32), np.zeros((1, 1))
    diagonal = np.zeros(1, dtype=np.int64)  # each row's diagonal slot
    for k, (size, stride) in enumerate(zip(enum.size.tolist(), enum.stride.tolist())):
        gen = enum.generator[k, :size, :size]
        moves = [(np.flatnonzero(gen[s, :s] > 0), s + 1 + np.flatnonzero(gen[s, s + 1:] > 0))
                 for s in range(size)]
        inner, label = columns.shape[1], np.arange(stride)[:, None]
        width = inner + max(down.size + up.size for down, up in moves)
        prev = columns, rates
        columns = np.empty((size * stride, width), dtype=np.int32)
        rates = np.empty((size * stride, width))
        for s, (down, up) in enumerate(moves):  # row block s: digit k is s
            rows, mid = slice(s * stride, (s + 1) * stride), slice(down.size, down.size + inner)
            end = mid.stop + up.size
            columns[rows, :down.size], rates[rows, :down.size] = down * stride + label, gen[s, down]
            np.add(prev[0], s * stride, out=columns[rows, mid])
            rates[rows, mid] = prev[1]
            columns[rows, mid.stop:end], rates[rows, mid.stop:end] = up * stride + label, gen[s, up]
            columns[rows, end:] = _NO_ENTRY
        diagonal = np.concatenate([diagonal + down.size for down, _ in moves])
    labels = np.arange(big_l)
    valid = columns >= 0
    count = valid.sum(axis=1) - 1
    valid[labels, diagonal] = False
    moving = count > 0
    # the row sums scipy's CSR sum takes: one reduceat over each moving row's moves
    rates[labels[moving], diagonal[moving]] = -np.add.reduceat(
        rates.ravel().take(np.flatnonzero(valid)), (np.cumsum(count) - count)[moving])
    valid[labels, diagonal] = moving
    at = np.flatnonzero(valid)
    return sp.csr_matrix((rates.ravel().take(at), columns.ravel().take(at),
                          np.concatenate([[0], np.cumsum(count + moving)])),
                         shape=(big_l, big_l))


_NO_ENTRY = -(1 << 30)  # a padding slot's column: negative after any shift below the label cap


class ExactGenerator(spla.LinearOperator):
    """Pi (x) I_n + blockdiag_l (B F_l - D), held as its two factors.

    ``pi`` is the L x L joint edge generator (``pi_matrix``, diagonal
    included) and ``contact`` the Ln x Ln block diagonal of B F_l - D, both
    CSR with sorted indices.  A matvec reads x as an (L, n) array, one row
    per label, and costs one product with each factor; ``diagonal`` reads the
    sum's diagonal off the factors and ``tocsr`` materializes the sum.  The
    operator is Metzler, which ``spectral_abscissa`` takes on trust.
    ``balance``, when given, is the pair (a, b) of ``_balance``: the
    operator is symmetric under the similarity diag(a (x) b).
    """

    def __init__(self, pi: sp.csr_matrix, contact: sp.csr_matrix, n: int, balance=None):
        super().__init__(np.float64, contact.shape)
        self.pi, self.contact, self.n, self.balance = pi, contact, n, balance

    def symmetrizer(self):
        """A positive s with diag(s)^-1 M diag(s) symmetric, or None."""
        return None if self.balance is None else np.outer(*self.balance).ravel()

    def _matvec(self, x):
        x = np.ravel(x)
        y = self.contact @ x
        y += (self.pi @ x.reshape(-1, self.n)).ravel()
        return y

    def diagonal(self) -> np.ndarray:
        return np.repeat(self.pi.diagonal(), self.n) + self.contact.diagonal()

    def tocsr(self) -> sp.csr_matrix:
        """The sum, materialized a block of labels at a time.

        Pi (x) I_n is written without a Kronecker product: its row (l, i) is
        pi's row l with column l' moved to l' n + i, so it is pi's rows, each
        taken n times, their columns scaled by n and shifted by i.  Each
        block's sum with the contact rows goes into arrays sized for both
        factors' entries, so the peak is the result plus one block.
        """
        n, pi, contact = self.n, self.pi, self.contact
        big_l, rows = pi.shape[0], self.shape[0]
        scaled = sp.csr_matrix((pi.data, pi.indices * n, pi.indptr), shape=(big_l, rows))
        size = pi.nnz * n + contact.nnz
        index = np.int32 if max(size, rows) < 2 ** 31 else np.int64
        data, indices = np.empty(size), np.empty(size, dtype=index)
        indptr = np.zeros(rows + 1, dtype=index)
        step = max(1, _BLOCK_ROWS // n)
        for first in range(0, big_l, step):
            last = min(first + step, big_l)
            lo, hi = first * n, last * n  # the block's rows
            kron = scaled[np.repeat(np.arange(first, last), n)]
            kron.indices += np.repeat(np.tile(np.arange(n, dtype=kron.indices.dtype), last - first),
                                      np.diff(kron.indptr))
            start, stop = contact.indptr[lo], contact.indptr[hi]  # its contact rows, as views
            block = kron + sp.csr_matrix((contact.data[start:stop], contact.indices[start:stop],
                                          contact.indptr[lo:hi + 1] - start), shape=kron.shape)
            at = indptr[lo]
            data[at:at + block.nnz], indices[at:at + block.nnz] = block.data, block.indices
            indptr[lo + 1:hi + 1] = at + block.indptr[1:]
        return sp.csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr), shape=self.shape)


_BLOCK_ROWS = 1 << 13  # rows ExactGenerator.tocsr sums at a time


def _contact(enum: SubgraphEnumeration, beta: np.ndarray, delta: np.ndarray) -> sp.csr_matrix:
    """blockdiag_l (B F_l - D): the static base in every label's block, plus
    each switching edge's arcs, at the row node's beta, in the blocks of the
    labels where its output is on.

    Written as CSR directly, the way ``pi_matrix`` is, from the cells a block
    can hold, lexsorted by (row, column): a nonzero cell of the base, present
    in every label, and a switching arc with a nonzero beta, present where
    its edge is on.  Each (label, node) row counts its entries by one sum
    over that node's contiguous cells of an (L, cells) presence table, and
    the present cells read label by label are the CSR entries, taken off
    broadcast views of the cells' values and columns.  The sums need every
    node to hold a cell, which its -delta_i diagonal is.
    """
    if not (delta > 0).all():
        raise ValueError("recovery rates must be positive: each row counts from its diagonal")
    n, big_l = enum.n, enum.n_labels
    base = beta[:, None] * enum.static_base - np.diag(delta)
    node, column = np.nonzero(base)
    value, edge = base[node, column], np.full(node.size, -1)
    keys = np.array(enum.edge_keys, dtype=np.intp).reshape(-1, 2)
    for i, j in arcs(enum.kind, *keys.T):  # row node i is infected at beta_i
        live = beta[i] != 0
        node, column = np.concatenate([node, i[live]]), np.concatenate([column, j[live]])
        value = np.concatenate([value, beta[i[live]]])
        edge = np.concatenate([edge, np.arange(keys.shape[0])[live]])
    order = np.lexsort((column, node))
    node, column, value, edge = node[order], column[order], value[order], edge[order]
    present = np.ones((big_l, node.size), dtype=bool)
    for c, k in enumerate(edge.tolist()):
        if k >= 0:  # digit k steps through edge k's states every stride_k labels
            on = np.repeat(enum.output[k, :enum.size[k]] > 0, enum.stride[k])
            present[:, c] = np.tile(on, big_l // on.size)
    count = np.add.reduceat(present, np.searchsorted(node, np.arange(n)), axis=1, dtype=np.int64)
    cols = np.broadcast_to(column.astype(np.int32), present.shape)[present]
    cols += np.repeat(np.arange(big_l, dtype=np.int32) * np.int32(n), count.sum(axis=1))
    return sp.csr_matrix((np.broadcast_to(value, present.shape)[present], cols,
                          np.concatenate([[0], np.cumsum(count)])),
                         shape=(big_l * n, big_l * n))


def _balance(enum: SubgraphEnumeration, beta: np.ndarray):
    """(1/sqrt(pi), sqrt(beta)), pi the joint edge chain's stationary law over
    the labels, when T = diag(sqrt(pi) (x) B^-1/2) makes the generator
    symmetric; else None.

    It does when every label's adjacency is symmetric (an edge writes the
    mirror of each cell it writes), every beta is positive and every
    switching edge is a 2-state chain with both rates positive.  Such a
    chain is reversible, so sqrt(pi) Pi sqrt(pi)^-1 is symmetric, and
    B^-1/2 (B F_l - D) B^1/2 = B^1/2 F_l B^1/2 - D is symmetric.  A chain
    with a zero rate has a zero in pi, and no such T.
    """
    cells = arcs(enum.kind, 0, 1)
    up, down = enum.generator[:, 0, 1], enum.generator[:, 1, 0]
    if (set(cells) != {(j, i) for i, j in cells} or (enum.size != 2).any()
            or not (np.minimum(up, down) > 0).all() or not (beta > 0).all()):
        return None
    root = np.ones(1)
    for q, r in zip(up.tolist(), down.tolist()):  # edge 0 is the least significant digit
        root = np.kron(np.sqrt([r / (q + r), q / (q + r)]), root)
    return 1.0 / root, np.sqrt(beta)


def _generator(enum: SubgraphEnumeration, beta: np.ndarray, delta: np.ndarray) -> ExactGenerator:
    return ExactGenerator(pi_matrix(enum), _contact(enum, beta, delta), enum.n,
                          _balance(enum, beta))


def assemble_exponential_generator(graph: DynamicGraphModel,
                                   params: EpidemicParams) -> sp.csr_matrix:
    """Sparse assembly of Pi (x) I_n + blockdiag_l (B F_l - D).

    ``ExactGenerator.tocsr`` of the two factors: the per-label blocks are
    assembled per edge and on-state over the labels where that edge is in
    that state, and the joint edge generator is written into every node's
    rows, never materializing the dense square.
    """
    return _generator(enumerate_subgraphs(graph), params.beta, params.delta).tocsr()


def _coupling_components(graph: DynamicGraphModel, beta: np.ndarray) -> list:
    """Strongly connected components of the infection coupling between nodes.

    Arc i -> j when beta_i > 0 and a stochastic or static-on edge writes
    cell (i, j).
    """
    table = graph.table
    live = table.template >= STATIC_ON
    src, dst = np.hstack(arcs(graph.kind, table.i[live], table.j[live]))
    keep = beta[src] > 0
    coupling = sp.coo_matrix((np.ones(keep.sum()), (src[keep], dst[keep])),
                             shape=(graph.n, graph.n))
    count, labels = connected_components(coupling, directed=True, connection="strong")
    return [np.flatnonzero(labels == c) for c in range(count)]


def exponential_condition(graph: DynamicGraphModel, params: EpidemicParams):
    """Exact-chain stability condition of exponential size.

    Returns (stable, eta): the Hurwitz verdict and the spectral abscissa of
    Pi (x) I_n + blockdiag_l (B F_l - D), Pi the Kronecker sum of the edge
    chains' generators, computed one block at a time.  Ordered by the
    strongly connected components of the node coupling, the generator is
    block-triangular; each diagonal block is the Kronecker sum of its
    component's own generator (its nodes and internal edges) with the
    generator of the other edges, whose abscissa is 0.  So eta is the
    maximum over components, a singleton contributes -delta_i, and the edge
    and dimension caps apply per component, all checked before any solve.
    Each block is Metzler, irreducible when its edge chains are, and goes to
    ``spectral_abscissa`` as an ``ExactGenerator``, solved on its two
    factors and assembled only when that solve cannot be certified.
    """
    lay = _chain_layout(graph)
    components = _coupling_components(graph, params.beta)
    # enumerate every block first, so that a cap fails before any solve
    blocks = [(nodes, _enumerate(graph, nodes, lay)) for nodes in components
              if nodes.size > 1]
    etas = [-params.delta[nodes[0]] for nodes in components if nodes.size == 1]
    etas += [spectral_abscissa(_generator(enum, params.beta[nodes], params.delta[nodes]))
             for nodes, enum in blocks]
    eta = float(max(etas, default=-np.inf))
    return eta < 0.0, eta


# ---------------------------------------------------------------------------
# Certificate random matrices M1..M4
# ---------------------------------------------------------------------------

@dataclass
class RandomMatrixSampler:
    """Bernoulli-support random matrices behind the certificates.

    M1 = -D + sum_(i!=j) beta_i h_ij E_ij                  (arc-independent)
    M2 = -D + sum_(i<j) sqrt(beta_i beta_j)(E_ij+E_ji) h_ij
    M3 =      sum_(i<j) (E_ij+E_ji) h_ij
    M4 = I-D + sum_(i<j) sqrt(beta_i beta_j)(E_ij+E_ji) h_ij

    with independent h_ij ~ Bernoulli(abar_ij): M1's pairs write their cells
    as AMAI edges do, M2-M4's as AMEI edges do (``graphs.arcs``).
    Deterministic pairs (abar in {0,1}) are folded into the base matrix; only
    genuinely random pairs are sampled or enumerated.
    """

    which: str
    abar: np.ndarray
    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.which = self.which.upper()
        if self.which not in ("M1", "M2", "M3", "M4"):
            raise ValueError("which must be one of M1, M2, M3, M4")
        a = np.array(self.abar, dtype=float)
        if a.min() < 0 or a.max() > 1 or np.diag(a).any():
            raise ValueError("means must lie in [0,1] with zero diagonal")
        if self.which != "M1" and not np.array_equal(a, a.T):
            raise ValueError(f"{self.which} needs a symmetric mean matrix")
        a.setflags(write=False)
        self.abar = a
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        n = a.shape[0]
        if self.which == "M1":
            kind, (ii, jj) = AMAI, np.nonzero(~np.eye(n, dtype=bool))
        else:
            kind, (ii, jj) = AMEI, np.triu_indices(n, k=1)
        rand = (a[ii, jj] > 0) & (a[ii, jj] < 1)
        self._ri, self._rj = ii[rand], jj[rand]
        self._rp = a[self._ri, self._rj]
        self._rw = self._weights(self._ri, self._rj)
        det = a[ii, jj] == 1.0
        self._base, w = self._offset(), self._weights(ii[det], jj[det])
        for i, j in arcs(kind, ii[det], jj[det]):
            self._base[i, j] = w
        # flattened cells of the random pairs, each with the index of its pair
        cells = arcs(kind, self._ri, self._rj)
        self._cells = np.concatenate([i * n + j for i, j in cells])
        self._pair = np.tile(np.arange(self._ri.size), len(cells))

    @classmethod
    def from_mean(cls, which: str, mean: MeanMatrix, params: EpidemicParams):
        return cls(which, mean.a_bar, params.beta, params.delta)

    @property
    def n(self) -> int:
        return self.abar.shape[0]

    @property
    def n_random_pairs(self) -> int:
        return self._ri.size

    @property
    def symmetric(self) -> bool:
        return self.which != "M1"

    def _offset(self) -> np.ndarray:
        if self.which == "M3":
            return np.zeros((self.n, self.n))
        d = np.diag(-self.delta)
        if self.which == "M4":
            d = d + np.eye(self.n)
        return d

    def _weights(self, ii, jj) -> np.ndarray:
        if self.which == "M1":
            return self.beta[ii]
        if self.which == "M3":
            return np.ones(ii.size)
        return np.sqrt(self.beta[ii] * self.beta[jj])

    def expectation(self) -> np.ndarray:
        return self.from_bits(self._rp)

    def bound_c(self) -> float:
        """Deviation bound C of the concentration inequality (beta_max; 1 for M3)."""
        return kappa_params(self.which, self.abar, self.beta).b

    def variance_proxy(self) -> float:
        """v^2 = || sum Var(X_k) ||: Delta1, Delta2, or Delta3 of the family."""
        return kappa_params(self.which, self.abar, self.beta).d

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.from_bits(self._draw_bits(rng, count))

    def _draw_bits(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self._ri.size)) < self._rp

    def from_bits(self, bits: np.ndarray) -> np.ndarray:
        """Matrices for explicit support configurations (bits: (..., r))."""
        bits = np.asarray(bits)
        lead = bits.shape[:-1]
        cols = self._columns(bits.reshape(math.prod(lead), bits.shape[-1]))
        return np.ascontiguousarray(cols.T).reshape(lead + (self.n, self.n))

    def _columns(self, bits: np.ndarray) -> np.ndarray:
        """(n*n, draws) array whose column d is the matrix of bits[d], flattened:
        the base plus, in every cell a random pair writes, w * bits."""
        out = np.empty((self.n * self.n, bits.shape[0]))
        out[:] = self._base.reshape(-1, 1)
        out[self._cells] += self._rw[self._pair, None] * bits.T[self._pair]
        return out

    def statistic(self, mats: np.ndarray) -> np.ndarray:
        """mu for M1, eta for M2/M3, log eta for M4 (batched over leading axes)."""
        if self.which == "M1":
            sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
            return np.linalg.eigvalsh(sym)[..., -1]
        top = np.linalg.eigvalsh(mats)[..., -1]
        if self.which == "M4":
            with np.errstate(divide="ignore"):
                return np.log(top)
        return top

    def statistic_name(self) -> str:
        return {"M1": "E[mu(M1)]", "M2": "E[eta(M2)]",
                "M3": "E[eta(M3)]", "M4": "E[log eta(M4)]"}[self.which]


def sample_certificate_matrix(sampler: RandomMatrixSampler, seed: int) -> np.ndarray:
    """One draw of the sampler's random matrix."""
    rng = rngmod.generator(seed, rngmod.TAG_DRAW)
    return sampler.sample_batch(rng, 1)[0]


@dataclass
class ExpectationEstimate:
    value: float
    stderr: float
    mode: str
    count: int
    statistic: str


def expected_certificate(sampler: RandomMatrixSampler, mode: str = "exhaustive",
                         draws: int = 10_000, seed: int = 0,
                         batch: int = 2048) -> ExpectationEstimate:
    """E[mu(M1)] / E[eta(M2|M3)] / E[log eta(M4)].

    ``exhaustive`` enumerates all support configurations of the random
    pairs and returns the exact probability-weighted sum
    (standard error 0).  ``montecarlo`` averages over ``draws`` samples.
    """
    name = sampler.statistic_name()
    r = sampler.n_random_pairs
    if mode == "exhaustive":
        if 2 ** r > _CONFIG_CAP:
            raise TooManyConfigurations(f"2^{r} support configurations exceed the cap")
        total = 0.0
        logp = np.log(sampler._rp) if r else np.zeros(0)
        log1mp = np.log1p(-sampler._rp) if r else np.zeros(0)
        for start in range(0, 2 ** r, batch):
            g = np.arange(start, min(start + batch, 2 ** r), dtype=np.int64)
            bits = ((g[:, None] >> np.arange(r)) & 1).astype(float) if r else np.zeros((g.size, 0))
            w = np.exp(bits @ logp + (1.0 - bits) @ log1mp)
            total += float(w @ sampler.statistic(sampler.from_bits(bits)))
        return ExpectationEstimate(total, 0.0, "exhaustive", int(2 ** r), name)
    if mode != "montecarlo":
        raise ValueError("mode must be 'exhaustive' or 'montecarlo'")
    rng = rngmod.generator(seed, rngmod.TAG_DRAW)
    vals = np.empty(draws)
    for start in range(0, draws, batch):
        k = min(batch, draws - start)
        vals[start:start + k] = sampler.statistic(sampler.sample_batch(rng, k))
    se = float(vals.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("inf")
    return ExpectationEstimate(float(vals.mean()), se, "montecarlo", draws, name)


@dataclass
class ChungTailCheck:
    """Empirical tail frequencies against the concentration bound, per s.

    ``exact_draws`` counts the draws the bracket screen left open at some
    threshold, whose top eigenvalue was then computed by ``eigvalsh``.
    """

    s: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray
    eta_mean: float
    draws: int
    exact_draws: int

    def rows(self):
        return list(zip(self.s, self.empirical, self.bound, self.stderr))


_SCREEN_STEPS = 10     # power steps per batch before the brackets are read
_SCREEN_FLOOR = 1e-3   # start-vector floor, relative to its largest entry
_SCREEN_MARGIN = 1e-9  # decision margin, relative to ||X + cI||_inf times c/extra


def _perron_brackets(cols: np.ndarray, x0: np.ndarray, shift: float):
    """Certified lo <= eta(X) <= hi for symmetric Metzler X, one per draw.

    ``cols`` is (n, n, draws).  ``shift`` exceeds every |X_ii|, so X + cI
    is nonnegative with a positive diagonal and the power steps from the
    positive ``x0`` keep x positive.  For any nonnegative matrix and
    positive x, reducible ones included, the Collatz-Wielandt ratios
    ((X + cI)x)_i / x_i bracket rho(X + cI) = eta(X) + c.  The Rayleigh
    quotient of the symmetric X is a second lower bound, the one that
    closes on reducible draws.
    """
    x = np.broadcast_to(x0[:, None], cols.shape[1:])
    for _ in range(_SCREEN_STEPS):
        y = np.einsum("ijd,jd->id", cols, x) + shift * x
        x = y / y.max(axis=0)
    y = np.einsum("ijd,jd->id", cols, x) + shift * x
    ratio = y / x
    lo = np.maximum(ratio.min(axis=0), (x * y).sum(axis=0) / (x * x).sum(axis=0))
    return lo - shift, ratio.max(axis=0) - shift


def chung_tail_check(sampler: RandomMatrixSampler, s_grid, draws: int = 10_000,
                     seed: int = 0, batch: int = 512) -> ChungTailCheck:
    """Estimate Pr(eta(X) > eta(E[X]) + s) and pair it with kappa_{C,v^2}(s).

    Applies to the symmetric families (M2/M3/M4); C and v^2 are the values
    used in the certificate proofs (C = beta_max or 1, v^2 = the family's
    Delta).

    Each batch is screened before any eigensolve.  Every draw starts from
    the Perron vector of E[X], floored so that no entry is zero, and takes
    a fixed number of power steps on X + cI, c = max|X_ii| plus the largest
    off-diagonal entry a draw can take; the Collatz-Wielandt ratios and the
    Rayleigh quotient then bracket eta(X).  A draw is decided at threshold
    t = eta(E[X]) + s when its bracket clears t by a margin far above
    rounding error; a draw left open at any threshold gets its top
    eigenvalue from ``eigvalsh`` and is counted with the strict ``>``.  The
    counts therefore equal those of running ``eigvalsh`` on every draw.
    """
    if not sampler.symmetric:
        raise ValueError("the tail bound check applies to symmetric families (M2/M3/M4)")
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    mean = sampler.expectation()
    eta_mean = float(np.linalg.eigvalsh(mean)[-1])
    thresholds = eta_mean + s_grid
    x0 = np.abs(np.linalg.eigh(mean)[1][:, -1])
    x0 = np.maximum(x0, _SCREEN_FLOOR * x0.max())
    # every draw lies entrywise between the base and the all-present matrix
    top = sampler.from_bits(np.ones(sampler.n_random_pairs))
    off = (top - np.diag(np.diag(top))).max()
    extra = off if off > 0 else 1.0
    shift = np.abs(np.diag(top)).max() + extra
    # rounding moves a ratio by about n*eps*(shift/extra) relative, as X_ii x_i
    # cancels against c x_i, and eigvalsh's eta by about n*eps*||X||
    margin = _SCREEN_MARGIN * (shift + np.abs(top).sum(axis=1).max()) * shift / extra
    rng = rngmod.generator(seed, rngmod.TAG_DRAW)
    n = sampler.n
    exceed = np.zeros(s_grid.size, dtype=np.int64)
    exact_draws = 0
    for start in range(0, draws, batch):
        k = min(batch, draws - start)
        # the draws of sample_batch, left in the (n*n, draws) layout from_bits builds
        cols = sampler._columns(sampler._draw_bits(rng, k))
        lo, hi = _perron_brackets(cols.reshape(n, n, k), x0, shift)
        above = lo[:, None] > thresholds + margin
        open_ = ~(above | (hi[:, None] < thresholds - margin)).all(axis=1)
        if open_.any():
            mats = np.ascontiguousarray(cols[:, open_].T).reshape(-1, n, n)
            etas = np.linalg.eigvalsh(mats)[:, -1]
            above[open_] = etas[:, None] > thresholds
            exact_draws += int(open_.sum())
        exceed += above.sum(axis=0)
    freq = exceed / draws
    bound = kappa(kappa_params(sampler.which, sampler.abar, sampler.beta), s_grid)
    stderr = np.sqrt(freq * (1.0 - freq) / draws)
    return ChungTailCheck(s_grid, freq, bound, stderr, eta_mean, draws, exact_draws)
