"""Computations the output checks compare the program against.

Each is built here from the definitions, with numpy and scipy only, and
shares no code with tempest: the mean matrix from q/(q+r), the exact
generator as a Kronecker sum, the extinction probability of a 2-node
epidemic, and the linear system stepped with matrix exponentials.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp


def own_mean(doc: dict) -> np.ndarray:
    """Mean matrix of a graph in tempest's JSON form: q/(q+r) per edge."""
    a = np.zeros((doc["n"], doc["n"]))
    for e in doc["edges"]:
        model = e["model"]
        if model["type"] == "markov2":
            q, r = model["params"]["q"], model["params"]["r"]
            v = q / (q + r)
        elif model["type"] == "static":
            v = 1.0 if model["params"]["on"] else 0.0
        else:
            raise ValueError(f"unexpected edge model {model['type']!r}")
        a[e["i"], e["j"]] = v
        if doc["kind"] == "amei":
            a[e["j"], e["i"]] = v
    return a


def exact_generator(n: int, pairs, q: float, r: float, beta: float, delta: float):
    """Generator of the exact condition for 2-state CT edges on AMEI pairs.

    Pi (x) I_n + blockdiag_l (beta F_l - delta I), where Pi is the Kronecker
    sum of the edge generators [[-q, q], [r, -r]] and edge k is bit k of the
    label l (so it is the k-th factor counted from the right).
    """
    m = len(pairs)
    chain = sp.csr_matrix(np.array([[-q, q], [r, -r]]))
    pi = sp.csr_matrix((1 << m, 1 << m))
    for k in range(m):
        pi = pi + sp.kron(sp.kron(sp.identity(1 << (m - 1 - k)), chain), sp.identity(1 << k))
    blocks = []
    for label in range(1 << m):
        f = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            if label >> k & 1:
                f[i, j] = f[j, i] = 1.0
        blocks.append(sp.csr_matrix(beta * f - delta * np.eye(n)))
    return (sp.kron(pi, sp.identity(n)) + sp.block_diag(blocks)).tocsr()


def rightmost_eigenvalue(mat) -> float:
    """Largest real part of a sparse matrix's eigenvalues, by ARPACK."""
    import scipy.sparse.linalg
    vals = scipy.sparse.linalg.eigs(mat, k=1, which="LR", tol=1e-13,
                                    return_eigenvectors=False)
    return float(vals.real.max())


def pair_extinction(q: float, r: float, beta: float, delta: float, t: float) -> float:
    """P(extinct by t) for 2 nodes, both infected at 0, joined by one CT edge.

    State (e, x0, x1) has index 4e + 2 x0 + x1.  The edge starts in its
    stationary law and switches off->on at q, on->off at r; an infected node
    recovers at delta; a susceptible node is infected at beta while the edge
    is on and the other node infected.
    """
    gen = np.zeros((8, 8))
    for e in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                s = 4 * e + 2 * x0 + x1
                gen[s, 4 * (1 - e) + 2 * x0 + x1] += r if e else q
                if x0:
                    gen[s, 4 * e + x1] += delta
                elif e and x1:
                    gen[s, 4 * e + 2 + x1] += beta
                if x1:
                    gen[s, 4 * e + 2 * x0] += delta
                elif e and x0:
                    gen[s, 4 * e + 2 * x0 + 1] += beta
    gen -= np.diag(gen.sum(axis=1))
    p0 = np.zeros(8)
    p0[3], p0[7] = r / (q + r), q / (q + r)
    pt = p0 @ scipy.linalg.expm(gen * t)
    return float(pt[0] + pt[4])


def expm_log_norms(times, adjacency, beta: float, delta: float) -> np.ndarray:
    """log ||p(t_k)|| of dp/dt = (beta A(t) - delta I) p from p(0) = 1."""
    n = adjacency.shape[1]
    p = np.ones(n)
    log_norm = np.log(np.linalg.norm(p))
    p /= np.linalg.norm(p)
    out = [log_norm]
    for k in range(adjacency.shape[0]):
        m = beta * adjacency[k] - delta * np.eye(n)
        p = scipy.linalg.expm(m * (times[k + 1] - times[k])) @ p
        norm = np.linalg.norm(p)
        log_norm += np.log(norm)
        p /= norm
        out.append(log_norm)
    return np.asarray(out)
