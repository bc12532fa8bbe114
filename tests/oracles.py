"""Enumeration oracles: the independent second route for every closed-form
dispersion in pufsec.bounds.

Each oracle loops over the alphabet and evaluates the defining variance of
an information density directly, so it shares no arithmetic with the
closed forms built from a ChannelSummary's second moments.  The pmf
builders construct the attacker-extended sources explicitly.
"""

import math

import numpy as np


def random_markov(rng, nx, ny, nz):
    """P_XYZ = P_X P_{Y|X} P_{Z|Y}: a genuine X -> Y -> Z chain."""
    px = rng.dirichlet(np.ones(nx))
    pyx = np.stack([rng.dirichlet(np.ones(ny)) for _ in range(nx)])
    pzy = np.stack([rng.dirichlet(np.ones(nz)) for _ in range(ny)])
    return px[:, None, None] * pyx[:, :, None] * pzy[None, :, :]


def oracle_v1(j):
    """Var[log2(P_XY(x,y)|X| / P_Y(y))] by enumeration."""
    nx, ny = j.shape
    py = j.sum(axis=0)
    m1 = m2 = 0.0
    for x in range(nx):
        for y in range(ny):
            if j[x, y] > 0:
                r = math.log2(j[x, y] * nx / py[y])
                m1 += j[x, y] * r
                m2 += j[x, y] * r * r
    return m2 - m1 * m1


def oracle_vc(pmf):
    """Var[log2(P_XYZ / (P_XZ P_{Y|Z}))] by enumeration."""
    nx, ny, nz = pmf.shape
    pxz = pmf.sum(axis=1)
    pyz = pmf.sum(axis=0)
    pz = pyz.sum(axis=0)
    m1 = m2 = 0.0
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if pmf[x, y, z] > 0:
                    # P_{Y|Z} first: the product P_XZ * P_YZ of two tiny
                    # masses underflows to 0 on analog-extended sources
                    r = math.log2(pmf[x, y, z] /
                                  (pxz[x, z] * (pyz[y, z] / pz[z])))
                    m1 += pmf[x, y, z] * r
                    m2 += pmf[x, y, z] * r * r
    return m2 - m1 * m1


def oracle_vc_prime(pmf):
    """sum_x P(x) Var[log2(P_{YZ|X} / (P_{Z|X} P_{Y|Z})) | X=x]."""
    nx, ny, nz = pmf.shape
    px = pmf.sum(axis=(1, 2))
    pxz = pmf.sum(axis=1)
    pyz = pmf.sum(axis=0)
    pz = pyz.sum(axis=0)
    total = 0.0
    for x in range(nx):
        if px[x] == 0:
            continue
        m1 = m2 = 0.0
        for y in range(ny):
            for z in range(nz):
                if pmf[x, y, z] > 0:
                    w = pmf[x, y, z] / px[x]
                    r = math.log2(w / ((pxz[x, z] / px[x]) *
                                       (pyz[y, z] / pz[z])))
                    m1 += w * r
                    m2 += w * r * r
        total += px[x] * (m2 - m1 * m1)
    return total


def erasure_joint(joint, p_d):
    """Joint pmf of (S, S~_d) after EC(p_d) on the second coordinate."""
    return np.hstack([(1 - p_d) * joint, p_d * joint.sum(1, keepdims=True)])


def digital_triple(joint, p_d):
    """(S, S~, S~_d) pmf: the erasure acts on S~ only."""
    n_in, n_out = joint.shape
    pmf = np.zeros((n_in, n_out, n_out + 1))
    for i in range(n_in):
        for j in range(n_out):
            pmf[i, j, j] = (1 - p_d) * joint[i, j]
            pmf[i, j, n_out] = p_d * joint[i, j]
    return pmf


def analog_triple(joint, p_d, p_a):
    """(S, S~, (S~_d, S~_a)) pmf with the three shared-erasure outcomes."""
    n, m = joint.shape
    pmf = np.zeros((n, m, (m + 1) * (n + 1)))
    for i in range(n):
        for j in range(m):
            pmf[i, j, m * (n + 1) + n] += p_d * joint[i, j]
            pmf[i, j, j * (n + 1) + n] += (p_a - p_d) * joint[i, j]
            pmf[i, j, j * (n + 1) + i] += (1 - p_a) * joint[i, j]
    return pmf
