"""Finite-difference oracles shared by the test modules."""

import numpy as np


def central_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_hess(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return H


def metric_matrix(model, p):
    """The model's metric component matrix at a point, from `Field.value`."""
    n = len(model.metric)
    return np.array([[model.metric[i][j].value(p) for j in range(n)]
                     for i in range(n)])


def form_matrix(form, p):
    """Dense antisymmetric component matrix of a 2-form at a point."""
    assert form.degree == 2
    m = np.zeros((form.dim, form.dim))
    for (a, b), fld in form.comps.items():
        v = fld.value(p)
        m[a, b] = v
        m[b, a] = -v
    return m
