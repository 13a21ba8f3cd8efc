"""Seeded input generators for the loopsoup benchmark.

Every generator takes a numpy Generator and returns a plain graph document
(the schema of loopsoup.load_energy_form).  Documents are validated here,
independently of loopsoup, before any workload uses them.
"""

import json
from collections import deque

import numpy as np


class InputError(RuntimeError):
    """A generated document failed validation."""


def killed_box(L, rng):
    """L x L box of Z^2 with i.i.d. U[0.5, 1.5] edge conductances.

    Edges of the infinite lattice that leave the box are drawn too and
    moved into the killing of their inner endpoint, so only boundary
    vertices are killed and the chain is transient.
    """
    # horiz[i, j] joins (i, j-1)-(i, j), vert[i, j] joins (i-1, j)-(i, j);
    # index 0 and L are the edges that cross the boundary
    horiz = rng.uniform(0.5, 1.5, size=(L, L + 1))
    vert = rng.uniform(0.5, 1.5, size=(L + 1, L))
    killing = np.zeros((L, L))
    killing[:, 0] += horiz[:, 0]
    killing[:, L - 1] += horiz[:, L]
    killing[0, :] += vert[0, :]
    killing[L - 1, :] += vert[L, :]

    def name(i, j):
        return f"{i}_{j}"

    edges = []
    for i in range(L):
        for j in range(L):
            if j + 1 < L:
                edges.append([name(i, j), name(i, j + 1), float(horiz[i, j + 1])])
            if i + 1 < L:
                edges.append([name(i, j), name(i + 1, j), float(vert[i + 1, j])])
    doc = {
        "comment": f"killed {L}x{L} box, conductances U[0.5, 1.5]",
        "vertices": [name(i, j) for i in range(L) for j in range(L)],
        "edges": edges,
        "killing": {name(i, j): float(killing[i, j])
                    for i in range(L) for j in range(L) if killing[i, j] > 0},
    }
    validate(doc, transient=True)
    return doc


def unit_torus(m, rng):
    """m x m discrete torus with unit conductances and no killing; the
    vertex and edge order are shuffled by the generator."""
    names = [f"t{i}_{j}" for i in range(m) for j in range(m)]
    edges = []
    for i in range(m):
        for j in range(m):
            edges.append([names[i * m + j], names[i * m + (j + 1) % m], 1])
            edges.append([names[i * m + j], names[((i + 1) % m) * m + j], 1])
    vertices = [names[k] for k in rng.permutation(len(names))]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    doc = {"comment": f"{m}x{m} unit torus", "vertices": vertices, "edges": edges, "killing": {}}
    validate(doc, transient=False)
    return doc


def validate(doc, transient):
    """Connected, finite positive weights, no self-loops or duplicates;
    with transient=True some vertex must carry killing."""
    vertices = doc["vertices"]
    index = {v: k for k, v in enumerate(vertices)}
    if len(index) != len(vertices) or not vertices:
        raise InputError("vertex list empty or has duplicates")
    adj = [[] for _ in vertices]
    seen_edges = set()
    for u, v, w in doc["edges"]:
        if u == v or not (np.isfinite(w) and w > 0):
            raise InputError(f"bad edge {u}-{v} weight {w}")
        key = frozenset((u, v))
        if key in seen_edges:
            raise InputError(f"duplicate edge {u}-{v}")
        seen_edges.add(key)
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    kill = doc.get("killing", {})
    if any(not (np.isfinite(k) and k >= 0) for k in kill.values()):
        raise InputError("killing must be finite and nonnegative")
    if transient and not any(k > 0 for k in kill.values()):
        raise InputError("document is not transient (no killing)")
    reached = [False] * len(vertices)
    reached[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not reached[y]:
                reached[y] = True
                queue.append(y)
    if not all(reached):
        raise InputError("document is disconnected")


def write_doc(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
