"""Client index partitioning: IID plus three non-IID skew schemes.

Every scheme is a pure function of (dataset, parameters, seed).  Index lists
are stored sorted ascending so plan files diff canonically.  Schemes that
sample client shares redraw (up to a fixed budget) when a client would come
out empty, since aggregation weights by client size; redraw ``a`` of seed
``s`` uses streams of its own, ``stream(s, <name>, "redraw", a)``, never the
streams of another seed.  More clients than samples fail before any draw,
since no redraw could give every client a sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import DegeneratePartitionError

SCHEME_IID = "iid"
SCHEME_QUANTITY = "quantity-skew"
SCHEME_LABEL_DIR = "label-dir"
SCHEME_LABEL_QUANTITY = "label-quantity"
SCHEMES = (SCHEME_IID, SCHEME_QUANTITY, SCHEME_LABEL_DIR, SCHEME_LABEL_QUANTITY)
# the one parameter each scheme takes, if any
SCHEME_PARAM = {SCHEME_IID: None, SCHEME_QUANTITY: "alpha", SCHEME_LABEL_DIR: "alpha", SCHEME_LABEL_QUANTITY: "c"}

# Redraw budget when a sampled share vector leaves a client empty.  Dirichlet
# shares at small alpha are sparse enough that floor(q_k*N) = 0 happens for
# ~99.5% of draws (alpha=0.1, K=10, N=1e4), so the budget must be generous
# for small-alpha settings to remain usable.
EMPTY_CLIENT_RETRIES = 2000

# sampler(gen, alpha, size) -> probability vector; injectable for stubbing
DirichletSampler = Callable[[np.random.Generator, float, int], np.ndarray]


def gamma_dirichlet(gen: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Dirichlet draw via normalized per-coordinate Gamma(alpha, 1) samples."""
    g = gen.gamma(alpha, 1.0, size=size)
    total = g.sum()
    if total <= 0.0:  # all-zero underflow at tiny alpha; fall back to one-hot
        g = np.zeros(size)
        g[int(gen.integers(size))] = 1.0
        return g
    return g / total


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint per-client sample-index lists plus the scheme that made them."""

    clients: list[np.ndarray]
    scheme: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "clients", [np.sort(np.asarray(c, dtype=np.int64)) for c in self.clients]
        )

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clients], dtype=np.int64)

    def validate(self, n: int) -> None:
        """Check disjointness, index bounds, and non-emptiness against a dataset of size n."""
        seen = np.concatenate(self.clients) if self.clients else np.zeros(0, dtype=np.int64)
        if len(seen) and (seen.min() < 0 or seen.max() >= n):
            raise IndexError("plan contains indices outside the dataset")
        if len(seen) and np.bincount(seen).max() > 1:
            raise ValueError("plan assigns some index to more than one client")
        if any(len(c) == 0 for c in self.clients):
            raise DegeneratePartitionError("plan contains an empty client")


@dataclass(frozen=True)
class PartitionSpec:
    """Scheme tag plus its parameter (Dirichlet alpha or classes-per-client c); a parameter it does not take is an error."""

    scheme: str
    alpha: float | None = None
    c: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown partition scheme {self.scheme!r}; must be one of {list(SCHEMES)}")
        stray = [name for name in ("alpha", "c") if name != SCHEME_PARAM[self.scheme] and getattr(self, name) is not None]
        if stray:
            raise ValueError(f"scheme {self.scheme} takes no {' or '.join(stray)}")
        if self.scheme in (SCHEME_QUANTITY, SCHEME_LABEL_DIR) and (self.alpha is None or not self.alpha > 0):
            raise ValueError(f"scheme {self.scheme} requires alpha > 0")
        if self.scheme == SCHEME_LABEL_QUANTITY and (self.c is None or self.c < 1):
            raise ValueError("scheme label-quantity requires c >= 1")


def _redraw(attempt: int) -> tuple:
    """Stream-path suffix of redraw ``attempt``; attempt 0 keeps the plain stream names."""
    return () if attempt == 0 else ("redraw", attempt)


def _check_client_count(n: int, num_clients: int) -> None:
    """Reject a client count that no draw can serve: above the N samples."""
    if n < num_clients:
        raise DegeneratePartitionError(f"{num_clients} clients cannot each get one of {n} samples")


def partition_iid(ds: LabeledDataset, num_clients: int, seed: int) -> PartitionPlan:
    """Global shuffle, then K blocks of floor(N/K); the remainder is unassigned."""
    n = len(ds)
    _check_client_count(n, num_clients)
    perm = rng.stream(seed, "iid").permutation(n)
    block = n // num_clients
    clients = [perm[k * block : (k + 1) * block] for k in range(num_clients)]
    return PartitionPlan(clients=clients, scheme=SCHEME_IID, params={}, seed=seed)


def partition_quantity_skew(
    ds: LabeledDataset,
    num_clients: int,
    alpha: float,
    seed: int,
    sampler: DirichletSampler = gamma_dirichlet,
) -> PartitionPlan:
    """One Dirichlet(alpha) share vector sizes the clients; class mix untouched.

    Client k gets a contiguous block of floor(q_k * N) globally shuffled
    indices; floor remainders are dropped.
    """
    n = len(ds)
    _check_client_count(n, num_clients)
    for attempt in range(EMPTY_CLIENT_RETRIES + 1):
        redraw = _redraw(attempt)
        q = np.asarray(sampler(rng.stream(seed, "quantity-shares", *redraw), alpha, num_clients), dtype=np.float64)
        counts = np.floor(q * n).astype(np.int64)
        if counts.min() >= 1:
            perm = rng.stream(seed, "quantity-shuffle", *redraw).permutation(n)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            clients = [perm[offsets[k] : offsets[k + 1]] for k in range(num_clients)]
            return PartitionPlan(
                clients=clients, scheme=SCHEME_QUANTITY, params={"alpha": float(alpha)}, seed=seed
            )
    raise DegeneratePartitionError(
        f"quantity skew left a client empty after {EMPTY_CLIENT_RETRIES} redraws (alpha={alpha}, K={num_clients}, N={n})"
    )


def _deal_leftovers(order: np.ndarray, leftover_indices: np.ndarray, out: list[list[np.ndarray]], client_ids: np.ndarray) -> None:
    """Hand leftover sample indices one-by-one to clients cycling through ``order``."""
    for pos, sample in enumerate(leftover_indices):
        k = client_ids[order[pos % len(order)]]
        out[k].append(np.array([sample], dtype=np.int64))


def partition_label_dirichlet(
    ds: LabeledDataset,
    num_clients: int,
    alpha: float,
    seed: int,
    sampler: DirichletSampler = gamma_dirichlet,
) -> PartitionPlan:
    """Per-class Dirichlet(alpha) shares give each client a slice of every class.

    Class i is shuffled once, split at floor(q_ik * N_i); per-class leftovers
    go round-robin over clients ordered by ascending fractional deficit.
    A client's size depends only on the shares, so an attempt draws them
    and counts each client's samples; only the accepted attempt shuffles
    the classes and builds the split.
    """
    n = len(ds)
    _check_client_count(n, num_clients)
    client_ids = np.arange(num_clients)
    classes = [(cls, np.flatnonzero(ds.labels == cls)) for cls in range(ds.num_classes)]
    classes = [(cls, members) for cls, members in classes if len(members)]
    for attempt in range(EMPTY_CLIENT_RETRIES + 1):
        shares_gen = rng.stream(seed, "labeldir-shares", *_redraw(attempt))
        sizes = np.zeros(num_clients, dtype=np.int64)
        splits = []  # per class: the cut offsets and the leftover order
        for _, members in classes:
            q = np.asarray(sampler(shares_gen, alpha, num_clients), dtype=np.float64)
            targets = q * len(members)
            counts = np.floor(targets).astype(np.int64)
            # cuts past the class end keep only what is there, as the slices of the split do
            offsets = np.minimum(np.concatenate([[0], np.cumsum(counts)]), len(members))
            order = np.lexsort((client_ids, targets - counts))
            leftover = order[np.arange(len(members) - offsets[-1]) % num_clients]
            sizes += np.diff(offsets) + np.bincount(leftover, minlength=num_clients)
            splits.append((offsets, order))
        if sizes.min() >= 1:
            return _label_dirichlet_plan(seed, _redraw(attempt), classes, splits, num_clients, alpha)
    raise DegeneratePartitionError(
        f"label-dirichlet left a client empty after {EMPTY_CLIENT_RETRIES} redraws (alpha={alpha}, K={num_clients}, N={n})"
    )


def _label_dirichlet_plan(seed: int, redraw: tuple, classes: list, splits: list, num_clients: int, alpha: float):
    """Shuffle each class with the accepted attempt's streams and cut it where the shares say."""
    parts: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for (cls, members), (offsets, order) in zip(classes, splits):
        members = rng.stream(seed, "labeldir-class", cls, *redraw).permutation(members)
        for k in range(num_clients):
            parts[k].append(members[offsets[k] : offsets[k + 1]])
        _deal_leftovers(order, members[offsets[-1] :], parts, np.arange(num_clients))
    clients = [np.concatenate(p) if p else np.zeros(0, dtype=np.int64) for p in parts]
    return PartitionPlan(clients=clients, scheme=SCHEME_LABEL_DIR, params={"alpha": float(alpha)}, seed=seed)


def partition_label_quantity(ds: LabeledDataset, num_clients: int, c: int, seed: int) -> PartitionPlan:
    """Assign exactly c distinct classes per client, then split each class evenly.

    Coverage first: shuffled classes are dealt one each to shuffled clients,
    then every client draws its remaining classes without replacement.
    Samples of a class held by m clients split floor(N_i/m) each, leftover
    round-robin (ascending deficit, ties by client index).
    """
    num_classes = ds.num_classes
    if c > num_classes:
        raise DegeneratePartitionError(f"c = {c} classes per client exceeds the C = {num_classes} classes")
    if num_clients * c < num_classes:
        raise DegeneratePartitionError(
            f"K*c = {num_clients * c} < C = {num_classes}: some class would be unassigned"
        )
    gen = rng.stream(seed, "labelqty-assign")
    class_order = gen.permutation(num_classes)
    client_order = gen.permutation(num_clients)
    assigned: list[set[int]] = [set() for _ in range(num_clients)]
    for i, cls in enumerate(class_order):
        assigned[client_order[i % num_clients]].add(int(cls))
    for k in range(num_clients):
        missing = c - len(assigned[k])
        if missing > 0:
            pool = np.array(sorted(set(range(num_classes)) - assigned[k]), dtype=np.int64)
            extra = gen.choice(pool, size=missing, replace=False)
            assigned[k].update(int(x) for x in extra)

    parts: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        holders = np.array([k for k in range(num_clients) if cls in assigned[k]], dtype=np.int64)
        members = np.flatnonzero(ds.labels == cls)
        members = rng.stream(seed, "labelqty-class", cls).permutation(members)
        m = len(holders)
        base = len(members) // m
        offsets = np.arange(m + 1) * base
        for j, k in enumerate(holders):
            parts[k].append(members[offsets[j] : offsets[j + 1]])
        order = np.arange(m)  # equal shares, so deficit ties break by client index
        _deal_leftovers(order, members[offsets[-1] :], parts, holders)

    clients = [np.concatenate(p) if p else np.zeros(0, dtype=np.int64) for p in parts]
    if min(len(cl) for cl in clients) < 1:
        raise DegeneratePartitionError("label-quantity produced an empty client")
    return PartitionPlan(
        clients=clients, scheme=SCHEME_LABEL_QUANTITY, params={"c": int(c)}, seed=seed
    )


def make_partition(ds: LabeledDataset, num_clients: int, spec: PartitionSpec, seed: int) -> PartitionPlan:
    """Dispatch to the scheme named by ``spec``."""
    if spec.scheme == SCHEME_IID:
        return partition_iid(ds, num_clients, seed)
    if spec.scheme == SCHEME_QUANTITY:
        return partition_quantity_skew(ds, num_clients, spec.alpha, seed)
    if spec.scheme == SCHEME_LABEL_DIR:
        return partition_label_dirichlet(ds, num_clients, spec.alpha, seed)
    return partition_label_quantity(ds, num_clients, spec.c, seed)


def restrict(ds: LabeledDataset, plan: PartitionPlan, k: int) -> LabeledDataset:
    """Materialize client k's local dataset; the global class count is retained."""
    idx = plan.clients[k]
    return LabeledDataset(
        features=ds.features[idx],
        labels=ds.labels[idx],
        num_classes=ds.num_classes,
        true_labels=ds.true_labels[idx] if ds.true_labels is not None else None,
    )


def save_plan(plan: PartitionPlan, path: str) -> None:
    """Write the canonical plan JSON (sorted indices, sorted keys)."""
    doc = {
        "scheme": plan.scheme,
        "params": plan.params,
        "seed": plan.seed,
        "clients": [c.tolist() for c in plan.clients],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_plan(path: str) -> PartitionPlan:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return PartitionPlan(
        clients=[np.asarray(c, dtype=np.int64) for c in doc["clients"]],
        scheme=doc["scheme"],
        params=doc["params"],
        seed=int(doc["seed"]),
    )
