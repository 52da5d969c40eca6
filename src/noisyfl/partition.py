"""Client index partitioning: IID plus three non-IID skew schemes.

:func:`make_partition` is the one entry: it checks K <= N before any draw
(no draw could give more clients than samples a sample each), then runs
the split that ``SCHEMES`` names for the scheme and builds the one plan.

Every scheme follows one split rule.  It shuffles sets of sample indices,
each with a named stream of its own.  It cuts each set at per-client counts
and hands the rest round-robin to clients in a given order, or drops it.
IID and quantity skew cut one global permutation and drop the rest; label
Dirichlet and label quantity cut each class and deal its leftovers.  Every
scheme is a pure function of (dataset, parameters, seed).

The two Dirichlet schemes redraw their shares (up to a fixed budget) while
a client would come out empty, since aggregation weights by client size;
redraw ``a`` of seed ``s`` uses streams of its own, ``stream(s, <name>,
"redraw", a)``, never the streams of another seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import DegeneratePartitionError

# Redraw budget when a sampled share vector leaves a client empty.  Dirichlet
# shares at small alpha are sparse enough that floor(q_k*N) = 0 happens for
# ~99.5% of draws (alpha=0.1, K=10, N=1e4), so the budget must be generous
# for small-alpha settings to remain usable.
EMPTY_CLIENT_RETRIES = 2000


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
    """Disjoint per-client sample-index lists, each sorted ascending, plus the scheme that made them."""

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
        param = SCHEMES[self.scheme][0]
        stray = [name for name in ("alpha", "c") if name != param and getattr(self, name) is not None]
        if stray:
            raise ValueError(f"scheme {self.scheme} takes no {' or '.join(stray)}")
        if param == "alpha" and (self.alpha is None or not self.alpha > 0):
            raise ValueError(f"scheme {self.scheme} requires alpha > 0")
        if param == "c" and (self.c is None or self.c < 1):
            raise ValueError(f"scheme {self.scheme} requires c >= 1")

    @property
    def params(self) -> dict:
        """The scheme's parameter as plan.json records it: ``{}`` or ``{name: value}``, alpha a float and c an int."""
        param = SCHEMES[self.scheme][0]
        return {} if param is None else {param: float(self.alpha) if param == "alpha" else int(self.c)}


def _redraw(attempt: int) -> tuple:
    """Stream-path suffix of redraw ``attempt``; attempt 0 keeps the plain stream names."""
    return () if attempt == 0 else ("redraw", attempt)


def _check_client_count(n: int, num_clients: int) -> None:
    """Reject a client count that no draw can serve: above the N samples."""
    if n < num_clients:
        raise DegeneratePartitionError(f"{num_clients} clients cannot each get one of {n} samples")


def _cut(n: int, counts: np.ndarray, deal: np.ndarray | None = None) -> np.ndarray:
    """Client of each of n shuffled positions, or -1 for a dropped one.

    Client k takes the next counts[k] positions in turn; the rest go
    round-robin to the clients listed in ``deal``, or are dropped without it.
    """
    owners = np.repeat(np.arange(len(counts)), counts)[:n]
    rest = np.arange(n - len(owners))
    return np.concatenate([owners, deal[rest % len(deal)] if deal is not None else np.full(len(rest), -1)])


def _sizes(n: int, counts: np.ndarray, deal: np.ndarray | None) -> np.ndarray:
    """Each client's number of positions in ``_cut(n, counts, deal)``, without building the n owners."""
    ends = np.minimum(np.cumsum(counts), n)
    sizes = ends.copy()
    sizes[1:] -= ends[:-1]
    if deal is not None:
        rest = n - ends[-1]
        sizes[deal] += rest // len(deal) + (np.arange(len(deal)) < rest % len(deal))
    return sizes


def _assign(seed: int, groups: list, owners: list[np.ndarray], num_clients: int, redraw: tuple = ()) -> list[np.ndarray]:
    """Shuffle each (stream path, sample indices) group with its stream and give each position to its owner."""
    shuffled = np.concatenate([rng.stream(seed, *path, *redraw).permutation(members) for path, members in groups])
    owners = np.concatenate(owners)
    return [shuffled[owners == k] for k in range(num_clients)]


def _dirichlet_split(
    label: str, shares: str, deals: bool, groups: list, num_clients: int, alpha: float, seed: int
) -> list[np.ndarray]:
    """Cut each group at floor(q_k * N_g) for Dirichlet(alpha) shares q of its own, redrawing while a client is empty.

    The shares come from stream ``shares``.  With ``deals``, a group's
    leftovers go over clients by ascending fractional deficit, ties by
    client index; without, they are dropped.  A client's size depends only
    on the shares, so an attempt draws them and is accepted or redrawn on
    the K sizes alone; only the accepted attempt cuts and shuffles the
    groups.  ``label`` names the scheme in the error.
    """
    for attempt in range(EMPTY_CLIENT_RETRIES + 1):
        gen = rng.stream(seed, shares, *_redraw(attempt))
        cuts, sizes = [], np.zeros(num_clients, dtype=np.int64)
        for _, members in groups:
            targets = gamma_dirichlet(gen, alpha, num_clients) * len(members)
            counts = np.floor(targets).astype(np.int64)
            deal = np.lexsort((np.arange(num_clients), targets - counts)) if deals else None
            cuts.append((len(members), counts, deal))
            sizes += _sizes(len(members), counts, deal)
        if sizes.all():
            owners = [_cut(*cut) for cut in cuts]
            return _assign(seed, groups, owners, num_clients, _redraw(attempt))
    n = sum(len(members) for _, members in groups)
    raise DegeneratePartitionError(
        f"{label} left a client empty after {EMPTY_CLIENT_RETRIES} redraws (alpha={alpha}, K={num_clients}, N={n})"
    )


def _iid_split(ds: LabeledDataset, num_clients: int, seed: int) -> list[np.ndarray]:
    """Global shuffle, then K blocks of floor(N/K); the remainder is unassigned."""
    n = len(ds)
    owners = _cut(n, np.full(num_clients, n // num_clients))
    return _assign(seed, [(("iid",), np.arange(n))], [owners], num_clients)


def _quantity_split(ds: LabeledDataset, num_clients: int, seed: int, alpha: float) -> list[np.ndarray]:
    """One Dirichlet(alpha) share vector sizes the clients; class mix untouched.

    Client k gets a contiguous block of floor(q_k * N) globally shuffled
    indices; floor remainders are dropped.
    """
    groups = [(("quantity-shuffle",), np.arange(len(ds)))]
    return _dirichlet_split("quantity skew", "quantity-shares", False, groups, num_clients, alpha, seed)


def _label_dir_split(ds: LabeledDataset, num_clients: int, seed: int, alpha: float) -> list[np.ndarray]:
    """Per-class Dirichlet(alpha) shares give each client a slice of every class.

    Class i is shuffled once, split at floor(q_ik * N_i); per-class leftovers
    go round-robin over clients ordered by ascending fractional deficit.
    """
    classes = [(cls, np.flatnonzero(ds.labels == cls)) for cls in range(ds.num_classes)]
    groups = [(("labeldir-class", cls), members) for cls, members in classes if len(members)]
    return _dirichlet_split("label-dirichlet", "labeldir-shares", True, groups, num_clients, alpha, seed)


def _label_quantity_split(ds: LabeledDataset, num_clients: int, seed: int, c: int) -> list[np.ndarray]:
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

    groups, owners = [], []
    for cls in range(num_classes):
        # equal shares, so deficit ties break by client index
        holders = np.array([k for k in range(num_clients) if cls in assigned[k]], dtype=np.int64)
        members = np.flatnonzero(ds.labels == cls)
        counts = np.zeros(num_clients, dtype=np.int64)
        counts[holders] = len(members) // len(holders)
        groups.append((("labelqty-class", cls), members))
        owners.append(_cut(len(members), counts, holders))
    clients = _assign(seed, groups, owners, num_clients)
    if min(len(cl) for cl in clients) < 1:
        raise DegeneratePartitionError("label-quantity produced an empty client")
    return clients


# scheme -> (its one parameter or None, its split(ds, num_clients, seed[, parameter]))
SCHEMES = {
    "iid": (None, _iid_split),
    "quantity-skew": ("alpha", _quantity_split),
    "label-dir": ("alpha", _label_dir_split),
    "label-quantity": ("c", _label_quantity_split),
}


def make_partition(ds: LabeledDataset, num_clients: int, spec: PartitionSpec, seed: int) -> PartitionPlan:
    """The plan of the scheme named by ``spec``; K <= N is checked before the scheme draws."""
    param, split = SCHEMES[spec.scheme]
    _check_client_count(len(ds), num_clients)
    clients = split(ds, num_clients, seed) if param is None else split(ds, num_clients, seed, getattr(spec, param))
    return PartitionPlan(clients, spec.scheme, spec.params, seed)


def restrict(ds: LabeledDataset, plan: PartitionPlan, k: int) -> LabeledDataset:
    """Materialize client k's local dataset; the global class count is retained."""
    idx = plan.clients[k]
    return LabeledDataset(
        features=ds.features[idx],
        labels=ds.labels[idx],
        num_classes=ds.num_classes,
        true_labels=ds.true_labels[idx] if ds.true_labels is not None else None,
    )
