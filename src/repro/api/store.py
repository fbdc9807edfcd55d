"""Graphs as first-class named resources — the multi-graph session owner.

:class:`GraphStore` is the resource layer above :class:`MiningSession`: it
owns many sessions — one per distinct graph, all sharing a single LRU
:class:`~repro.api.cache.CompiledGraphCache` — and addresses them by
*reference*: a registered name (``"ppi"``) or the graph's content
fingerprint (full hex digest, or any unambiguous prefix of at least
:data:`MIN_PREFIX_LENGTH` characters).  It is the engine behind multi-graph
dataset hosting in :mod:`repro.service`: one server process holds one
store, and every wire request names the graph it wants.

Resource model
--------------
* :meth:`GraphStore.add` registers a graph (deduplicated by fingerprint)
  and returns its :class:`GraphInfo`; :meth:`GraphStore.add_dataset` does
  the same for a named Table 1 analog from :mod:`repro.datasets`.
* :meth:`GraphStore.session` resolves a reference to the graph's
  :class:`MiningSession` (every resolution touches the LRU order).
* :meth:`GraphStore.get` / :meth:`list` / :meth:`remove` complete the CRUD
  surface; removal also drops the graph's compiled artifacts and counters
  from the shared cache.
* The first graph added becomes the *default* (what versionless callers —
  the ``/v1`` wire surface — run against); :meth:`set_default` moves it.

Budgeted eviction
-----------------
``max_graphs`` bounds how many graphs stay resident.  Adding beyond the
budget evicts the least recently *used* unpinned graph (sessions touched by
:meth:`session` stay hot); pinned graphs — the operator's ``--dataset``
flags, the default graph — are never evicted.  When every resident graph is
pinned and the budget is exhausted, :meth:`add` raises
:class:`~repro.errors.StoreError` instead of silently dropping a pin.

>>> from repro.uncertain.graph import UncertainGraph
>>> store = GraphStore()
>>> info = store.add(UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.8)]), name="toy")
>>> store.get("toy").num_edges
2
>>> store.session("toy") is store.session(info.fingerprint)
True
>>> [entry.name for entry in store.list()]
['toy']
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import GraphNotFoundError, StoreError
from ..uncertain.graph import UncertainGraph
from .cache import CacheInfo, CompiledGraphCache
from .session import MiningSession

__all__ = ["GraphInfo", "GraphStore", "MIN_PREFIX_LENGTH", "GRAPH_NAME_PATTERN"]

#: Shortest fingerprint prefix accepted as a graph reference.  Shorter
#: prefixes are rejected outright (not merely "not found") so a typo'd
#: short token cannot silently start matching once the store grows.
MIN_PREFIX_LENGTH = 8

#: Registered names: URL-safe, start alphanumeric, no whitespace.  Keeping
#: names out of the hex alphabet's shape is not required — resolution
#: prefers exact names over fingerprint prefixes — but the charset must
#: survive a URL path segment unescaped.  Exported so other layers (the
#: CLI's file-stem naming) validate against the same rule.
GRAPH_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Default graph budget of a store (None = unbounded — right for library
#: use where the caller controls registrations).  Upload-accepting
#: services should bound residency; ``repro-mule serve`` defaults to 64.
DEFAULT_MAX_GRAPHS = None


class GraphInfo(NamedTuple):
    """The wire-facing description of one stored graph."""

    fingerprint: str
    name: str | None
    num_vertices: int
    num_edges: int
    pinned: bool
    default: bool


@dataclass
class _Entry:
    """One resident graph: its session plus resource metadata."""

    session: MiningSession
    name: str | None
    pinned: bool


class GraphStore:
    """A thread-safe registry of mining sessions over one shared cache.

    Parameters
    ----------
    cache:
        Optional externally-owned :class:`CompiledGraphCache`; by default
        the store creates one bounded at ``cache_maxsize``.
    cache_maxsize:
        Bound of the store-created cache (ignored when ``cache`` is given).
    max_graphs:
        Graph residency budget (``None`` = unbounded).  See the module
        docstring for the eviction policy.
    """

    #: Bound of the store-owned shared cache: wide enough for sweeps over
    #: several resident graphs, bounded so a long-lived store cannot pin
    #: unbounded compiled artifacts.
    DEFAULT_CACHE_MAXSIZE = 256

    def __init__(
        self,
        *,
        cache: CompiledGraphCache | None = None,
        cache_maxsize: int | None = DEFAULT_CACHE_MAXSIZE,
        max_graphs: int | None = DEFAULT_MAX_GRAPHS,
    ) -> None:
        if max_graphs is not None and max_graphs < 1:
            raise StoreError(f"max_graphs must be positive, got {max_graphs}")
        self._cache = (
            cache if cache is not None else CompiledGraphCache(maxsize=cache_maxsize)
        )
        self._max_graphs = max_graphs
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._names: dict[str, str] = {}  # name -> fingerprint
        self._default: str | None = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add(
        self,
        graph: UncertainGraph,
        *,
        name: str | None = None,
        pin: bool = False,
    ) -> GraphInfo:
        """Register ``graph`` (idempotent by content) and return its info.

        Re-adding a graph that is already resident is cheap: the existing
        session is kept (its compiled artifacts stay warm) and only the
        metadata is merged — a new ``name`` becomes an additional alias,
        ``pin=True`` upgrades an unpinned entry.  The first graph ever
        added becomes the store's default.

        Raises
        ------
        StoreError
            If ``name`` is malformed or already names a *different* graph,
            or the graph budget is exhausted by pinned entries.
        """
        if name is not None and not GRAPH_NAME_PATTERN.match(name):
            raise StoreError(
                f"invalid graph name {name!r}: names must match "
                f"{GRAPH_NAME_PATTERN.pattern}"
            )
        session = self._new_session(graph)
        with self._lock:
            entry = self._register_locked(session, name=name, pin=pin)
            return self._info_locked(session.fingerprint, entry)

    def add_dataset(
        self,
        dataset: str,
        *,
        scale: float = 1.0,
        seed: int = 2015,
        name: str | None = None,
        pin: bool = True,
    ) -> GraphInfo:
        """Build a named Table 1 analog and register it.

        ``name`` defaults to the dataset's registry name, so
        ``store.add_dataset("ppi", scale=0.05)`` is immediately
        addressable as ``store.session("ppi")``.  Dataset entries are
        pinned by default — they are the operator's serving catalog, not
        transient uploads.
        """
        # Deferred import: repro.datasets pulls in every generator; the
        # store itself must stay importable from the bare api layer.
        from ..datasets.registry import load_dataset, resolve_dataset_name

        canonical = resolve_dataset_name(dataset)
        graph = load_dataset(canonical, scale=scale, seed=seed)
        return self.add(graph, name=name if name is not None else canonical, pin=pin)

    def ensure(self, graph: UncertainGraph) -> MiningSession:
        """Return (registering on first use) the session serving ``graph``.

        The ad-hoc path the scheduler uses for requests that carry a graph
        object instead of a reference: content-equal graphs share one
        session, and the registration is unpinned/unnamed so the LRU
        budget applies to it.
        """
        session = self._new_session(graph)
        with self._lock:
            return self._register_locked(session, name=None, pin=False).session

    def _new_session(self, graph: UncertainGraph) -> MiningSession:
        """A session on ``graph`` with its fingerprint already computed.

        The session memoises the hash, so registering a graph and then
        running its first job (the scheduler keys compilations by
        :attr:`MiningSession.fingerprint`) hashes it exactly once.  The
        hash is taken before the store lock: it is the costly step.
        """
        session = MiningSession(graph, cache=self._cache)
        session.fingerprint  # hashed and memoised here, outside the lock
        return session

    def _register_locked(
        self, session: MiningSession, *, name: str | None, pin: bool
    ) -> _Entry:
        """Admit ``session``'s graph, or merge into the resident entry.

        Caller holds the lock.  A graph already resident keeps its own
        session (its compiled artifacts stay warm) and ``session`` is
        dropped; a new ``name`` becomes an alias and ``pin`` only ever
        upgrades.
        """
        fingerprint = session.fingerprint
        if name is not None:
            claimed = self._names.get(name)
            if claimed is not None and claimed != fingerprint:
                raise StoreError(
                    f"name {name!r} already refers to graph "
                    f"{claimed[:12]}…; remove it first"
                )
        entry = self._entries.get(fingerprint)
        if entry is None:
            self._make_room_locked()
            entry = _Entry(session=session, name=None, pinned=False)
            self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        if name is not None:
            self._names[name] = fingerprint
            if entry.name is None:
                entry.name = name
        entry.pinned = entry.pinned or pin
        if self._default is None:
            self._default = fingerprint
        return entry

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, ref: str | None) -> str:
        """Resolve a reference to a resident fingerprint.

        ``None`` resolves to the default graph.  A string resolves as a
        registered name first — **exact-name wins**, names are the
        user-chosen namespace — then as a full fingerprint, then as an
        unambiguous fingerprint prefix of at least
        :data:`MIN_PREFIX_LENGTH` characters.

        Name precedence is checked, not blind: a ref that is the
        registered name of one graph *and* a full fingerprint or a
        :data:`MIN_PREFIX_LENGTH`-or-longer fingerprint prefix of a
        **different** graph is truly ambiguous — two graphs claim the
        same token — and raises :class:`~repro.errors.StoreError` rather
        than silently answering the name.  A name that collides only
        with its *own* graph's fingerprint stays unambiguous and
        resolves normally.

        Raises
        ------
        StoreError
            If the reference matches several graphs — multiple
            fingerprint prefixes, or a name colliding with another
            graph's fingerprint.
        GraphNotFoundError
            If the reference matches nothing.
        """
        with self._lock:
            if ref is None:
                if self._default is None:
                    raise StoreError("store has no graphs (no default graph)")
                return self._default
            named = self._names.get(ref)
            if ref in self._entries:
                matches = [ref]
            elif len(ref) >= MIN_PREFIX_LENGTH:
                matches = [fp for fp in self._entries if fp.startswith(ref)]
            else:
                matches = []
            if named is not None:
                rivals = [fp for fp in matches if fp != named]
                if rivals:
                    raise StoreError(
                        f"graph reference {ref!r} is ambiguous: it is the "
                        f"registered name of graph {named[:12]} and a "
                        f"fingerprint prefix of {len(rivals)} other "
                        f"graph(s); use the full fingerprint"
                    )
                return named
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise StoreError(
                    f"graph reference {ref!r} is ambiguous "
                    f"({len(matches)} fingerprints match)"
                )
            known = ", ".join(sorted(self._names)) or "none"
            raise GraphNotFoundError(
                f"unknown graph {ref!r}; registered names: {known}"
            )

    def session(self, ref: str | None = None) -> MiningSession:
        """Return the session of the referenced graph (touching LRU order)."""
        with self._lock:
            fingerprint = self.resolve(ref)
            self._entries.move_to_end(fingerprint)
            return self._entries[fingerprint].session

    def graph(self, ref: str | None = None) -> UncertainGraph:
        """Return the referenced graph object."""
        return self.session(ref).graph

    def get(self, ref: str | None = None) -> GraphInfo:
        """Return the :class:`GraphInfo` of the referenced graph."""
        with self._lock:
            fingerprint = self.resolve(ref)
            return self._info_locked(fingerprint, self._entries[fingerprint])

    def list(self) -> list[GraphInfo]:
        """Return every resident graph, most recently used last."""
        with self._lock:
            return [self._info_locked(fp, entry) for fp, entry in self._entries.items()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, ref: object) -> bool:
        if not isinstance(ref, str):
            return False
        try:
            self.resolve(ref)
        except StoreError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Removal and eviction
    # ------------------------------------------------------------------ #
    def remove(self, ref: str) -> GraphInfo:
        """Unregister a graph and drop its compiled artifacts.

        The default graph cannot be removed while other callers may depend
        on versionless resolution — :meth:`set_default` to another graph
        first.  Returns the removed graph's (final) info.

        Removal is a registry operation, not a cancellation: a request
        already holding this graph's session keeps running and may briefly
        re-materialise artifacts in the shared LRU cache; they age out
        under normal pressure (and their counters are pruned with the last
        artifact), they just are no longer addressable.
        """
        with self._lock:
            fingerprint = self.resolve(ref)
            if fingerprint == self._default and len(self._entries) > 1:
                raise StoreError(
                    "cannot remove the default graph; set_default() to "
                    "another graph first"
                )
            info = self._info_locked(fingerprint, self._entries[fingerprint])
            self._drop_locked(fingerprint)
            if self._default == fingerprint:
                self._default = None
            return info

    def set_default(self, ref: str) -> GraphInfo:
        """Designate the graph versionless callers resolve to."""
        with self._lock:
            self._default = self.resolve(ref)
            return self.get(self._default)

    @property
    def default_fingerprint(self) -> str | None:
        """Fingerprint of the default graph (``None`` on an empty store)."""
        with self._lock:
            return self._default

    def _drop_locked(self, fingerprint: str) -> None:
        """Remove one entry and its cache footprint (caller holds the lock)."""
        del self._entries[fingerprint]
        self._names = {
            name: fp for name, fp in self._names.items() if fp != fingerprint
        }
        self._cache.discard(fingerprint)

    def _make_room_locked(self) -> None:
        """Evict LRU unpinned graphs until the budget admits one more entry."""
        if self._max_graphs is None:
            return
        while len(self._entries) >= self._max_graphs:
            victim = next(
                (
                    fp
                    for fp, entry in self._entries.items()
                    if not entry.pinned and fp != self._default
                ),
                None,
            )
            if victim is None:
                raise StoreError(
                    f"graph budget of {self._max_graphs} exhausted and every "
                    f"resident graph is pinned or the default"
                )
            self._drop_locked(victim)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> CompiledGraphCache:
        """The shared compiled-graph cache behind every session."""
        return self._cache

    def cache_info(self) -> CacheInfo:
        """Global counters of the shared cache."""
        return self._cache.info()

    def cache_info_for(self, ref: str | None = None) -> CacheInfo:
        """Per-graph cache counters of the referenced graph."""
        with self._lock:
            return self._cache.info_for(self.resolve(ref))

    def _info_locked(self, fingerprint: str, entry: _Entry) -> GraphInfo:
        graph = entry.session.graph
        return GraphInfo(
            fingerprint=fingerprint,
            name=entry.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            pinned=entry.pinned,
            default=fingerprint == self._default,
        )

    def __repr__(self) -> str:
        with self._lock:
            names = [e.name or fp[:12] for fp, e in self._entries.items()]
        return f"GraphStore(graphs={names!r}, cache={self._cache!r})"
