"""The three workloads: their inputs, set-up, rounds of operations and checks.

Every workload is one client in a closed loop: it sends the next
operation only when the previous one has returned.  A run is made of
whole *rounds*; a round is a fixed list of operation kinds (its literals
come from the seed and the round number), so the share of every kind,
and of failed operations, is the same in every run whatever its length.

* ``served`` -- an on-disk sqlite catalog behind ``CatalogServer`` (rate
  limit off), reached through one keep-alive ``CatalogClient``.  Many
  users with sessions repeat a small hot query set that fits the result
  cache; an upload burst opens each round and invalidates that cache.
  Each round also sends the two hostile requests (a 600-deep XML
  document and a 2000-deep JSON body), which count as failed until the
  server answers them with a 4xx on a connection that stays usable.
* ``discover`` -- in process, memory (columnar) engine, a larger corpus
  and distinct query literals that overflow the result cache, so query
  shredding, planning and matching do the work.
* ``ingest`` -- in process, on-disk sqlite; writes beside reads.  Every
  write invalidates the result cache, and fetches read back the
  documents just written.  The run ends by closing the catalog,
  reopening it from disk and re-reading every acknowledged object.

Outputs are recorded while the clock runs and checked after it, against
:class:`corpus.Evaluator` and the benchmark's own ownership ledger.
"""

from __future__ import annotations

import array
import gc
import hashlib
import http.client
import json
import os
import random
import shutil
from typing import Callable, Dict, List, Optional, Tuple

import corpus
from repro.backends.sqlite import SqliteHybridStore
from repro.core import HybridCatalog, MemoryHybridStore
from repro.errors import CatalogError
from repro.grid import MyLeadService, lead_schema
from repro.obs.metrics import MetricsRegistry
from repro.server import CatalogClient, CatalogServer, ServerConfig

#: Operation kinds that measure the catalog; the hostile kinds are the
#: two served requests that must be refused with a 4xx.
KINDS = ("query", "fetch", "search", "ingest")
HOSTILE = ("hostile_xml", "hostile_json")
FETCH_SIZE = 2
PAGE_SIZE = 5
#: Users that each try, after the timed phase, to fetch another user's
#: private object; every attempt must be denied.
DENIED_FETCHES = 4
#: Operation order of an ``ingest`` round: U upload, Q query, F fetch, S search.
INGEST_ROUND = "UQUFQUSUFQ"
DEEP_XML = "<a>" * 600 + "</a>" * 600
DEEP_JSON = b'{"query": ' + b"[" * 2000 + b"]" * 2000 + b"}"


def _digest(data: str) -> bytes:
    return hashlib.blake2b(data.encode("utf-8"), digest_size=16).digest()


class Config:
    """Size and make-up of one workload's inputs and rounds."""

    def __init__(self, name: str, store: str, served: bool, users: int,
                 base: int, uploads: int, queries: int, fetches: int,
                 searches: int, mix: Dict[str, int], hot: int,
                 rounds_per_second: float) -> None:
        self.name = name
        self.store = store
        self.served = served
        self.users = users
        self.base = base
        self.uploads = uploads
        self.queries = queries
        self.fetches = fetches
        self.searches = searches
        #: query shape -> weight
        self.mix = mix
        #: size of the repeated query set; 0 draws fresh literals per query
        self.hot = hot
        #: timed rounds per second of run length, sized so that a run takes
        #: about ``--seconds`` at the reference host speed
        self.rounds_per_second = rounds_per_second

    def rounds(self, seconds: float) -> int:
        """Timed rounds of a run: fixed for a run length, whatever the
        host's speed, so every operation of a seed sees the same catalog."""
        return max(1, round(seconds * self.rounds_per_second))

    @property
    def round_size(self) -> int:
        hostile = len(HOSTILE) if self.served else 0
        return self.uploads + self.queries + self.fetches + self.searches + hostile


CONFIGS = {
    "served": Config("served", "sqlite", True, users=48, base=240, uploads=4,
                     queries=120, fetches=24, searches=16,
                     mix={"kw": 8, "marker": 2, "param": 6, "nested": 4, "conj": 4},
                     hot=24, rounds_per_second=4),
    "discover": Config("discover", "memory", False, users=12, base=600, uploads=1,
                       queries=120, fetches=12, searches=8,
                       mix={"kw": 7, "marker": 1, "param": 6, "nested": 3, "conj": 3},
                       hot=0, rounds_per_second=12),
    "ingest": Config("ingest", "sqlite", False, users=8, base=200, uploads=4,
                     queries=3, fetches=2, searches=1,
                     mix={"kw": 4, "marker": 1, "param": 3, "nested": 1, "conj": 1},
                     hot=0, rounds_per_second=20),
}


class Instance:
    """One built starting catalog: what set-up returns."""

    def __init__(self, path: Optional[str], catalog: HybridCatalog,
                 service: MyLeadService, experiments: Dict[str, object],
                 object_ids: List[int], server: Optional[CatalogServer],
                 tokens: Dict[str, str]) -> None:
        self.path = path
        self.catalog = catalog
        self.service = service
        self.experiments = experiments
        self.object_ids = object_ids
        self.server = server
        self.tokens = tokens

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.catalog.store.close()


class Workload:
    """Inputs, set-up, operations and checks of one workload run."""

    def __init__(self, config: Config, seed: int, workdir: str) -> None:
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.users = [f"user{i:03d}" for i in range(config.users)]
        # Inputs, made before any timing: base documents with owner and
        # publish flag, and a pool of documents to upload.
        self.base: List[Tuple[str, str, bool]] = []
        for i in range(config.base):
            text, public = corpus.make_document(seed, i, f"lead:perf:{seed}:b{i:06d}")
            self.base.append((self.users[i % config.users], text, public))
        self.pool = [
            corpus.make_document(seed, corpus.UPLOAD_BASE + j,
                                 f"lead:perf:{seed}:u#{j:03d}")
            for j in range(128)
        ]
        rng = random.Random(seed * 31 + 7)
        self.hot = [self._spec(rng) for _ in range(config.hot)]
        self.setups = 0
        self.instance: Optional[Instance] = None
        # Ledger: who owns which object, which are public, what was sent.
        self.owner: Dict[int, str] = {}
        self.public: set = set()
        self.sent: Dict[int, str] = {}
        self.uploaded = 0
        self.last_upload: List[int] = []
        # Outputs recorded during the run, checked after it.
        self.queries: List[tuple] = []
        self.fetched: Dict[int, bytes] = {}
        #: (user, ids asked for, ids returned)
        self.fetch_log: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []
        self.fetch_variants: List[Tuple[int, bytes]] = []
        self.searches: List[tuple] = []
        self.hostile: Dict[str, List[int]] = {kind: [] for kind in HOSTILE}

    # ------------------------------------------------------------------
    # Set-up: everything the program does to build the starting catalog.
    # ------------------------------------------------------------------
    def setup(self, watch) -> Instance:
        """Build the starting catalog, timed by ``watch`` (a
        ``run.Stopwatch``: ``start()``, then ``lap()`` between steps)."""
        self.setups += 1
        path = None
        if self.config.store == "sqlite":
            path = os.path.join(self.workdir, f"catalog{self.setups}.db")
        gc.collect()
        watch.start()
        store = SqliteHybridStore(path) if path else MemoryHybridStore()
        catalog = HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
        corpus.define_attributes(catalog)
        service = MyLeadService(catalog.schema, catalog)
        experiments = {}
        for user in self.users:
            service.create_user(user)
            experiments[user] = service.create_experiment(user, "runs")
        watch.lap()
        object_ids = []
        for i, (owner, text, public) in enumerate(self.base):
            receipt = service.add_file(owner, experiments[owner], text,
                                       name=f"b{i:06d}", public=public)
            object_ids.append(receipt.object_id)
            watch.lap()
        server = None
        tokens: Dict[str, str] = {}
        if self.config.served:
            server = CatalogServer(service, ServerConfig()).start()
            tokens = {user: server.sessions.open(user) for user in self.users}
        watch.lap()
        return Instance(path, catalog, service, experiments, object_ids,
                        server, tokens)

    def discard(self, instance: Instance) -> None:
        instance.close()
        if instance.path:
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(instance.path + suffix):
                    os.remove(instance.path + suffix)

    def adopt(self, instance: Instance) -> None:
        """Make ``instance`` the catalog the timed phase runs against."""
        self.instance = instance
        for oid, (owner, text, public) in zip(instance.object_ids, self.base):
            self.owner[oid] = owner
            self.sent[oid] = text
            if public:
                self.public.add(oid)
        self.hi = max(instance.object_ids)
        self.visible_base = {
            user: [oid for oid in instance.object_ids if self.visible(user, oid)]
            for user in self.users
        }
        self.client = None
        if instance.server is not None:
            self.client = CatalogClient(instance.server.host, instance.server.port)

    def visible(self, user: str, oid: int) -> bool:
        return self.owner.get(oid) == user or oid in self.public

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.instance is not None:
            self.discard(self.instance)
            self.instance = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _spec(self, rng: random.Random) -> tuple:
        shapes = sorted(self.config.mix)
        shape = rng.choices(shapes, [self.config.mix[s] for s in shapes])[0]
        return corpus.random_spec(rng, shape)

    def _read_spec(self, rng: random.Random) -> tuple:
        return rng.choice(self.hot) if self.hot else self._spec(rng)

    def round_plan(self, r: int) -> List[tuple]:
        """The operations of round ``r``: ``(kind, args)`` in order."""
        cfg = self.config
        rng = random.Random((self.seed * 1_000_003 + r) * 17 + 3)
        uploader = self.users[r % len(self.users)]
        uploads = []
        for _ in range(cfg.uploads):
            text, public = self.pool[self.uploaded % len(self.pool)]
            text = text.replace("u#", f"r{r:06d}n", 1)
            uploads.append(("ingest", (uploader, text, public)))
            self.uploaded += 1
        reads = []
        for _ in range(cfg.queries):
            spec = self._read_spec(rng)
            reads.append(("query", (spec, corpus.to_query(spec), rng.choice(self.users))))
        for _ in range(cfg.searches):
            spec = self._read_spec(rng)
            reads.append(("search", (spec, corpus.to_query(spec), rng.choice(self.users))))
        for _ in range(cfg.fetches):
            reads.append(("fetch", (rng.choice(self.users), rng.random())))
        if cfg.name == "ingest":
            # Writes beside reads; each fetch reads back the two documents
            # written last, so it comes after the second upload.
            by_kind = {"U": uploads, "Q": [], "S": [], "F": []}
            for kind, args in reads:
                by_kind[kind[0].upper()].append((kind, args))
            by_kind["F"] = [("fetch", (uploader, None))] * cfg.fetches
            return [by_kind[k].pop(0) for k in INGEST_ROUND]
        rng.shuffle(reads)
        plan = uploads + reads
        if cfg.served:
            third = len(plan) // 3
            plan.insert(third, ("hostile_xml", (rng.choice(self.users),)))
            plan.insert(2 * third, ("hostile_json", (rng.choice(self.users),)))
        return plan

    def op(self, kind: str) -> Callable:
        return getattr(self, "_" + kind)

    # -- operations: return what the caller got back -------------------
    def _fetch_ids(self, user: str, pick: Optional[float]) -> List[int]:
        if pick is None:
            return list(self.last_upload[-FETCH_SIZE:])
        visible = self.visible_base[user]
        start = int(pick * (len(visible) - FETCH_SIZE + 1))
        return visible[start:start + FETCH_SIZE]

    def _query(self, spec, query, user):
        return self.instance.service.query(user, query)

    def _search(self, spec, query, user):
        total, ids, documents = self.instance.service.search_slice(
            user, query, 0, PAGE_SIZE
        )
        return total, ids, "".join(documents)

    def _fetch(self, user, ids):
        return self.instance.service.fetch(user, ids)

    def _ingest(self, user, text, public):
        service = self.instance.service
        return service.add_file(user, self.instance.experiments[user], text,
                                public=public).object_id

    # -- recording: after the clock stops for each operation -----------
    def prepare(self, kind: str, args: tuple) -> tuple:
        """Resolve arguments that depend on earlier operations."""
        if kind == "fetch":
            user, pick = args
            return user, self._fetch_ids(user, pick)
        return args

    def record(self, kind: str, args: tuple, result) -> bool:
        """Keep the output for the checks; returns whether the operation
        succeeded."""
        if kind == "query":
            spec, _query, user = args
            self.queries.append((spec, user, self.hi, array.array("l", result)))
        elif kind == "search":
            spec, _query, user = args
            total, ids, body = result
            self.searches.append((spec, user, self.hi, total, tuple(ids), _digest(body)))
        elif kind == "fetch":
            user, ids = args
            self.fetch_log.append((user, tuple(ids), tuple(sorted(result))))
            for oid, text in result.items():
                digest = _digest(text)
                first = self.fetched.setdefault(oid, digest)
                if first != digest:
                    self.fetch_variants.append((oid, digest))
        elif kind == "ingest":
            user, text, public = args
            oid = result
            self.owner[oid] = user
            self.sent[oid] = text
            if public:
                self.public.add(oid)
            self.hi = max(self.hi, oid)
            self.last_upload = (self.last_upload + [oid])[-FETCH_SIZE:]
        return True

    # ------------------------------------------------------------------
    # Checks, after the timed phase
    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        errors: List[str] = []
        evaluator = corpus.Evaluator()
        for oid, text in self.sent.items():
            evaluator.add(oid, text)
        catalog = self.instance.catalog
        for spec, user, hi, ids in self.queries:
            expected = [o for o in evaluator.match(spec) if o <= hi and self.visible(user, o)]
            if list(ids) != expected:
                errors.append(f"query {spec} as {user}: got {len(ids)} ids, "
                              f"expected {len(expected)}")
        for spec, user, hi, total, ids, digest in self.searches:
            expected = [o for o in evaluator.match(spec) if o <= hi and self.visible(user, o)]
            if total != len(expected) or list(ids) != expected[:PAGE_SIZE]:
                errors.append(f"search {spec} as {user}: page {list(ids)}, "
                              f"expected {expected[:PAGE_SIZE]} of {len(expected)}")
                continue
            documents = catalog.fetch(list(ids))
            if _digest("".join(documents[o] for o in ids)) != digest:
                errors.append(f"search {spec}: streamed page differs from fetched documents")
            self._check_documents(documents, errors)
        for user, ids, returned in self.fetch_log:
            if sorted(ids) != list(returned):
                errors.append(f"fetch as {user} of {list(ids)} returned {list(returned)}")
            hidden = [o for o in returned if not self.visible(user, o)]
            if hidden:
                errors.append(f"fetch as {user} returned invisible {hidden}")
        for user in self.users[:DENIED_FETCHES]:
            foreign = min(o for o in self.owner if not self.visible(user, o))
            if not self._fetch_denied(user, foreign):
                errors.append(f"fetch as {user} of private object {foreign} "
                              f"of {self.owner[foreign]} was not denied")
        fetched_ids = sorted(self.fetched)
        for start in range(0, len(fetched_ids), 64):
            chunk = fetched_ids[start:start + 64]
            documents = catalog.fetch(chunk)
            for oid in chunk:
                if _digest(documents[oid]) != self.fetched[oid]:
                    errors.append(f"fetch of {oid} changed between reads")
            self._check_documents(documents, errors)
        for oid, _variant in self.fetch_variants:
            errors.append(f"fetch of {oid} returned two different documents")
        for keyword in sorted(corpus.MARKERS):
            ids = catalog.query(corpus.to_query(("kw", keyword)))
            if len(ids) != corpus.marker_count(self.config.base, keyword):
                errors.append(f"marker {keyword}: {len(ids)} ids, expected "
                              f"{corpus.marker_count(self.config.base, keyword)}")
        return errors

    def _fetch_denied(self, user: str, oid: int) -> bool:
        try:
            self._fetch(user, [oid])
        except CatalogError as exc:
            return "not visible" in str(exc)
        return False

    def _check_documents(self, documents: Dict[int, str], errors: List[str]) -> None:
        for oid, text in documents.items():
            if corpus.canonical(text) != corpus.canonical(self.sent[oid]):
                errors.append(f"object {oid} differs from the document uploaded")

    def reopen_check(self) -> List[str]:
        """Close the catalog, reopen it from disk and re-read every
        acknowledged object (on-disk workloads only)."""
        instance = self.instance
        if instance.path is None:
            return []
        if instance.server is not None:
            return []
        instance.catalog.store.close()
        store = SqliteHybridStore(instance.path)
        catalog = HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
        instance.catalog = catalog
        errors = []
        ids = sorted(self.sent)
        if len(catalog) != len(ids) + len(self.users):
            errors.append(f"reopened catalog holds {len(catalog)} objects, "
                          f"expected {len(ids) + len(self.users)}")
        for start in range(0, len(ids), 64):
            self._check_documents(catalog.fetch(ids[start:start + 64]), errors)
        return errors

    def stored_bytes_per_doc_byte(self) -> float:
        stored = sum(size for _table, _rows, size in self.instance.catalog.storage_report())
        sent = sum(len(text.encode("utf-8")) for text in self.sent.values())
        return stored / sent


class ServedWorkload(Workload):
    """The served workload: every operation is an HTTP round trip."""

    def _use(self, user: str) -> CatalogClient:
        client = self.client
        client.token = self.instance.tokens[user]
        return client

    def _query(self, spec, query, user):
        status, body = self._use(user).query(query)
        if status != 200:
            raise RuntimeError(f"query returned {status}: {body}")
        return body["ids"]

    def _search(self, spec, query, user):
        page = self._use(user).search(query, limit=PAGE_SIZE)
        return page.total, page.ids, page.body

    def _fetch(self, user, ids):
        status, body = self._use(user).fetch(ids)
        if status != 200:
            raise RuntimeError(f"fetch returned {status}: {body}")
        return {int(k): v for k, v in body["documents"].items()}

    def _ingest(self, user, text, public):
        experiment = self.instance.experiments[user].experiment_id
        status, body = self._use(user).add_file(experiment, text, public=public)
        if status != 201:
            raise RuntimeError(f"upload returned {status}: {body}")
        return body["object_id"]

    def _fetch_denied(self, user: str, oid: int) -> bool:
        status, _body = self._use(user).fetch([oid])
        return status == 403

    def _hostile_xml(self, user):
        experiment = self.instance.experiments[user].experiment_id
        body = json.dumps({"experiment_id": experiment, "document": DEEP_XML,
                           "name": "", "public": False}).encode("utf-8")
        return self._hostile_post(user, "/v1/files", body)

    def _hostile_json(self, user):
        # json.dumps cannot encode a body this deep, which is the point.
        return self._hostile_post(user, "/v1/query", DEEP_JSON)

    def _hostile_post(self, user: str, path: str, body: bytes) -> Tuple[int, bool]:
        """Send ``body`` raw on the client's keep-alive connection; returns
        the status and whether that same connection then answers a health
        check (``CatalogClient.request`` would reconnect silently, so the
        connection is driven directly)."""
        conn = self._use(user)._conn
        status = 0
        try:
            conn.request("POST", path, body=body, headers={
                "Authorization": f"Bearer {self.client.token}",
                "Content-Type": "application/json",
            })
            response = conn.getresponse()
            response.read()
            status, sock = response.status, conn.sock
            conn.request("GET", "/v1/health")
            health = conn.getresponse()
            health.read()
        except (http.client.HTTPException, OSError):
            # Dropped mid-request: start the next request afresh.
            conn.close()
            return status, False
        return status, sock is not None and conn.sock is sock and health.status == 200

    def record(self, kind: str, args: tuple, result) -> bool:
        if kind in HOSTILE:
            self.hostile[kind].append(result)
            status, usable = result
            return 400 <= status < 500 and usable
        return super().record(kind, args, result)


def make(name: str, seed: int, workdir: str) -> Workload:
    config = CONFIGS[name]
    cls = ServedWorkload if config.served else Workload
    return cls(config, seed, workdir)
