"""Content-addressed result cache for sweep cells.

Each completed cell is stored as one compact JSON *envelope* file (no
indentation; ``python -m json.tool`` pretty-prints one) named by its
cache key: a SHA-256 over the cell's config (experiment, case, policy,
scale), the experiment's declared version, and a digest of the
simulator's source tree.  Any of those changing changes the key, so a
rerun after a source edit re-executes every affected cell while an
unchanged rerun is a 100 % cache hit — ``--resume`` after an interrupt
falls out of the same property.

Only successful results are cached; failures and timeouts always rerun.
Writes are atomic (tmp file + rename) so a sweep killed mid-write never
leaves a corrupt entry — unreadable entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.registry import Cell

#: environment override for the cache location (CI points this at the
#: artifact directory).
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"
DEFAULT_CACHE_DIR = ".sweep-cache"

#: the simulator source tree :func:`source_digest` hashes.
SOURCE_ROOT = Path(__file__).resolve().parents[1]  # src/repro
#: paths under :data:`SOURCE_ROOT` that never run inside a cell (the CLI,
#: the report renderers, the microbenchmark harness and ``python -m
#: repro``), left out of the digest so editing them keeps every cache
#: key; ``tests/test_oracle.py`` checks that cells never import them.
DIGEST_SKIP = ("cli/", "report/", "perf.py", "__main__.py")

_digest_memo: dict[str, str] = {}


def default_cache_dir() -> Path:
    """Cache root: $REPRO_SWEEP_CACHE if set, else ./.sweep-cache."""
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def source_digest() -> str:
    """SHA-256 over the simulator source tree (paths + contents).

    Covers every ``.py`` file under :data:`SOURCE_ROOT` — adapters
    included — but :data:`DIGEST_SKIP`'s, so cached results can never
    outlive the code that produced them.  Memoised per process: a sweep
    hashes the tree once, not per cell.
    """
    base = SOURCE_ROOT
    key = str(base)
    if key not in _digest_memo:
        h = hashlib.sha256()
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(base)
            if rel.as_posix().startswith(DIGEST_SKIP):
                continue
            h.update(str(rel).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _digest_memo[key] = h.hexdigest()
    return _digest_memo[key]


def clear_digest_memo() -> None:
    """Forget the memoised source digest (test helper)."""
    _digest_memo.clear()


def cell_key(cell: "Cell", digest: str, version: int = 1,
             key_material: str = "") -> str:
    """Content address of one cell's result.

    ``key_material`` is extra experiment-supplied content that joins the
    hash — scenario-backed experiments pass their scenario file's digest
    here, so editing the scenario invalidates exactly its own cells.
    Empty material hashes identically to the historical three-field
    payload, so stock experiment keys are unchanged.
    """
    fields: dict = {"cell": cell.config(), "version": version, "source": digest}
    if key_material:
        fields["material"] = key_material
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


class ResultCache:
    """JSON result store under ``<root>/results/<key>.json``."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    def path_for(self, key: str) -> Path:
        """Filesystem path of the envelope stored under ``key``."""
        return self.results_dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached envelope for ``key``, or None (corrupt = miss)."""
        path = self.path_for(key)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    #: per-process sequence for unique tmp names (distinct writers in
    #: one process, e.g. threads, also get distinct names).
    _tmp_seq = itertools.count()

    def put(self, key: str, envelope: dict) -> Path:
        """Atomically store an envelope; returns its path.

        The tmp name is unique per writer (pid + sequence number), so
        two sweeps sharing a cache dir — CI matrix jobs pointed at one
        ``$REPRO_SWEEP_CACHE`` — can race on the same key without one
        renaming the other's half-written file into place.  The final
        ``os.replace`` stays atomic; last writer wins with an intact
        envelope either way.
        """
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = self.results_dir / (
            f"{key}.{os.getpid()}.{next(self._tmp_seq)}.json.tmp"
        )
        try:
            # ``json.dumps`` without ``indent`` runs the C encoder;
            # ``json.dump`` and any ``indent`` run the pure-Python one.
            with open(tmp, "w") as fh:
                fh.write(json.dumps(envelope, sort_keys=True))
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            # A failed dump (or a crash between dump and rename cleaned
            # up on the next run) must not leave stray tmp files behind.
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return path

    def entries(self) -> Iterator[dict]:
        """Yield every readable cached envelope."""
        if not self.results_dir.is_dir():
            return
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                with open(path) as fh:
                    yield json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue

    def __len__(self) -> int:
        if not self.results_dir.is_dir():
            return 0
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete all cached results; returns how many were removed."""
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed
