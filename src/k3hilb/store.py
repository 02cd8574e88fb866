"""Deterministic on-disk caching of expensive reusable artifacts.

The cache is strictly an optimization: every code path works with caching
disabled (the default).  Entries are JSON files, one per key, named by a
stable hash of the key.  Arbitrary-precision integers must be serialized as
decimal strings by the caller; helpers for that are provided.

Writes are atomic (temp file + rename), so concurrent writers of the same key
leave one valid entry.  Corrupt or version-mismatched entries read as absent.
"""

import hashlib
import json
import logging
import os
import tempfile

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

ENV_VAR = "K3HILB_CACHE_DIR"

_active_dir = None


def configure(directory):
    """Set (or with None, disable) the process-global cache directory."""
    global _active_dir
    if directory is None:
        _active_dir = None
        return
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    _active_dir = directory


def dir_from_env():
    """Cache directory from the environment, or None."""
    return os.environ.get(ENV_VAR) or None


def _key_filename(key):
    blob = json.dumps([SCHEMA_VERSION, key], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest() + ".json"


def _payload_checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_get(key, directory=None):
    """Stored payload for key, or None if absent, corrupt or stale."""
    directory = directory or _active_dir
    if directory is None:
        return None
    path = os.path.join(directory, _key_filename(key))
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        log.warning("unreadable cache entry %s: %s", path, exc)
        return None
    if not isinstance(entry, dict) or entry.get("version") != SCHEMA_VERSION:
        return None
    payload = entry.get("payload")
    if entry.get("checksum") != _payload_checksum(payload):
        log.warning("checksum mismatch in cache entry %s", path)
        return None
    return payload


def cache_put(key, payload, directory=None):
    """Store payload under key; I/O failures are logged, never raised."""
    directory = directory or _active_dir
    if directory is None:
        return
    entry = {
        "version": SCHEMA_VERSION,
        "key": key,
        "payload": payload,
        "checksum": _payload_checksum(payload),
    }
    path = os.path.join(directory, _key_filename(key))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        log.warning("could not write cache entry %s: %s", path, exc)


def cached(key, compute, encode=None, decode=None):
    """Fetch key from the cache, computing (and storing) it on a miss.

    With no cache directory configured this is just compute(): nothing is
    encoded or decoded.
    """
    if _active_dir is None:
        return compute()
    hit = cache_get(key)
    if hit is not None:
        return decode(hit) if decode else hit
    value = compute()
    cache_put(key, encode(value) if encode else value)
    return value


# helpers for exact serialization: big integers as decimal strings


def encode_int_matrix(mat):
    return [[str(x) for x in row] for row in mat]


def decode_int_matrix(payload):
    return [[int(x) for x in row] for row in payload]
