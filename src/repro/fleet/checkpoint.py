"""Crash-surviving engine snapshots (``--checkpoint-every`` / ``--resume``).

A long fleet simulation that dies mid-run — OOM kill, pre-emption, a
pulled plug — would otherwise lose everything. This module gives the
fleet engine periodic state snapshots with a **byte-identity
contract**: a run resumed from any checkpoint produces the *identical*
final report, byte for byte, as the uninterrupted run. That works
because every source of randomness in the fleet is a pure function of
``(seed, entity)`` — churn, NIC mixes, fault schedules, traces — so the
only state a snapshot must carry is the mutable trajectory: the
engine's :class:`~repro.fleet.engine.FleetState` (cluster, event queue,
accumulated report, integrals, caches). Pure caches that refill on
demand with bit-identical values (the collectors' solo caches) are
deliberately *not* saved.

Snapshots are single-``pickle`` payloads written atomically (temp file
in the target directory + :func:`os.replace`), so a run killed mid-save
leaves the previous checkpoint intact, never a truncated one. Each
payload carries a **fingerprint** — the run's configuration dict minus
execution-only knobs — and :func:`load_checkpoint` refuses a snapshot
whose fingerprint does not match the resuming configuration: resuming
epoch 7 of one scenario into a different scenario would silently
produce garbage, so it is an error instead. A snapshot pickled by a
different code revision (one naming a class that has since moved or
gone) is refused with the same kind of error, never a raw pickle
traceback.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Optional

from repro.errors import ConfigurationError

#: Version of the snapshot payload layout. Bumped on incompatible
#: changes; :func:`load_checkpoint` rejects other versions. v2 added
#: the telemetry accumulator to the engines' state dicts; v3 the
#: warm-start solution cache (present even when empty, so resumed
#: warm runs stay byte-identical to uninterrupted ones); v4 replaced
#: the per-engine state dicts with one pickled
#: :class:`~repro.fleet.engine.FleetState`.
CHECKPOINT_VERSION = 4


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temp file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename — atomic on POSIX.
    A reader never sees a partial file; a crash mid-write leaves the
    previous version (if any) untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Text flavour of :func:`atomic_write_bytes` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


class Checkpointer:
    """Periodic snapshot writer one engine run drives.

    ``every`` counts on-grid probes: one per epoch whatever the engine
    configuration, so ``every=N`` snapshots every N epochs.
    ``fingerprint`` is any JSON-ready dict identifying the run
    configuration; it is stored in every snapshot and checked on load.
    """

    def __init__(self, path: str, every: int, fingerprint: dict) -> None:
        if every < 1:
            raise ConfigurationError("checkpoint interval must be >= 1")
        if not path:
            raise ConfigurationError("checkpoint path must be non-empty")
        self._path = path
        self._every = every
        self._fingerprint = fingerprint
        self.saves = 0

    @property
    def path(self) -> str:
        return self._path

    @property
    def every(self) -> int:
        return self._every

    def maybe_save(self, step: int, state: Any) -> bool:
        """Snapshot if ``step`` completes an interval; returns whether
        a snapshot was written. ``step`` is the number of completed
        engine steps (1-based), so ``every=N`` saves after steps N,
        2N, ... but never the trivial step-0 state."""
        if step <= 0 or step % self._every != 0:
            return False
        self.save(step, state)
        return True

    def save(self, step: int, state: Any) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self._fingerprint,
            "step": step,
            "state": state,
        }
        atomic_write_bytes(
            self._path,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.saves += 1


def load_checkpoint(
    path: str, fingerprint: Optional[dict] = None
) -> tuple[int, Any]:
    """Load a snapshot; returns ``(step, state)``.

    With a ``fingerprint`` the snapshot's stored fingerprint must match
    exactly — resuming into a different configuration is refused rather
    than silently mis-continued.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ConfigurationError(f"no checkpoint at {path!r}") from None
    except (pickle.UnpicklingError, EOFError) as exc:
        raise ConfigurationError(
            f"checkpoint {path!r} is corrupt: {exc}"
        ) from None
    except (AttributeError, ImportError) as exc:
        # The payload names a class or module this revision does not
        # have: it was pickled by a different revision of the code.
        raise ConfigurationError(
            f"checkpoint {path!r} was written by a different code "
            f"revision and cannot be loaded by this one ({exc})"
        ) from None
    if not isinstance(payload, dict) or "state" not in payload:
        raise ConfigurationError(f"checkpoint {path!r} is not a snapshot")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if fingerprint is not None and payload.get("fingerprint") != fingerprint:
        raise ConfigurationError(
            f"checkpoint {path!r} was written by a different "
            "configuration; refusing to resume (same seed/policy/"
            "scenario knobs are required for byte-identical resumption)"
        )
    return payload["step"], payload["state"]


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "atomic_write_bytes",
    "atomic_write_text",
    "load_checkpoint",
]
