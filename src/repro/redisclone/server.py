"""The single-threaded Redis-clone server.

Processes one command at a time (so a batch executes atomically w.r.t.
snapshots — the property the D-Redis wrapper's shared latch provides),
owns the snapshot store and the optional AOF, and supports crash and
restart with the real recovery order: newest durable RDB image first,
then replay of the durable AOF suffix.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.redisclone.commands import execute_command, is_mutating
from repro.redisclone.datastore import DataStore, RedisError
from repro.redisclone.persistence import (
    AofPolicy,
    AppendOnlyFile,
    Snapshot,
    SnapshotStore,
)


class RedisServer:
    """One Redis-clone instance."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 aof_policy: AofPolicy = AofPolicy.NO):
        self._clock = clock or (lambda: 0.0)
        self.db = DataStore(clock=self._clock)
        self.snapshots = SnapshotStore()
        self.aof = AppendOnlyFile(policy=aof_policy)
        #: Commands the current AOF prefix starts after (set on BGSAVE so
        #: recovery replays only the post-snapshot suffix).
        self._aof_offset_at_snapshot: dict = {}
        self.commands_processed = 0
        self._running = True

    @property
    def running(self) -> bool:
        return self._running

    def now(self) -> float:
        return self._clock()

    # -- command path ---------------------------------------------------

    def execute(self, command: Sequence) -> Any:
        """Execute one command (raises RedisError on bad input)."""
        if not self._running:
            raise ConnectionError("server is down")
        result = execute_command(self.db, command)
        if is_mutating(command):
            self.aof.append(command)
        self.commands_processed += 1
        return result

    def execute_batch(self, commands: Sequence[Sequence]) -> List[Any]:
        """Execute a batch serially; per-command errors become values."""
        results: List[Any] = []
        for command in commands:
            try:
                results.append(self.execute(command))
            except RedisError as error:
                results.append(error)
        return results

    # -- persistence ------------------------------------------------------

    def bgsave(self) -> Snapshot:
        """``BGSAVE``: snapshot now, durable later (caller completes)."""
        snapshot = self.snapshots.bgsave(self.db.dump(), self.now())
        self._aof_offset_at_snapshot[snapshot.snapshot_id] = len(self.aof)
        return snapshot

    def complete_bgsave(self, snapshot: Snapshot) -> None:
        """The background writer finished; LASTSAVE advances."""
        self.snapshots.complete(snapshot, self.now())

    def save(self) -> Snapshot:
        """Synchronous ``SAVE``."""
        snapshot = self.bgsave()
        self.complete_bgsave(snapshot)
        return snapshot

    def lastsave(self) -> float:
        return self.snapshots.lastsave()

    # -- crash & restart ------------------------------------------------------

    def crash(self) -> None:
        """Process dies: volatile state is gone, unsynced AOF lost."""
        self._running = False
        self.aof.truncate_to_durable()

    def restart(self, snapshot: Optional[Snapshot] = None,
                replay_aof: Optional[bool] = None) -> None:
        """Restart from durable state.

        Loads ``snapshot`` (default: newest durable), then — when the
        AOF is enabled or ``replay_aof`` forces it — replays the durable
        AOF suffix recorded after that snapshot.  D-Redis's
        ``Restore(token)`` calls this with the snapshot matching the
        token and *without* AOF replay (DPR's durability comes from the
        snapshots).
        """
        if snapshot is None:
            snapshot = self.snapshots.latest_durable()
        self.db = DataStore(clock=self._clock)
        if snapshot is not None:
            self.db.load(snapshot.image)
        if replay_aof is None:
            replay_aof = self.aof.policy is not AofPolicy.NO
        if replay_aof:
            offset = 0
            if snapshot is not None:
                offset = self._aof_offset_at_snapshot.get(
                    snapshot.snapshot_id, 0
                )
            for command in self.aof.durable_entries()[offset:]:
                execute_command(self.db, command)
        self._running = True
