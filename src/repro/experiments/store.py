"""Persistence of experiment results ("Resulting statistics are written
into a database", Section III).

:class:`ResultStore` is a small sqlite3 wrapper: one ``runs`` table of
experiment executions (with JSON summaries and parameters) plus a
``points`` table holding every curve point, so past runs remain queryable
— comparing a defense rollout before/after a topology change is a SQL
query away.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import ExperimentResult

__all__ = ["ResultStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id TEXT NOT NULL,
    title TEXT NOT NULL,
    params TEXT NOT NULL,
    summary TEXT NOT NULL,
    created_at TEXT NOT NULL DEFAULT (datetime('now'))
);
CREATE TABLE IF NOT EXISTS points (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    series TEXT NOT NULL,
    x REAL NOT NULL,
    y REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS table_rows (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    name TEXT NOT NULL,
    row TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs(experiment_id);
CREATE INDEX IF NOT EXISTS idx_points_run ON points(run_id, series);
"""


@dataclass(frozen=True)
class StoredRun:
    """A persisted experiment execution."""

    run_id: int
    experiment_id: str
    title: str
    params: dict
    summary: dict
    created_at: str


class ResultStore:
    """Sqlite-backed storage for :class:`ExperimentResult` objects."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        if path != ":memory:":
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(path))
        self._connection.executescript(_SCHEMA)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing -----------------------------------------------------------------

    def record(self, result: ExperimentResult, *, params: dict | None = None) -> int:
        """Persist a result; returns the run id."""
        cursor = self._connection.execute(
            "INSERT INTO runs (experiment_id, title, params, summary) VALUES (?, ?, ?, ?)",
            (
                result.experiment_id,
                result.title,
                json.dumps(params or {}, sort_keys=True, default=str),
                json.dumps(result.summary, sort_keys=True, default=str),
            ),
        )
        run_id = int(cursor.lastrowid or 0)
        self._connection.executemany(
            "INSERT INTO points (run_id, series, x, y) VALUES (?, ?, ?, ?)",
            [
                (run_id, label, float(x), float(y))
                for label, points in result.series.items()
                for x, y in points
            ],
        )
        self._connection.executemany(
            "INSERT INTO table_rows (run_id, name, row) VALUES (?, ?, ?)",
            [
                (run_id, name, json.dumps(row, sort_keys=True, default=str))
                for name, rows in result.tables.items()
                for row in rows
            ],
        )
        self._connection.commit()
        return run_id

    # -- reading -------------------------------------------------------------------

    def _to_run(self, row: tuple) -> StoredRun:
        run_id, experiment_id, title, params, summary, created_at = row
        return StoredRun(
            run_id=run_id,
            experiment_id=experiment_id,
            title=title,
            params=json.loads(params),
            summary=json.loads(summary),
            created_at=created_at,
        )

    def latest(self, experiment_id: str) -> StoredRun | None:
        row = self._connection.execute(
            "SELECT run_id, experiment_id, title, params, summary, created_at "
            "FROM runs WHERE experiment_id = ? ORDER BY run_id DESC LIMIT 1",
            (experiment_id,),
        ).fetchone()
        return self._to_run(row) if row else None

    def history(self, experiment_id: str) -> list[StoredRun]:
        rows = self._connection.execute(
            "SELECT run_id, experiment_id, title, params, summary, created_at "
            "FROM runs WHERE experiment_id = ? ORDER BY run_id",
            (experiment_id,),
        ).fetchall()
        return [self._to_run(row) for row in rows]

    def series(self, run_id: int, label: str) -> list[tuple[float, float]]:
        rows = self._connection.execute(
            "SELECT x, y FROM points WHERE run_id = ? AND series = ? ORDER BY x",
            (run_id, label),
        ).fetchall()
        return [(x, y) for x, y in rows]

    def series_labels(self, run_id: int) -> list[str]:
        rows = self._connection.execute(
            "SELECT DISTINCT series FROM points WHERE run_id = ? ORDER BY series",
            (run_id,),
        ).fetchall()
        return [label for (label,) in rows]

    def table(self, run_id: int, name: str) -> list[dict]:
        rows = self._connection.execute(
            "SELECT row FROM table_rows WHERE run_id = ? AND name = ?",
            (run_id, name),
        ).fetchall()
        return [json.loads(row) for (row,) in rows]
