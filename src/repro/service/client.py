"""A minimal client for the decomposition service.

:class:`ServiceClient` speaks the JSONL protocol over one asyncio
stream (requests are answered in order, so a single connection is a
simple synchronous channel per task; open one client per concurrent
task).  :func:`solve_sync` wraps a one-shot request for synchronous
callers (the CLI smoke tests, notebooks).
"""

from __future__ import annotations

import asyncio
import json

from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from .protocol import encode_structure


class ServiceProtocolError(RuntimeError):
    """The server answered with something that is not a response line."""


def _request_body(structure, metric: str) -> tuple[dict, dict]:
    """The request body for ``structure`` plus the map from the string
    labels given to vertices the wire cannot carry (tuples, frozensets,
    booleans, ...) back to those vertices.  The server accepts only
    JSON int and string vertices; pre-encoded bodies go out as they
    are."""
    if isinstance(structure, dict):  # pre-encoded {"edges": ..., ...}
        return dict(structure, metric=metric), {}
    if isinstance(structure, Graph):
        structure = Hypergraph.from_graph(structure)
    if isinstance(structure, Hypergraph):
        body = encode_structure(structure)
    else:
        body = {"edges": [list(edge) for edge in structure]}
    body["metric"] = metric
    edges = body["edges"]
    groups = list(edges.values() if isinstance(edges, dict) else edges)
    groups.append(body.get("vertices", []))
    taken = {v for group in groups for v in group if isinstance(v, str)}
    labels: dict = {}
    for group in groups:
        for i, v in enumerate(group):
            if isinstance(v, (int, str)) and not isinstance(v, bool):
                continue
            key = (type(v), v)  # keeps True apart from 1.0
            if key not in labels:
                label = repr(v)
                while label in taken:
                    label += "'"
                taken.add(label)
                labels[key] = label
            group[i] = labels[key]
    return body, {label: v for (_, v), label in labels.items()}


class ServiceClient:
    """One JSONL connection to a running service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0,
        limit: int = 1 << 22,
    ) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=limit
        )
        return cls(reader, writer)

    async def request(self, obj: dict) -> dict:
        self._writer.write(
            json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServiceProtocolError(
                "connection closed before a response arrived"
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServiceProtocolError(
                f"unparseable response line: {line[:80]!r}"
            ) from exc

    async def solve(
        self,
        structure,
        metric: str = "ghw",
        budget: float | None = None,
        request_id=None,
    ) -> dict:
        """Solve one instance: a Graph/Hypergraph, a pre-encoded request
        body, or a bare edge list.  Vertices that are not JSON ints or
        strings travel as string labels; the response's ``ordering`` is
        mapped back to the original vertices."""
        body, labels = _request_body(structure, metric)
        body["op"] = "solve"
        if budget is not None:
            body["budget"] = budget
        if request_id is not None:
            body["id"] = request_id
        response = await self.request(body)
        if labels and response.get("ordering") is not None:
            response["ordering"] = [
                labels.get(v, v) for v in response["ordering"]
            ]
        return response

    async def batch(self, requests: list[dict], request_id=None) -> dict:
        obj = {"op": "batch", "requests": requests}
        if request_id is not None:
            obj["id"] = request_id
        return await self.request(obj)

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def shutdown(self) -> dict:
        return await self.request({"op": "shutdown"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def solve_sync(
    structure,
    metric: str = "ghw",
    host: str = "127.0.0.1",
    port: int = 0,
    budget: float | None = None,
) -> dict:
    """One-shot synchronous solve against a running server."""

    async def go() -> dict:
        async with await ServiceClient.connect(host, port) as client:
            return await client.solve(structure, metric, budget=budget)

    return asyncio.run(go())
